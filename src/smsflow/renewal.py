"""Deterministic keyword extraction from renewal SMS messages.

The parser strips politeness phrases, splits the text into sentence
segments, and matches tokens against an anchored keyword lexicon.  Keywords
are claimed only from segments made up entirely of lexicon tokens, which is
what makes every claim verbatim-correct; the fraction of matched tokens
feeds the fuzzy degree-of-confidence.  The reading depends on the text
alone, so :class:`RenewalAgent` caches it per distinct text, bounded by
``READING_MEMO_SIZE``.
"""
from __future__ import annotations

import functools
import re
from dataclasses import dataclass, field

from .fuzzy import LinguisticVariable
from .messages import (
    AGENTS_TOPIC,
    STEP_PARSED,
    DegreeOfConfidence,
    restamped,
)
from .pool import Envelope, MessagePool
from .store import RunStore

SEGMENT_DELIMITERS = ".!?;"
# Most entries in any cache one agent or scripted model keeps per text or profile.
READING_MEMO_SIZE = 1024
POLARITIES = ("renew", "stop")
# One token: a run of characters that are not whitespace, a comma or a
# sentence delimiter.  Every tokenization here finds these.
_TOKEN = re.compile(r"[^\s," + re.escape(SEGMENT_DELIMITERS) + "]+")
_BLANK_RUNS = re.compile(r"[ \t]+")


class LexiconError(ValueError):
    """Malformed keyword lexicon."""


@dataclass(frozen=True)
class LexiconEntry:
    pattern: str
    canonical: str
    polarity: str
    regex: re.Pattern = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        if self.polarity not in POLARITIES:
            raise LexiconError(f"entry {self.canonical!r}: polarity must be renew or stop")
        try:
            compiled = re.compile(self.pattern, re.IGNORECASE)
        except re.error as exc:
            raise LexiconError(f"entry {self.canonical!r}: bad pattern {self.pattern!r}: {exc}") from exc
        object.__setattr__(self, "regex", compiled)

    def matches(self, token: str) -> bool:
        # fullmatch keeps patterns anchored to whole tokens.
        return self.regex.fullmatch(token) is not None


@dataclass(frozen=True)
class KeywordLexicon:
    entries: tuple[LexiconEntry, ...]
    politeness: tuple[str, ...] = ()
    # Compiled once here: every parsed SMS and every model reading splits on them.
    segment_split: re.Pattern = field(init=False, repr=False, compare=False)
    politeness_res: tuple[re.Pattern, ...] = field(init=False, repr=False, compare=False)
    # Lowercased literal pattern -> index of its first entry, and the
    # (index, entry) pairs of every other entry; see match_token.
    literal_index: dict[str, int] = field(init=False, repr=False, compare=False)
    regex_entries: tuple[tuple[int, LexiconEntry], ...] = field(
        init=False, repr=False, compare=False
    )
    # Canonical keyword -> its polarity, in entry order.
    polarities: dict[str, str] = field(init=False, repr=False, compare=False)
    # Caches keyed by (text, lexicon) hash it on every lookup.
    _hash: int = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        object.__setattr__(self, "_hash", hash((self.entries, self.politeness)))
        polarities = {e.canonical: e.polarity for e in self.entries}
        if len(polarities) != len(self.entries):
            raise LexiconError("canonical keywords must be unique")
        object.__setattr__(self, "polarities", polarities)
        literal_index: dict[str, int] = {}
        regex_entries = []
        for i, entry in enumerate(self.entries):
            p = entry.pattern
            if p.isascii() and re.escape(p) == p:
                literal_index.setdefault(p.lower(), i)
            else:
                regex_entries.append((i, entry))
        object.__setattr__(self, "literal_index", literal_index)
        object.__setattr__(self, "regex_entries", tuple(regex_entries))
        object.__setattr__(
            self, "segment_split", re.compile("[" + re.escape(SEGMENT_DELIMITERS) + "]")
        )
        object.__setattr__(self, "politeness_res", tuple(
            re.compile(
                r"(?<!\w)" + r"\s+".join(re.escape(w) for w in phrase.split()) + r"(?!\w)",
                re.IGNORECASE,
            )
            for phrase in sorted(self.politeness, key=len, reverse=True)
        ))

    def __hash__(self) -> int:  # kept by the dataclass, which would hash every entry
        return self._hash

    def match_token(self, token: str) -> LexiconEntry | None:
        """The first entry whose pattern matches the whole token, case-insensitively.

        First entry wins.  For an ASCII token, a literal entry (ASCII pattern
        with no regex syntax) matches exactly when the lowercased token equals
        its lowercased pattern, so those entries are one dict lookup and only
        the regex entries before the hit are tried.  A non-ASCII token scans
        every entry, because IGNORECASE folds case beyond ``lower()``: it
        matches ``ſ`` to ``s`` and ``ı`` to ``i``.
        """
        if not token.isascii():
            for entry in self.entries:
                if entry.matches(token):
                    return entry
            return None
        hit = self.literal_index.get(token.lower())
        for i, entry in self.regex_entries:
            if hit is not None and i > hit:
                break
            if entry.matches(token):
                return entry
        return None if hit is None else self.entries[hit]


def strip_politeness(text: str, lexicon: KeywordLexicon) -> str:
    """Remove every whole-phrase politeness occurrence, case-insensitively."""
    result = text
    for pattern in lexicon.politeness_res:
        result = pattern.sub(" ", result)
    return _BLANK_RUNS.sub(" ", result).strip()


def split_sentences(text: str, lexicon: KeywordLexicon) -> list[str]:
    """Non-blank sentences of the text, split on ``SEGMENT_DELIMITERS`` and stripped."""
    parts = lexicon.segment_split.split(text)
    return [p.strip() for p in parts if p.strip()]


def sentence_tokens(sentence: str) -> list[str]:
    """Whitespace/comma-separated tokens of one sentence."""
    return _TOKEN.findall(sentence)


def normalize_item(text: str) -> str:
    """A complaint or request with whitespace runs made one space and edge punctuation stripped."""
    return " ".join(text.split()).strip(" \t.,!?;")


def segment(text: str, lexicon: KeywordLexicon) -> list[list[str]]:
    """Sentence segments, each a list of whitespace/comma-separated tokens."""
    return [tokens for part in lexicon.segment_split.split(text) if (tokens := _TOKEN.findall(part))]


def tokens_of(text: str, lexicon: KeywordLexicon) -> set[str]:
    """Lowercased token set of the raw text, under the same tokenization.

    The tokens of all its :func:`segment` segments, found in one pass over
    the whole text.  Each token is lowered on its own: lowering the text
    first would change a Greek final sigma that ends a token before a
    delimiter.
    """
    return {t.lower() for t in _TOKEN.findall(text)}


@dataclass
class KeywordExtraction:
    renew: list[str]
    stop: list[str]
    matched: int
    total: int

    def full_match(self) -> bool:
        """At least one token, and the lexicon matched every one."""
        return self.matched == self.total > 0


def extract(segments: list[list[str]], lexicon: KeywordLexicon) -> KeywordExtraction:
    """Claim keywords from pure segments; count matches everywhere.

    A segment claims its keywords only when every one of its tokens matches
    the lexicon; tokens matching inside mixed segments raise ``matched`` but
    are never claimed.
    """
    renew: list[str] = []
    stop: list[str] = []
    matched = 0
    total = 0
    for seg in segments:
        entries = [lexicon.match_token(tok) for tok in seg]
        hits = [e for e in entries if e is not None]
        matched += len(hits)
        total += len(seg)
        if len(hits) == len(seg):
            for entry in hits:
                target = renew if entry.polarity == "renew" else stop
                if entry.canonical not in renew and entry.canonical not in stop:
                    target.append(entry.canonical)
    return KeywordExtraction(renew=renew, stop=stop, matched=matched, total=total)


def compute_confidence(
    matched: int, total: int, variable: LinguisticVariable
) -> DegreeOfConfidence:
    """Confidence vector from the matched/total ratio.

    A ratio of 1 (an empty text counts as one) is the exact literal {high: 1,
    medium: 0, low: 0}; anything else is fuzzified on the confidence
    variable, where 0.9 already gives that literal, so the direct path reads
    :meth:`KeywordExtraction.full_match` instead.
    """
    if total < 0 or matched > total:
        raise ValueError(f"bad counts matched={matched} total={total}")
    ratio = 1.0 if total == 0 else matched / total
    if ratio == 1.0:
        return DegreeOfConfidence(high=1.0, medium=0.0, low=0.0)
    degrees = variable.fuzzify(ratio)
    return DegreeOfConfidence(
        high=degrees.get("high", 0.0),
        medium=degrees.get("medium", 0.0),
        low=degrees.get("low", 0.0),
    )


Reading = tuple[tuple[str, ...], tuple[str, ...], DegreeOfConfidence, bool]


def read_text(text: str, lexicon: KeywordLexicon, confidence_var: LinguisticVariable) -> Reading:
    """The parser's reading of one SMS text: renew, stop, confidence, full match."""
    extraction = extract(segment(strip_politeness(text, lexicon), lexicon), lexicon)
    confidence = compute_confidence(extraction.matched, extraction.total, confidence_var)
    return tuple(extraction.renew), tuple(extraction.stop), confidence, extraction.full_match()


class RenewalAgent:
    """Parser agent: reads each dispatched renewal SMS and publishes the result.

    It reads each distinct text once while its cache holds at most
    ``READING_MEMO_SIZE`` texts, the least recently used going first; every
    result still gets its own lists and confidence.
    """

    qualifier = "RenewalAgent"

    def __init__(
        self,
        lexicon: KeywordLexicon,
        confidence_var: LinguisticVariable,
        store: RunStore,
        pool: MessagePool,
    ):
        self.store = store
        self.pool = pool
        # SMS text -> the parser's reading; see read_text.
        self.reading = functools.lru_cache(maxsize=READING_MEMO_SIZE)(
            functools.partial(read_text, lexicon=lexicon, confidence_var=confidence_var)
        )

    def process(self, sms: dict) -> dict:
        """Full parse of one S000 document: persist the original, then publish the S001 document.

        The original text is stored before publication so that downstream
        validation can never observe an event whose text is missing.
        The S001 document holds ``"fullMatch": true`` on a full match only.
        """
        metadata = sms["metadata"]
        text = sms["body"]
        renew, stop, confidence, full_match = self.reading(text)

        self.store.store_original(metadata["eventId"], text)
        doc = {
            "metadata": restamped(metadata, STEP_PARSED, self.store.clock.now_iso()),
            "renew": list(renew),
            "stop": list(stop),
            "degreeOfConfidence": confidence.to_doc(),
        }
        if full_match:
            doc["fullMatch"] = True
        # The evaluator records this hop when it decides the document.
        self.pool.publish(AGENTS_TOPIC, doc)
        return doc

    def handle(self, envelope: Envelope) -> None:
        self.process(envelope.payload)
