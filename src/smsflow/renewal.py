"""Deterministic keyword extraction from renewal SMS messages.

The parser strips politeness phrases, splits the text into sentence
segments, and matches tokens against an anchored keyword lexicon.  Keywords
are claimed only from segments made up entirely of lexicon tokens, which is
what makes every claim verbatim-correct; the fraction of matched tokens
feeds the fuzzy degree-of-confidence.
"""
from __future__ import annotations

import re
from dataclasses import dataclass, field

from .fuzzy import LinguisticVariable
from .messages import (
    AGENTS_TOPIC,
    STEP_PARSED,
    DegreeOfConfidence,
    RenewalProcessed,
    SmsEvent,
)
from .pool import Envelope, MessagePool
from .store import RunStore

SEGMENT_DELIMITERS = ".!?;"
POLARITIES = ("renew", "stop")
TOKEN_SEPARATORS = re.compile(r"[\s,]+")
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
    delimiters: str = SEGMENT_DELIMITERS
    # Compiled once here: every parsed SMS and every model reading splits on them.
    segment_split: re.Pattern = field(init=False, repr=False, compare=False)
    politeness_res: tuple[re.Pattern, ...] = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        canonicals = [e.canonical for e in self.entries]
        if len(set(canonicals)) != len(canonicals):
            raise LexiconError("canonical keywords must be unique")
        object.__setattr__(
            self, "segment_split", re.compile("[" + re.escape(self.delimiters) + "]")
        )
        object.__setattr__(self, "politeness_res", tuple(
            re.compile(
                r"(?<!\w)" + r"\s+".join(re.escape(w) for w in phrase.split()) + r"(?!\w)",
                re.IGNORECASE,
            )
            for phrase in sorted(self.politeness, key=len, reverse=True)
        ))

    def match_token(self, token: str) -> LexiconEntry | None:
        for entry in self.entries:
            if entry.matches(token):
                return entry
        return None

    def canonicals(self) -> list[str]:
        return [e.canonical for e in self.entries]

    def polarity_of(self, canonical: str) -> str | None:
        for entry in self.entries:
            if entry.canonical == canonical:
                return entry.polarity
        return None


def strip_politeness(text: str, lexicon: KeywordLexicon) -> str:
    """Remove every whole-phrase politeness occurrence, case-insensitively."""
    result = text
    for pattern in lexicon.politeness_res:
        result = pattern.sub(" ", result)
    return _BLANK_RUNS.sub(" ", result).strip()


def segment(text: str, lexicon: KeywordLexicon) -> list[list[str]]:
    """Sentence segments, each a list of whitespace/comma-separated tokens."""
    segments = []
    for part in lexicon.segment_split.split(text):
        tokens = [t for t in TOKEN_SEPARATORS.split(part) if t]
        if tokens:
            segments.append(tokens)
    return segments


def tokens_of(text: str, lexicon: KeywordLexicon) -> set[str]:
    """Lowercased token set of the raw text, under the same tokenization."""
    return {t.lower() for seg in segment(text, lexicon) for t in seg}


@dataclass
class KeywordExtraction:
    renew: list[str]
    stop: list[str]
    matched: int
    total: int

    def claimed(self) -> list[str]:
        return list(self.renew) + list(self.stop)


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

    A full match is the exact literal {high: 1, medium: 0, low: 0}; anything
    else is fuzzified on the confidence variable.
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


def process(
    sms: SmsEvent,
    lexicon: KeywordLexicon,
    confidence_var: LinguisticVariable,
    store: RunStore,
    pool: MessagePool,
) -> RenewalProcessed:
    """Full parse of one SMS: persist the original, then publish the result.

    The original text is stored before publication so that downstream
    validation can never observe an event whose text is missing.
    """
    if sms.metadata.type != "renewal":
        raise ValueError(f"renewal parser got a {sms.metadata.type!r} event")
    stripped = strip_politeness(sms.body, lexicon)
    extraction = extract(segment(stripped, lexicon), lexicon)
    confidence = compute_confidence(extraction.matched, extraction.total, confidence_var)

    store.store_original(sms.metadata.event_id, sms.body)
    result = RenewalProcessed(
        metadata=sms.metadata.at_step(STEP_PARSED, last_update=store.clock.now_iso()),
        renew=extraction.renew,
        stop=extraction.stop,
        confidence=confidence,
    )
    # Publication is recorded by the tracking agent observing the topic.
    pool.publish(AGENTS_TOPIC, result.to_doc())
    return result


class RenewalAgent:
    """Worker agent wrapping :func:`process` for dispatched SMS envelopes."""

    qualifier = "RenewalAgent"

    def __init__(
        self,
        lexicon: KeywordLexicon,
        confidence_var: LinguisticVariable,
        store: RunStore,
        pool: MessagePool,
    ):
        self.lexicon = lexicon
        self.confidence_var = confidence_var
        self.store = store
        self.pool = pool

    def handle(self, envelope: Envelope) -> None:
        sms = SmsEvent.from_doc(envelope.payload)
        process(sms, self.lexicon, self.confidence_var, self.store, self.pool)
