import random
import re
import string

import pytest
from hypothesis import example, given, settings, strategies as st

from smsflow.messages import AGENTS_TOPIC
from smsflow.pool import MessagePool
from smsflow.renewal import (
    POLARITIES,
    READING_MEMO_SIZE,
    SEGMENT_DELIMITERS,
    KeywordLexicon,
    LexiconEntry,
    LexiconError,
    RenewalAgent,
    compute_confidence,
    extract,
    segment,
    strip_politeness,
    tokens_of,
)
from smsflow.store import RunStore

from conftest import drained


def _sms(text, event_id="A1001"):
    return {
        "metadata": {
            "type": "renewal",
            "eventId": event_id,
            "customerId": "C1001",
            "stepId": "S000",
            "customerEventTime": "2025-01-01T00:00:00Z",
            "lastUpdateTime": "2025-01-01T00:00:00Z",
        },
        "body": text,
    }


def test_strip_removes_listed_phrases_only(lexicon):
    text = "Thank you for your great service. 1, renew."
    assert strip_politeness(text, lexicon) == "for your great service. 1, renew."


def test_strip_please_prefix(lexicon):
    assert strip_politeness("please 1", lexicon) == "1"


def test_strip_is_identity_without_politeness(lexicon):
    assert strip_politeness("no, 2", lexicon) == "no, 2"


def test_strip_is_whole_phrase_and_case_insensitive(lexicon):
    assert strip_politeness("PLEASE do it, pleased customer", lexicon) == "do it, pleased customer"


def test_segment_splits_sentences_then_tokens(lexicon):
    assert segment("1, unenroll. Thank you", lexicon) == [["1", "unenroll"], ["Thank", "you"]]


def test_segment_of_empty_text(lexicon):
    assert segment("", lexicon) == []


def test_segment_keeps_comma_joined_tokens_together(lexicon):
    assert segment("no, 2", lexicon) == [["no", "2"]]


def _split_then_tokenize(text: str) -> list[list[str]]:
    """The segmentation as first written: split, strip, drop blank, re-split on [\\s,]+."""
    sentences = [p.strip() for p in re.split("[" + re.escape(SEGMENT_DELIMITERS) + "]", text) if p.strip()]
    tokenized = ([t for t in re.split(r"[\s,]+", sentence) if t] for sentence in sentences)
    return [tokens for tokens in tokenized if tokens]


_TEXT_CHARS = (
    [chr(c) for c in range(0x110000) if chr(c).isspace()]
    + list(SEGMENT_DELIMITERS) + [",", "Σ", "ς", "σ", "İ", "i", "A", "a", "1", "'", "-"]
)


@settings(max_examples=300, deadline=None)
@given(text=st.text(alphabet=st.sampled_from(_TEXT_CHARS), max_size=40))
@example(text="ΑΣ.Α")  # lowering the whole text would make this sigma non-final
@example(text="İ\x1c,ς;\u3000")
def test_one_pass_tokenization_equals_split_then_tokenize(text):
    lex = _CONFIG.lexicon
    segments = _split_then_tokenize(text)
    assert segment(text, lex) == segments
    assert tokens_of(text, lex) == {t.lower() for seg in segments for t in seg}


def test_extract_claims_from_pure_segment(lexicon):
    result = extract(segment("1, unenroll", lexicon), lexicon)
    assert result.renew == ["1"] and result.stop == ["unenroll"]
    assert result.matched == 2 and result.total == 2


def test_extract_counts_but_never_claims_from_mixed_segment(lexicon):
    text = "Enroll. I want also to renew my blood pressure medication."
    result = extract(segment(text, lexicon), lexicon)
    assert result.renew == ["enroll"] and result.stop == []
    assert result.matched == 2  # "Enroll" and the embedded "renew"


def test_extract_claims_nothing_from_single_mixed_segment(lexicon):
    text = strip_politeness("Please stop sending me text messages", lexicon)
    result = extract(segment(text, lexicon), lexicon)
    assert result.renew == [] and result.stop == []
    assert result.matched == 1 and result.total == 5


def test_extract_dedupes_keeping_first_occurrence(lexicon):
    result = extract(segment("1, 1. renew, 1", lexicon), lexicon)
    assert result.renew == ["1", "renew"]


def test_full_match_confidence_is_the_exact_literal(confidence_var):
    conf = compute_confidence(3, 3, confidence_var)
    assert (conf.high, conf.medium, conf.low) == (1.0, 0.0, 0.0)


def test_zero_match_confidence_is_low_dominant(confidence_var):
    conf = compute_confidence(0, 6, confidence_var)
    assert conf.low == 1.0 and conf.high == 0.0


def test_empty_message_is_not_a_full_match(lexicon, confidence_var):
    # An empty text still gets the ratio-1 confidence vector, but the
    # evaluator reads fullMatch, which needs at least one token.
    conf = compute_confidence(0, 0, confidence_var)
    assert (conf.high, conf.medium, conf.low) == (1.0, 0.0, 0.0)
    assert not extract([], lexicon).full_match()


def test_partial_vector_shape_serializes_intermediate(confidence_var):
    conf = compute_confidence(1, 2, confidence_var)
    doc = conf.to_doc()
    assert set(doc) == {"high", "intermediate", "low"}
    assert 0.0 <= doc["intermediate"] <= 1.0


def test_bad_counts_rejected(confidence_var):
    with pytest.raises(ValueError):
        compute_confidence(3, 2, confidence_var)


def test_lexicon_requires_unique_canonicals():
    with pytest.raises(LexiconError):
        KeywordLexicon(
            entries=(
                LexiconEntry("1", "1", "renew"),
                LexiconEntry("one", "1", "renew"),
            )
        )


def test_equal_lexicons_hash_equal():
    def build():
        return KeywordLexicon(
            entries=(LexiconEntry("1", "1", "renew"), LexiconEntry("stop", "stop", "stop")),
            politeness=("thank you",),
        )

    first, second = build(), build()
    assert first is not second and first == second
    assert hash(first) == hash(second)
    assert first != KeywordLexicon(entries=first.entries)


def test_lexicon_rejects_bad_polarity_and_pattern():
    with pytest.raises(LexiconError):
        LexiconEntry("1", "1", "maybe")
    with pytest.raises(LexiconError):
        LexiconEntry("([", "broken", "renew")


def test_patterns_are_anchored_to_whole_tokens(lexicon):
    assert lexicon.match_token("unenroll") is not None
    assert lexicon.match_token("enroll") is not None
    # "renewal" must not match the "renew" pattern.
    assert lexicon.match_token("renewal") is None


def _parser(lexicon, confidence_var, store=None):
    store = store if store is not None else RunStore()
    pool = MessagePool()
    sub = pool.subscribe(AGENTS_TOPIC)
    return RenewalAgent(lexicon, confidence_var, store, pool), store, sub


def test_process_full_match_message(lexicon, confidence_var):
    agent, store, sub = _parser(lexicon, confidence_var)
    result = agent.process(_sms("1, unenroll. Thank you"))
    assert result["renew"] == ["1"] and result["stop"] == ["unenroll"]
    assert result["fullMatch"] is True
    assert result["metadata"]["stepId"] == "S001"
    docs = drained(sub)
    assert docs == [result] and docs[0]["degreeOfConfidence"]["high"] == 1.0
    assert store.fetch_original("A1001") == "1, unenroll. Thank you"


def test_process_partial_message_keeps_pure_claims(lexicon, confidence_var):
    agent, _, _ = _parser(lexicon, confidence_var)
    result = agent.process(_sms("Thank you for your great service. 1, renew."))
    assert result["renew"] == ["1", "renew"]
    assert "fullMatch" not in result


def test_process_claims_pure_code_segment(lexicon, confidence_var):
    agent, _, _ = _parser(lexicon, confidence_var)
    result = agent.process(_sms("Could you please execute the following. 1"))
    assert result["renew"] == ["1"] and result["stop"] == []
    assert "fullMatch" not in result


def test_process_is_idempotent_per_event(lexicon, confidence_var):
    agent, _, _ = _parser(lexicon, confidence_var)
    first = agent.process(_sms("1, unenroll"))
    second = agent.process(_sms("1, unenroll"))
    assert first == second


def test_same_text_gets_equal_but_independent_readings(lexicon, confidence_var):
    agent, _, _ = _parser(lexicon, confidence_var)
    text = "1, renew. stop please"
    first = agent.process(_sms(text, "A1"))
    second = agent.process(_sms(text, "A2"))
    assert agent.reading.cache_info().currsize == 1
    assert first["renew"] == second["renew"] == ["1", "renew"]
    assert first["stop"] == second["stop"] == ["stop"]
    assert first["degreeOfConfidence"] == second["degreeOfConfidence"]
    first["renew"].append("enroll")
    first["stop"].clear()
    first["degreeOfConfidence"]["high"] = 0.0
    third = agent.process(_sms(text, "A3"))
    uncached = _parser(lexicon, confidence_var)[0].process(_sms(text, "A3"))
    assert third == uncached


def test_reading_memo_keeps_at_most_its_bound(lexicon, confidence_var):
    agent, _, _ = _parser(lexicon, confidence_var)
    texts = [f"renew {i}" for i in range(READING_MEMO_SIZE + 5)]
    for i, text in enumerate(texts):
        agent.process(_sms(text, f"A{i}"))
    assert agent.reading.cache_info().currsize == READING_MEMO_SIZE
    # The oldest texts went first: the newest is still read from the cache, the first is read again.
    agent.process(_sms(texts[-1], "B1"))
    assert agent.reading.cache_info().hits == 1
    agent.process(_sms(texts[0], "B2"))
    assert agent.reading.cache_info().hits == 1
    assert agent.reading.cache_info().currsize == READING_MEMO_SIZE


def test_store_failure_aborts_publication(lexicon, confidence_var):
    class FailingStore(RunStore):
        def store_original(self, event_id, text):
            raise OSError("disk gone")

    agent, _, _ = _parser(lexicon, confidence_var, FailingStore())
    with pytest.raises(OSError):
        agent.process(_sms("1"))
    assert agent.pool.head(AGENTS_TOPIC) == -1  # nothing published


from smsflow.config import default_config_path, load_config

_CONFIG = load_config(default_config_path())

_WORDS = st.lists(
    st.one_of(
        st.sampled_from(["1", "2", "renew", "enroll", "unenroll", "stop", "please",
                         "thank", "you", "the", "service", "medication", "want"]),
        st.text(alphabet=string.ascii_letters, min_size=1, max_size=8),
    ),
    min_size=0,
    max_size=12,
)


@settings(max_examples=200, deadline=None)
@given(words=_WORDS, seed=st.integers(0, 2**16))
def test_claims_are_sound_and_disjoint(words, seed):
    lex = _CONFIG.lexicon
    rng = random.Random(seed)
    text = ""
    for word in words:
        text += word + rng.choice([" ", ", ", ". ", "! ", "? "])
    stripped = strip_politeness(text, lex)
    result = extract(segment(stripped, lex), lex)

    original_tokens = {t.lower() for seg in segment(text, lex) for t in seg}
    claimed = result.renew + result.stop
    for canonical in claimed:
        assert canonical.lower() in original_tokens  # verbatim occurrence
    assert not (set(result.renew) & set(result.stop))
    assert len(claimed) <= result.matched


@settings(max_examples=200, deadline=None)
@given(words=_WORDS)
@example(words="1 1 1 1 1 1 1 1 1 thank".split())  # ratio 0.9 fuzzifies to the ratio-1 vector
def test_full_match_iff_every_token_matches(words):
    lex = _CONFIG.lexicon
    text = " ".join(words)
    segments = segment(strip_politeness(text, lex), lex)
    result = RenewalAgent(lex, _CONFIG.confidence_var, RunStore(), MessagePool()).process(_sms(text))
    all_match = all(lex.match_token(t) for seg in segments for t in seg)
    assert result.get("fullMatch", False) == (bool(segments) and all_match)


# Literal patterns (plain text) and regex patterns, in mixed case: a regex
# such as "st[o0]p" placed before the literal "stop" must still win.
_PATTERNS = [
    "stop", "STOP", "Stop", "renew", "RENEW", "k", "1", "enroll", "i",
    r"st[o0]p", r"renew(al)?", r"\d", r"[a-z]{2,4}", r"S.*", "K+", "ſtop", "ı",
]
_TOKENS = st.one_of(
    st.sampled_from(_PATTERNS).flatmap(
        lambda p: st.sampled_from([p, p.upper(), p.lower(), p.swapcase(), p.title()])
    ),
    st.text(alphabet="sStTopPrReEnNwWkKiI10ſKıİ.", min_size=1, max_size=6),
)


@settings(max_examples=300, deadline=None)
@given(patterns=st.lists(st.sampled_from(_PATTERNS), max_size=8), token=_TOKENS)
@example(patterns=["stop"], token="ſtop")
@example(patterns=["k"], token="\u212a")
@example(patterns=["renew"], token="RENEW")
@example(patterns=[r"st[o0]p", "stop"], token="STOP")
@example(patterns=["i", "I"], token="ı")
def test_match_token_agrees_with_a_linear_scan(patterns, token):
    lex = KeywordLexicon(tuple(
        LexiconEntry(p, f"kw{i}", POLARITIES[i % 2]) for i, p in enumerate(patterns)
    ))
    expected = next((e for e in lex.entries if e.matches(token)), None)
    assert lex.match_token(token) is expected
