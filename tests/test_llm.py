import json
import os
import subprocess
import sys
import threading
import time
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path

import pytest
import yaml
from fake_chat import FakeChat, chat_models
from hypothesis import given, settings, strategies as st

import smsflow
import smsflow.llm

from smsflow.config import ConfigError, default_config_path, load_config, load_config_text
from smsflow.harness import run_pipeline
from smsflow.llm import (
    BackendUnavailableError,
    ChatCompletionModel,
    FaultPlan,
    LlmAgent,
    MalformedOutputError,
    ScriptedModel,
)
from smsflow.messages import AGENTS_TOPIC, DegreeOfConfidence, LlmExtraction
from smsflow.pool import MessagePool
from smsflow.renewal import READING_MEMO_SIZE, LexiconEntry
from smsflow.store import RunStore

from conftest import drained

MSG1 = (
    "1, unenroll. Thank you for your great service. I just want to know if it is "
    "normal for the medication to taste so bad? I also noticed that my blood "
    "pressure medication has no renewal left. Do I need to call my doctor or can "
    "you renew it for me?"
)


def test_scripted_extraction_of_plain_codes(lexicon):
    model = ScriptedModel("alpha")
    out = model.extract("1, unenroll. Thank you", lexicon)
    assert out.renew == ["1"] and out.stop == ["unenroll"]
    assert out.complaint == [] and out.request == []
    assert out.mood == "positive"


def test_scripted_extraction_claims_keywords_in_mixed_sentences(lexicon):
    model = ScriptedModel("alpha")
    out = model.extract("Please stop sending me text messages", lexicon)
    assert out.stop == ["stop"] and out.renew == []
    assert out.mood == "neutral"


def test_word_keywords_inside_requests_are_read_as_request_text(lexicon):
    model = ScriptedModel("alpha")
    out = model.extract("Enroll. I want also to renew my blood pressure medication.", lexicon)
    assert out.renew == ["enroll"]
    assert out.request == ["I want also to renew my blood pressure medication"]


def test_numeric_codes_are_claimed_even_inside_requests(lexicon):
    model = ScriptedModel("alpha")
    out = model.extract("1 But this time I want to get the medication by next week", lexicon)
    assert out.renew == ["1"]
    assert len(out.request) == 1


def test_full_reading_of_the_long_message(lexicon):
    model = ScriptedModel("alpha")
    out = model.extract(MSG1, lexicon)
    assert out.renew == ["1"] and out.stop == ["unenroll"]
    assert out.complaint == [
        "I just want to know if it is normal for the medication to taste so bad"
    ]
    assert out.request == ["Do I need to call my doctor or can you renew it for me"]
    assert out.mood == "positive"


def test_add_keyword_fault_injects_an_absent_canonical(lexicon):
    model = ScriptedModel("alpha")
    firing = FaultPlan(seed=0, add_keyword_rate=1.0)
    text = "1, unenroll. Thank you"
    out = firing.apply(model.extract(text, lexicon), text, lexicon, "A1", "alpha", 1)
    # "renew" is the first lexicon canonical that does not occur in the text.
    assert out.renew == ["1", "renew"]
    assert out.stop == ["unenroll"]


def test_drop_keyword_fault_removes_a_claim(lexicon):
    model = ScriptedModel("alpha")
    firing = FaultPlan(seed=0, drop_keyword_rate=1.0)
    out = firing.apply(model.extract("1, unenroll", lexicon), "1, unenroll", lexicon, "A1", "alpha", 1)
    assert len(out.renew) + len(out.stop) == 1


def test_fault_schedule_is_deterministic_and_keyed(lexicon):
    plan = FaultPlan(seed=42, add_keyword_rate=0.3, drop_keyword_rate=0.3)
    first = plan.draws("A1001", "alpha", 1)[:2]
    again = plan.draws("A1001", "alpha", 1)[:2]
    assert first == again
    assert plan.draws("A1001", "alpha", 2)[:2] != first or plan.draws("A1002", "alpha", 1)[:2] != first


def test_rates_outside_unit_interval_rejected():
    with pytest.raises(ValueError):
        FaultPlan(add_keyword_rate=1.5)


def test_a_zero_rate_plan_draws_nothing(lexicon, monkeypatch):
    def no_draws(*args, **kwargs):
        raise AssertionError("a fault draw was seeded")

    monkeypatch.setattr(smsflow.llm.random, "Random", no_draws)
    model = ScriptedModel("alpha")
    text = "1, unenroll. Thank you"
    extraction = model.extract(text, lexicon)
    before = extraction.to_doc()
    assert FaultPlan(seed=3).apply(extraction, text, lexicon, "A1", "alpha", 1) is extraction
    assert extraction.to_doc() == before
    with pytest.raises(AssertionError, match="seeded"):  # a nonzero rate still draws
        FaultPlan(seed=3, drop_keyword_rate=0.5).apply(extraction, text, lexicon, "A1", "alpha", 1)


@pytest.mark.parametrize(
    "ids", [["alpha", "alpha"], ["alpha"], ["alpha", "beta", "gamma"]], ids=["duplicate", "one", "three"]
)
def test_config_needs_two_models_with_distinct_ids(ids):
    bundle = yaml.safe_load(default_config_path().read_text(encoding="utf-8"))
    bundle["llm"]["models"] = [{"id": model_id, "backend": "scripted"} for model_id in ids]
    with pytest.raises(ConfigError, match="two models with distinct ids"):
        load_config_text(yaml.safe_dump(bundle))


def test_zero_fault_extraction_is_sound(lexicon):
    import random

    model = ScriptedModel("alpha")
    rng = random.Random(3)
    pool = ["1", "2", "renew", "stop", "unenroll", "enroll", "want", "bad", "the",
            "service", "doctor", "blood"]
    for _ in range(100):
        text = ""
        for _ in range(rng.randint(1, 12)):
            text += rng.choice(pool) + rng.choice([" ", ", ", ". ", "? "])
        out = model.extract(text, lexicon)
        tokens = {t.lower() for t in text.replace(",", " ").replace(".", " ").replace("?", " ").split()}
        for kw in out.keywords():
            assert kw.lower() in tokens


def test_extraction_document_round_trips():
    doc = {
        "renew": ["keyword1", "keyword2"],
        "stop": ["keyword3"],
        "complaint": ["first complaint issue"],
        "request": ["first request", "second request"],
        "mood": "positive",
    }
    assert LlmExtraction.from_doc(doc).to_doc() == doc


def test_judge_perfect_coverage_scores_ten(lexicon):
    model = ScriptedModel("beta")
    original = "1. I want to book a flu shot"
    extraction = LlmExtraction(request=["I want to book a flu shot"])
    assert model.judge(original, extraction, lexicon) == 10


def test_judge_fabricated_item_costs_three(lexicon):
    model = ScriptedModel("beta")
    original = "1. I want to book a flu shot"
    extraction = LlmExtraction(
        request=["I want to book a flu shot"],
        complaint=["the pharmacist was rude"],
    )
    assert model.judge(original, extraction, lexicon) == 7


def test_judge_missed_sentences_cost_two_each(lexicon):
    model = ScriptedModel("beta")
    original = "I want a refill. I need my results"
    extraction = LlmExtraction()
    assert model.judge(original, extraction, lexicon) == 6


def test_judge_score_floors_at_one(lexicon):
    model = ScriptedModel("beta")
    original = "a b. c d. e f. g h. i j. k l"
    extraction = LlmExtraction()
    assert model.judge(original, extraction, lexicon) == 1


# -- per-text caches of the scripted model ------------------------------------

_CACHE_TEXTS = [MSG1, "1, unenroll. Thank you", "Please stop sending me text messages", "2; renew!"]


@pytest.mark.parametrize("rate", [0.0, 0.1, 1.0])
def test_cached_extraction_equals_a_fresh_model_per_call(lexicon, rate):
    faults = FaultPlan(seed=5, add_keyword_rate=rate, drop_keyword_rate=rate)
    model = ScriptedModel("alpha")
    for text in _CACHE_TEXTS:
        for event_id in ("A1", "A2"):
            for attempt in (1, 2):
                got = faults.apply(model.extract(text, lexicon), text, lexicon, event_id, "alpha", attempt)
                fresh = faults.apply(
                    ScriptedModel("alpha").extract(text, lexicon), text, lexicon, event_id, "alpha", attempt
                )
                assert got == fresh
    assert model.reading.cache_info().currsize == len(_CACHE_TEXTS)


def test_mutating_an_extraction_leaves_the_next_one_alone(lexicon):
    model = ScriptedModel("alpha")
    first = model.extract(MSG1, lexicon)
    expected = LlmExtraction.from_doc(first.to_doc())
    for items in (first.renew, first.stop, first.complaint, first.request):
        items.append("added")
    first.renew.clear()
    assert model.extract(MSG1, lexicon) == expected


def test_a_cache_hit_hashes_no_lexicon_entry(lexicon, monkeypatch):
    # The lexicon is part of the reading cache's key; it hashes its entries
    # once, when it is built, not on every lookup.
    model = ScriptedModel("alpha")
    model.extract(MSG1, lexicon)
    entry_hash = LexiconEntry.__hash__
    calls = []

    def counting_hash(entry):
        calls.append(entry)
        return entry_hash(entry)

    monkeypatch.setattr(LexiconEntry, "__hash__", counting_hash)
    model.extract(MSG1, lexicon)
    model.judge(MSG1, LlmExtraction(), lexicon)
    assert model.reading.cache_info().hits == 2
    assert calls == []


def test_scripted_cache_keeps_at_most_its_bound(lexicon):
    model = ScriptedModel("alpha")
    extraction = LlmExtraction(request=["I want it"])
    for i in range(READING_MEMO_SIZE + 5):
        model.extract(f"{i}. I want it", lexicon)
        model.judge(f"{i}. I want it", extraction, lexicon)
        model.judge(f"{i}. I need it", extraction, lexicon)
        assert model.reading.cache_info().currsize <= READING_MEMO_SIZE
        assert model.score.cache_info().currsize <= READING_MEMO_SIZE
    assert model.reading.cache_info().currsize == READING_MEMO_SIZE
    assert model.score.cache_info().currsize == READING_MEMO_SIZE


def test_cached_judgement_equals_a_fresh_models(lexicon):
    model = ScriptedModel("beta")
    extractions = [
        LlmExtraction(request=["Do I need to call my doctor or can you renew it for me"]),
        LlmExtraction(complaint=["I just want to know if it is normal for the medication to taste so bad"]),
        LlmExtraction(complaint=["the pharmacist was rude"], request=["book me"]),
    ]
    for _ in range(2):
        for extraction in extractions:
            fresh = ScriptedModel("beta").judge(MSG1, extraction, lexicon)
            assert model.judge(MSG1, extraction, lexicon) == fresh
    assert model.reading.cache_info().currsize == 1
    assert model.score.cache_info()[:2] == (3, 3)  # hits, misses: the second round hits


_CUE_WORDS = ["bad", "problem", "want", "need", "thank", "great", "terrible", "angry", "you", "the"]


@settings(max_examples=150, deadline=None)
@given(
    words=st.lists(
        st.tuples(
            st.sampled_from(["1", "2", "renew", "enroll", "unenroll", "stop", "RENEW"] + _CUE_WORDS),
            st.sampled_from([" ", ", ", ". ", "! ", "? ", "; "]),
        ),
        max_size=14,
    ),
    rate=st.sampled_from([0.0, 0.5, 1.0]),
)
def test_cached_model_reads_and_judges_like_a_fresh_one(default_config, words, rate):
    lexicon = default_config.lexicon
    text = "".join(word + sep for word, sep in words)
    faults = FaultPlan(seed=7, add_keyword_rate=rate, drop_keyword_rate=rate)
    model = ScriptedModel("alpha", default_config.cues)
    for event_id, attempt in (("A1", 1), ("A1", 2), ("A2", 1)):
        got = faults.apply(model.extract(text, lexicon), text, lexicon, event_id, "alpha", attempt)
        fresh = faults.apply(
            ScriptedModel("alpha", default_config.cues).extract(text, lexicon),
            text, lexicon, event_id, "alpha", attempt,
        )
        assert got == fresh
        for judged in (got, LlmExtraction(complaint=["bad"], request=list(got.complaint))):
            assert model.judge(text, judged, lexicon) == ScriptedModel("beta").judge(text, judged, lexicon)


_SENTENCES = ["I want it", "the taste is bad", "thank you", "Do I need to call my doctor", "1", "stop"]


@settings(max_examples=150, deadline=None)
@given(
    sentences=st.lists(st.sampled_from(_SENTENCES), max_size=4),
    items=st.lists(
        st.tuples(
            st.booleans(),  # complaint or request
            st.one_of(
                st.sampled_from(_SENTENCES).map(lambda s: f"  {s.upper()}!"),
                st.sampled_from(_SENTENCES),
                st.text(alphabet="abIİſς .!", max_size=8),
            ),
        ),
        max_size=5,
    ),
)
def test_a_cached_judgement_equals_a_fresh_models_on_random_items(default_config, sentences, items):
    text = ". ".join(sentences)
    lexicon = default_config.lexicon
    extraction = LlmExtraction(
        complaint=[item for is_complaint, item in items if is_complaint],
        request=[item for is_complaint, item in items if not is_complaint],
    )
    model = ScriptedModel("alpha", default_config.cues)
    first = model.judge(text, extraction, lexicon)
    assert model.judge(text, extraction, lexicon) == first  # a hit
    assert model.score.cache_info()[:2] == (1, 1)
    assert first == ScriptedModel("alpha", default_config.cues).judge(text, extraction, lexicon)


def test_http_model_asks_the_backend_on_every_call(lexicon):
    fake = FakeChat("alpha", lexicon)
    model = ChatCompletionModel("alpha", "http://fake/v1", "fake-alpha", transport=fake)
    first = model.extract(MSG1, lexicon)
    again = model.extract(MSG1, lexicon)
    assert first == again and len(fake.threads) == 2
    assert model.judge(MSG1, first, lexicon) == model.judge(MSG1, first, lexicon)
    assert len(fake.threads) == 4


def _s002(event_id="A1001"):
    return {
        "metadata": {
            "type": "renewal",
            "eventId": event_id,
            "customerId": "C1001",
            "stepId": "S002",
            "customerEventTime": "2025-01-01T00:00:00Z",
            "lastUpdateTime": "2025-01-01T00:00:00Z",
        },
        "renew": ["1"],
        "stop": [],
        "degreeOfConfidence": DegreeOfConfidence(0.0, 0.0, 1.0).to_doc(),
    }


class UnavailableModel:
    model_id = "beta"

    def extract(self, *args, **kwargs):
        raise BackendUnavailableError("offline")


def test_stage_publishes_one_document(lexicon):
    store, pool = RunStore(), MessagePool()
    store.store_original("A1001", "Could you please do 1")
    sub = pool.subscribe(AGENTS_TOPIC)
    parsed = _s002()
    models = [ScriptedModel("alpha"), ScriptedModel("beta")]
    LlmAgent(models, lexicon, FaultPlan(), store, pool).run(parsed)
    [doc] = drained(sub)
    assert doc["metadata"]["stepId"] == "S003" and doc["metadata"]["eventId"] == "A1001"
    assert doc["parsed"] is parsed and doc["attempt"] == 1
    assert [r["model_id"] for r in doc["responses"]] == ["alpha", "beta"]
    assert all(r["renew"] == ["1"] for r in doc["responses"])


def test_the_stage_injects_faults_into_http_models_too(lexicon):
    store, pool = RunStore(), MessagePool()
    store.store_original("A1001", "1, unenroll. Thank you")
    sub = pool.subscribe(AGENTS_TOPIC)
    LlmAgent(chat_models(lexicon), lexicon, FaultPlan(add_keyword_rate=1.0), store, pool).run(_s002())
    [doc] = drained(sub)
    # "renew" is the first lexicon canonical that does not occur in the text.
    assert [(r["model_id"], r["renew"], r["stop"]) for r in doc["responses"]] == [
        ("alpha", ["1", "renew"], ["unenroll"]), ("beta", ["1", "renew"], ["unenroll"]),
    ]


def test_stage_needs_exactly_two_models(lexicon):
    store, pool = RunStore(), MessagePool()
    store.store_original("A1001", "1")
    with pytest.raises(ValueError):
        LlmAgent([ScriptedModel("alpha")], lexicon, FaultPlan(), store, pool).run(_s002())


def test_model_failure_publishes_an_explicit_marker(lexicon):
    store, pool = RunStore(), MessagePool()
    store.store_original("A1001", "Could you please do 1")
    sub = pool.subscribe(AGENTS_TOPIC)
    models = [ScriptedModel("alpha"), UnavailableModel()]
    LlmAgent(models, lexicon, FaultPlan(), store, pool).run(_s002())
    [doc] = drained(sub)
    extraction, marker = doc["responses"]
    assert extraction["model_id"] == "alpha" and "failed" not in extraction
    assert marker == {"model_id": "beta", "failed": True, "reason": "offline"}


def test_retry_advances_the_fault_schedule(lexicon):
    # drop fires at attempt 1 for alpha, not at attempt 2 (seed search in suite setup)
    plan = FaultPlan(seed=13, drop_keyword_rate=0.45)
    store, pool = RunStore(), MessagePool()
    store.store_original("A1001", "Could you please do 1")
    sub = pool.subscribe(AGENTS_TOPIC)
    models = [ScriptedModel("alpha"), ScriptedModel("beta")]

    LlmAgent(models, lexicon, plan, store, pool).run(_s002())
    [first] = drained(sub)
    LlmAgent(models, lexicon, plan, store, pool).run({**_s002(), "attempt": 2})
    [second] = drained(sub)

    assert (first["attempt"], second["attempt"]) == (1, 2)
    (alpha1, beta1), (alpha2, beta2) = first["responses"], second["responses"]
    assert alpha1["renew"] == []  # dropped on attempt 1
    assert alpha2["renew"] == ["1"]  # fresh draw on attempt 2
    assert beta1["renew"] == beta2["renew"] == ["1"]


# -- overlapped model calls ----------------------------------------------------


@pytest.fixture()
def executor():
    with ThreadPoolExecutor(1, thread_name_prefix="smsflow-model") as executor:
        yield executor


def test_stage_overlaps_the_two_extractions(lexicon, executor):
    # Each call waits until the other has started, so serial calls break the barrier.
    barrier = threading.Barrier(2, timeout=5)
    models = chat_models(lexicon, barrier=barrier)
    store, pool = RunStore(), MessagePool()
    store.store_original("A1001", "Could you please do 1")
    doc = LlmAgent(models, lexicon, FaultPlan(), store, pool, executor).run(_s002())
    assert [r["renew"] for r in doc["responses"]] == [["1"], ["1"]]
    assert not barrier.broken


def test_stage_output_follows_model_order_when_the_second_answers_first(lexicon, executor):
    store, pool = RunStore(), MessagePool()
    store.store_original("A1001", "Could you please do 1")
    sub = pool.subscribe(AGENTS_TOPIC)
    slow, fast = chat_models(lexicon, error=BackendUnavailableError("offline"))
    slow._transport.delay = 0.02
    LlmAgent([slow, fast], lexicon, FaultPlan(), store, pool, executor).run(_s002())
    [doc] = drained(sub)
    assert [r["model_id"] for r in doc["responses"]] == ["alpha", "beta"]
    history = store.get_history("A1001")
    assert [(r["stepId"], r["note"]) for r in history] == [
        ("S002", "extracting"),
        ("S003", "extraction-failure:alpha: offline"),
        ("S003", "extraction-failure:beta: offline"),
    ]
    assert history[0]["attempt"] == 1


class _RaisingModel:
    def __init__(self, model_id):
        self.model_id = model_id

    def extract(self, *args, **kwargs):
        raise TimeoutError(f"{self.model_id} timed out")


class _SlowModel(ScriptedModel):
    def __init__(self, model_id, delay):
        super().__init__(model_id)
        self.delay = delay
        self.finished = threading.Event()

    def extract(self, *args, **kwargs):
        time.sleep(self.delay)
        self.finished.set()
        return super().extract(*args, **kwargs)


@pytest.mark.parametrize("overlapped", [False, True])
def test_unexpected_error_of_the_first_model_publishes_nothing(lexicon, executor, overlapped):
    store, pool = RunStore(), MessagePool()
    store.store_original("A1001", "Could you please do 1")
    sub = pool.subscribe(AGENTS_TOPIC)
    other = _SlowModel("beta", delay=0.05)
    models = [_RaisingModel("alpha"), other]
    agent = LlmAgent(models, lexicon, FaultPlan(), store, pool, executor if overlapped else None)
    with pytest.raises(TimeoutError, match="alpha"):
        agent.run(_s002())
    assert drained(sub) == []
    # The overlapped call had ended before the error left the stage.
    assert other.finished.is_set() is overlapped


@pytest.mark.parametrize("overlapped", [False, True])
def test_unexpected_error_of_the_second_model_publishes_nothing(lexicon, executor, overlapped):
    store, pool = RunStore(), MessagePool()
    store.store_original("A1001", "Could you please do 1")
    sub = pool.subscribe(AGENTS_TOPIC)
    first = _SlowModel("alpha", delay=0.02)
    models = [first, _RaisingModel("beta")]
    agent = LlmAgent(models, lexicon, FaultPlan(), store, pool, executor if overlapped else None)
    with pytest.raises(TimeoutError, match="beta"):
        agent.run(_s002())
    assert drained(sub) == []
    assert first.finished.is_set()


# -- HTTP adapter seam --------------------------------------------------------


def _transport_returning(*contents):
    replies = list(contents)

    def transport(body):
        return replies.pop(0)

    return transport


def test_http_adapter_parses_a_wellformed_reply(lexicon):
    reply = json.dumps(
        {"renew": ["1"], "stop": [], "complaint": [], "request": [], "mood": "neutral"}
    )
    model = ChatCompletionModel("gamma", "http://example/v1", "m", transport=_transport_returning(reply))
    out = model.extract("1", lexicon)
    assert out == LlmExtraction(renew=["1"])


def test_http_adapter_strips_code_fences(lexicon):
    reply = "```json\n" + json.dumps(
        {"renew": [], "stop": ["2"], "complaint": [], "request": [], "mood": "neutral"}
    ) + "\n```"
    model = ChatCompletionModel("gamma", "http://example/v1", "m", transport=_transport_returning(reply))
    assert model.extract("2", lexicon).stop == ["2"]


def test_http_adapter_reprompts_once_then_fails(lexicon):
    model = ChatCompletionModel(
        "gamma", "http://example/v1", "m",
        transport=_transport_returning("not json", "still not json"),
    )
    with pytest.raises(MalformedOutputError):
        model.extract("1", lexicon)


def test_http_adapter_recovers_on_reprompt(lexicon):
    good = json.dumps({"renew": [], "stop": [], "complaint": [], "request": [], "mood": "neutral"})
    model = ChatCompletionModel(
        "gamma", "http://example/v1", "m", transport=_transport_returning("garbage", good)
    )
    assert model.extract("hello", lexicon).mood == "neutral"


_STRING_FIELDS = {"renew": [], "stop": [], "complaint": [], "request": [], "mood": "neutral"}
NON_STRING_REPLIES = [
    {**_STRING_FIELDS, "renew": [1]},
    {**_STRING_FIELDS, "complaint": [None]},
    {**_STRING_FIELDS, "stop": "unenroll"},
    {**_STRING_FIELDS, "mood": 3},
]


@pytest.mark.parametrize("doc", NON_STRING_REPLIES)
def test_http_adapter_rejects_fields_that_are_not_strings(lexicon, doc):
    reply = json.dumps(doc)
    model = ChatCompletionModel(
        "gamma", "http://example/v1", "m", transport=_transport_returning(reply, reply)
    )
    with pytest.raises(MalformedOutputError):
        model.extract("1 unenroll", lexicon)


def test_a_reply_with_a_number_for_a_keyword_still_ends_its_event():
    config = load_config(default_config_path())
    reply = json.dumps(NON_STRING_REPLIES[0])
    models = [
        ChatCompletionModel(spec.model_id, "http://fake/v1", "fake", transport=lambda body: reply)
        for spec in config.model_specs
    ]
    config.build_models = lambda: models
    result = run_pipeline(config, [{"phone": "+15550001", "text": "1 is what I mean"}])
    assert result.pending == []
    [row] = result.report["messages"]
    assert row["outcome"] == "failed" and row["sms"] == ["contact-support"]
    assert [d["reason"] for d in row["discarded"]] == ["failure-marker", "failure-marker"]


def test_http_adapter_judge_parses_score(lexicon):
    model = ChatCompletionModel(
        "gamma", "http://example/v1", "m", transport=_transport_returning("Score: 7")
    )
    assert model.judge("text", LlmExtraction(), lexicon) == 7


@pytest.mark.parametrize(
    "reply, score",
    [("On a scale of 1 to 10, I would give it 8.", 8), ("Score: 7/10", 7), ("8 out of 10", 8)],
)
def test_http_adapter_judge_ignores_the_scale_and_denominator(lexicon, reply, score):
    model = ChatCompletionModel(
        "gamma", "http://example/v1", "m", transport=_transport_returning(reply)
    )
    assert model.judge("text", LlmExtraction(), lexicon) == score


def test_http_adapter_judge_rejects_unparseable_reply(lexicon):
    # Scores outside 1..10, and replies giving two scores, are unparseable too.
    for reply in ("no score here", "Score: 0", "Score: 11", "7 or 8"):
        model = ChatCompletionModel(
            "gamma", "http://example/v1", "m", transport=_transport_returning(reply)
        )
        with pytest.raises(MalformedOutputError):
            model.judge("text", LlmExtraction(), lexicon)


def test_the_http_client_is_imported_only_when_a_model_calls_it():
    # urllib.request pulls in http.client, email and ssl: megabytes of
    # modules that scripted models and injected transports never use.
    env = {**os.environ, "PYTHONPATH": str(Path(smsflow.__file__).parents[1])}
    code = "import sys, smsflow.harness, smsflow.cli; print('urllib.request' in sys.modules)"
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, env=env)
    assert (proc.returncode, proc.stdout.strip()) == (0, "False"), proc.stderr
