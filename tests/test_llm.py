import json
import threading
import time
from concurrent.futures import ThreadPoolExecutor

import pytest
import yaml
from fake_chat import chat_models

from smsflow.config import ConfigError, default_config_path, load_config_text
from smsflow.llm import (
    BackendUnavailableError,
    ChatCompletionModel,
    FaultPlan,
    MalformedOutputError,
    ScriptedModel,
    run_llm_stage,
)
from smsflow.messages import (
    AGENTS_TOPIC,
    DegreeOfConfidence,
    LlmExtraction,
    Metadata,
    RenewalProcessed,
)
from smsflow.pool import MessagePool, MetadataFilter
from smsflow.store import RunStore

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
    out = model.extract("1, unenroll. Thank you", lexicon, event_id="A1", faults=firing)
    # "renew" is the first lexicon canonical that does not occur in the text.
    assert out.renew == ["1", "renew"]
    assert out.stop == ["unenroll"]


def test_drop_keyword_fault_removes_a_claim(lexicon):
    model = ScriptedModel("alpha")
    firing = FaultPlan(seed=0, drop_keyword_rate=1.0)
    out = model.extract("1, unenroll", lexicon, event_id="A1", faults=firing)
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
    extraction = LlmExtraction(request=["I want to book a flu shot"], model_id="alpha")
    assert model.judge(original, extraction, lexicon) == 10


def test_judge_fabricated_item_costs_three(lexicon):
    model = ScriptedModel("beta")
    original = "1. I want to book a flu shot"
    extraction = LlmExtraction(
        request=["I want to book a flu shot"],
        complaint=["the pharmacist was rude"],
        model_id="alpha",
    )
    assert model.judge(original, extraction, lexicon) == 7


def test_judge_missed_sentences_cost_two_each(lexicon):
    model = ScriptedModel("beta")
    original = "I want a refill. I need my results"
    extraction = LlmExtraction(model_id="alpha")
    assert model.judge(original, extraction, lexicon) == 6


def test_judge_score_floors_at_one(lexicon):
    model = ScriptedModel("beta")
    original = "a b. c d. e f. g h. i j. k l"
    extraction = LlmExtraction(model_id="alpha")
    assert model.judge(original, extraction, lexicon) == 1


def _s002(event_id="A1001"):
    return RenewalProcessed(
        metadata=Metadata(
            type="renewal",
            event_id=event_id,
            customer_id="C1001",
            step_id="S002",
            customer_event_time="2025-01-01T00:00:00Z",
            last_update_time="2025-01-01T00:00:00Z",
        ),
        renew=["1"],
        stop=[],
        confidence=DegreeOfConfidence(0.0, 0.0, 1.0),
    )


class UnavailableModel:
    model_id = "beta"

    def extract(self, *args, **kwargs):
        raise BackendUnavailableError("offline")


def test_stage_publishes_two_documents(lexicon):
    store, pool = RunStore(), MessagePool()
    store.store_original("A1001", "Could you please do 1")
    sub = pool.subscribe(AGENTS_TOPIC, MetadataFilter((("metadata.stepId", "S003"),)))
    run_llm_stage(_s002(), [ScriptedModel("alpha"), ScriptedModel("beta")],
                  lexicon, FaultPlan(), store, pool)
    docs = [e.payload for e in sub.poll(10)]
    assert [d["model_id"] for d in docs] == ["alpha", "beta"]
    assert all(d["metadata"]["stepId"] == "S003" for d in docs)
    assert all(d["renew"] == ["1"] for d in docs)


def test_stage_needs_exactly_two_models(lexicon):
    store, pool = RunStore(), MessagePool()
    store.store_original("A1001", "1")
    with pytest.raises(ValueError):
        run_llm_stage(_s002(), [ScriptedModel("alpha")], lexicon, FaultPlan(), store, pool)


def test_model_failure_publishes_an_explicit_marker(lexicon):
    store, pool = RunStore(), MessagePool()
    store.store_original("A1001", "Could you please do 1")
    sub = pool.subscribe(AGENTS_TOPIC)
    run_llm_stage(_s002(), [ScriptedModel("alpha"), UnavailableModel()],
                  lexicon, FaultPlan(), store, pool)
    docs = [e.payload for e in sub.poll(10)]
    assert len(docs) == 2
    marker = docs[1]
    assert marker["failed"] is True and marker["model_id"] == "beta"


def test_retry_advances_the_fault_schedule(lexicon):
    # drop fires at attempt 1 for alpha, not at attempt 2 (seed search in suite setup)
    plan = FaultPlan(seed=13, drop_keyword_rate=0.45)
    store, pool = RunStore(), MessagePool()
    store.store_original("A1001", "Could you please do 1")
    sub = pool.subscribe(AGENTS_TOPIC)
    models = [ScriptedModel("alpha"), ScriptedModel("beta")]

    run_llm_stage(_s002(), models, lexicon, plan, store, pool)
    first = [e.payload for e in sub.poll(10)]
    store.record_step("A1001", "S003", "ValidatorAgent", "retry-requested")
    run_llm_stage(_s002(), models, lexicon, plan, store, pool)
    second = [e.payload for e in sub.poll(10)]

    assert first[0]["renew"] == []  # dropped on attempt 1
    assert second[0]["renew"] == ["1"]  # fresh draw on attempt 2
    assert first[1]["renew"] == second[1]["renew"] == ["1"]


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
    docs = run_llm_stage(_s002(), models, lexicon, FaultPlan(), store, pool, executor)
    assert [d["renew"] for d in docs] == [["1"], ["1"]]
    assert not barrier.broken


def test_stage_output_follows_model_order_when_the_second_answers_first(lexicon, executor):
    store, pool = RunStore(), MessagePool()
    store.store_original("A1001", "Could you please do 1")
    sub = pool.subscribe(AGENTS_TOPIC)
    slow, fast = chat_models(lexicon, error=BackendUnavailableError("offline"))
    slow._transport.delay = 0.02
    run_llm_stage(_s002(), [slow, fast], lexicon, FaultPlan(), store, pool, executor)
    assert [e.payload["model_id"] for e in sub.poll(10)] == ["alpha", "beta"]
    notes = [r["note"] for r in store.get_history("A1001")]
    assert notes == ["extraction-failure:alpha: offline", "extraction-failure:beta: offline"]


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
    with pytest.raises(TimeoutError, match="alpha"):
        run_llm_stage(_s002(), models, lexicon, FaultPlan(), store, pool,
                      executor if overlapped else None)
    assert sub.poll(10) == []
    # The overlapped call had ended before the error left the stage.
    assert other.finished.is_set() is overlapped


@pytest.mark.parametrize("overlapped", [False, True])
def test_unexpected_error_of_the_second_model_follows_the_first_document(lexicon, executor, overlapped):
    store, pool = RunStore(), MessagePool()
    store.store_original("A1001", "Could you please do 1")
    sub = pool.subscribe(AGENTS_TOPIC)
    models = [_SlowModel("alpha", delay=0.02), _RaisingModel("beta")]
    with pytest.raises(TimeoutError, match="beta"):
        run_llm_stage(_s002(), models, lexicon, FaultPlan(), store, pool,
                      executor if overlapped else None)
    assert [e.payload["model_id"] for e in sub.poll(10)] == ["alpha"]


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
    assert out.renew == ["1"] and out.model_id == ""


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


def test_http_adapter_judge_parses_score(lexicon):
    model = ChatCompletionModel(
        "gamma", "http://example/v1", "m", transport=_transport_returning("Score: 7")
    )
    assert model.judge("text", LlmExtraction(model_id="other"), lexicon) == 7


def test_http_adapter_judge_rejects_unparseable_reply(lexicon):
    # Scores outside 1..10 are unparseable too.
    for reply in ("no score here", "Score: 0", "Score: 11"):
        model = ChatCompletionModel(
            "gamma", "http://example/v1", "m", transport=_transport_returning(reply)
        )
        with pytest.raises(MalformedOutputError):
            model.judge("text", LlmExtraction(model_id="other"), lexicon)
