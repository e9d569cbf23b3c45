import json
import random
import re
import threading
from concurrent.futures import ThreadPoolExecutor
from types import SimpleNamespace

import pytest
from fake_chat import chat_models
from hypothesis import example, given, settings, strategies as st

from smsflow.config import default_corpus_path
from smsflow.experts import AvailabilityStore, RouterAgent
from smsflow.harness import load_corpus, run_pipeline
from smsflow.llm import FaultPlan, LlmAgent, ScriptedModel
from smsflow.messages import AGENTS_TOPIC, DegreeOfConfidence
from smsflow.pool import Envelope, MessagePool
from smsflow.renewal import READING_MEMO_SIZE, KeywordLexicon, LexiconEntry, tokens_of
from smsflow.store import OutboundSmsGateway, PharmacyClient, RunStore
from smsflow.validator import (
    EXTRACTION_FAIL,
    EXTRACTION_ROUTE,
    OUTCOME_CONFIRM,
    OUTCOME_FAIL,
    OUTCOME_PROCESS,
    OUTCOME_RETRY,
    REASON_FABRICATED,
    REASON_FAILURE_MARKER,
    REASON_MISSING_RA,
    REASON_NOT_CANONICAL,
    StopRiskAssessor,
    StopRiskInputs,
    ValidatorAgent,
    assess_stop_risk,
    canonicals_in,
    validate_extraction,
    validate_keywords,
)

from conftest import drained, terminal_notes


def _ra(renew=(), stop=(), event_id="A1001"):
    return {
        "metadata": {
            "type": "renewal",
            "eventId": event_id,
            "customerId": "C1001",
            "stepId": "S001",
            "customerEventTime": "2025-01-01T00:00:00Z",
            "lastUpdateTime": "2025-01-01T00:00:00Z",
        },
        "renew": list(renew),
        "stop": list(stop),
        "degreeOfConfidence": DegreeOfConfidence(0.0, 0.0, 1.0).to_doc(),
    }


def _resp(model_id, renew=(), stop=(), complaint=(), request=()):
    """One model's response in an S003 document."""
    return {
        "model_id": model_id, "renew": list(renew), "stop": list(stop),
        "complaint": list(complaint), "request": list(request), "mood": "neutral",
    }


def _failed(model_id):
    """One model's failure marker in an S003 document."""
    return {"model_id": model_id, "failed": True, "reason": "offline"}


def _never_over(keyword):
    return 0.1, False


def _always_over(keyword):
    return 0.9, True


def test_fabricated_keyword_discards_that_response(lexicon):
    ra = _ra(renew=("1",), stop=("unenroll",))
    a = _resp("alpha", renew=("1", "renew"), stop=("unenroll",))
    b = _resp("beta", renew=("1",), stop=("unenroll",))
    in_text = canonicals_in("1, unenroll. Thank you", lexicon)
    verdict, _ = validate_keywords(ra, a, b, in_text, 1, lexicon, _never_over)
    assert verdict["discarded"] == [{"model_id": "alpha", "reason": REASON_FABRICATED}]
    assert verdict["outcome"] == OUTCOME_PROCESS
    assert verdict["accepted"] == {"renew": ["1"], "stop": ["unenroll"]}


def test_agreement_accepts_directly(lexicon):
    ra = _ra(renew=("1",), stop=("unenroll",))
    a = _resp("alpha", renew=("1",), stop=("unenroll",))
    b = _resp("beta", renew=("1",), stop=("unenroll",))
    in_text = canonicals_in("1, unenroll. Thank you", lexicon)
    verdict, _ = validate_keywords(ra, a, b, in_text, 1, lexicon, _never_over)
    assert verdict["outcome"] == OUTCOME_PROCESS and not verdict["discarded"]


def test_chronic_critical_stop_extra_requires_confirmation(lexicon):
    ra = _ra()
    a = _resp("alpha", stop=("stop",))
    b = _resp("beta", stop=("stop",))
    verdict, risk = validate_keywords(
        ra, a, b, canonicals_in("Please stop sending me text messages", lexicon), 1, lexicon, _always_over
    )
    assert verdict["outcome"] == OUTCOME_CONFIRM
    assert verdict["accepted"] == {"renew": [], "stop": ["stop"]}
    assert risk == pytest.approx(0.9)


def test_low_risk_stop_extra_processes(lexicon):
    ra = _ra()
    a = _resp("alpha", stop=("2",))
    b = _resp("beta", stop=("2",))
    verdict, _ = validate_keywords(ra, a, b, canonicals_in("no, 2", lexicon), 1, lexicon, _never_over)
    assert verdict["outcome"] == OUTCOME_PROCESS


def test_renew_extras_are_low_risk_by_fiat(lexicon):
    ra = _ra()
    a = _resp("alpha", renew=("1",))
    b = _resp("beta", renew=("1",))
    verdict, _ = validate_keywords(
        ra, a, b, canonicals_in("Could you please do 1", lexicon), 1, lexicon, _always_over
    )
    assert verdict["outcome"] == OUTCOME_PROCESS  # risk gate never consulted


def test_missing_ra_keyword_discards(lexicon):
    ra = _ra(renew=("1",))
    a = _resp("alpha", renew=())  # dropped the parser's claim
    b = _resp("beta", renew=("1",))
    verdict, _ = validate_keywords(ra, a, b, canonicals_in("1", lexicon), 1, lexicon, _never_over)
    assert [d["reason"] for d in verdict["discarded"]] == [REASON_MISSING_RA]
    assert verdict["accepted"] == {"renew": ["1"], "stop": []}


def test_failure_marker_counts_as_discard(lexicon):
    ra = _ra(renew=("1",))
    a = _failed("alpha")
    b = _resp("beta", renew=("1",))
    verdict, _ = validate_keywords(ra, a, b, canonicals_in("1", lexicon), 1, lexicon, _never_over)
    assert [d["reason"] for d in verdict["discarded"]] == [REASON_FAILURE_MARKER]
    assert verdict["outcome"] == OUTCOME_PROCESS


def test_both_discarded_fails(lexicon):
    ra = _ra(renew=("1",))
    a = _failed("alpha")
    b = _resp("beta", renew=("1", "enroll"))  # "enroll" absent from the text
    verdict, _ = validate_keywords(ra, a, b, canonicals_in("1", lexicon), 1, lexicon, _never_over)
    assert verdict["outcome"] == OUTCOME_FAIL and verdict["accepted"] is None
    assert len(verdict["discarded"]) == 2


def test_survivor_disagreement_retries_then_fails(lexicon):
    ra = _ra()
    a = _resp("alpha", renew=("1",))
    b = _resp("beta", renew=())
    text = "Could you please do 1"
    first, _ = validate_keywords(ra, a, b, canonicals_in(text, lexicon), 1, lexicon, _never_over)
    assert first["outcome"] == OUTCOME_RETRY and first["accepted"] is None
    second, _ = validate_keywords(ra, a, b, canonicals_in(text, lexicon), 2, lexicon, _never_over)
    assert second["outcome"] == OUTCOME_FAIL


def test_occurrence_check_is_whole_token(lexicon):
    # "renewal" contains "renew" but only as a substring; claiming "renew"
    # against this text is a fabrication.
    ra = _ra()
    a = _resp("alpha", renew=("renew",))
    b = _resp("beta", renew=())
    in_text = canonicals_in("my renewal lapsed", lexicon)
    verdict, _ = validate_keywords(ra, a, b, in_text, 1, lexicon, _never_over)
    assert [d["reason"] for d in verdict["discarded"]] == [REASON_FABRICATED]


def test_attempt_must_be_one_or_two(lexicon):
    with pytest.raises(ValueError):
        validate_keywords(_ra(), _resp("alpha"), _resp("beta"), frozenset(), 3, lexicon, _never_over)


def test_verdicts_are_pure(lexicon):
    ra = _ra(renew=("1",))
    a = _resp("alpha", renew=("1",))
    b = _resp("beta", renew=("1",))
    first = validate_keywords(ra, a, b, canonicals_in("1", lexicon), 1, lexicon, _never_over)
    second = validate_keywords(ra, a, b, canonicals_in("1", lexicon), 1, lexicon, _never_over)
    assert first == second


def test_accepted_set_always_covers_ra_claims(lexicon):
    rng = random.Random(29)
    canonicals = ["1", "2", "renew", "enroll", "unenroll", "stop"]
    for _ in range(200):
        ra_renew = [c for c in ("1", "renew", "enroll") if rng.random() < 0.4]
        ra_stop = [c for c in ("2", "unenroll", "stop") if rng.random() < 0.4]
        text = " ".join(canonicals)  # every canonical occurs
        ra = _ra(renew=ra_renew, stop=ra_stop)

        def response(model):
            renew = list(ra_renew) + [c for c in ("1", "renew", "enroll") if rng.random() < 0.3]
            stop = list(ra_stop) + [c for c in ("2", "unenroll", "stop") if rng.random() < 0.3]
            return _resp(model, renew=dict.fromkeys(renew), stop=dict.fromkeys(stop))

        verdict, _ = validate_keywords(
            ra, response("alpha"), response("beta"), canonicals_in(text, lexicon), 1, lexicon, _never_over
        )
        if verdict["outcome"] in (OUTCOME_PROCESS, OUTCOME_CONFIRM):
            assert set(ra_renew) <= set(verdict["accepted"]["renew"])
            assert set(ra_stop) <= set(verdict["accepted"]["stop"])


# -- stop-risk scoring ---------------------------------------------------------


def test_mild_medication_scores_low(default_config):
    crisp, over = assess_stop_risk(
        StopRiskInputs(criticality=0.0, duration_months=1.0, chronic=False),
        0.6,
        default_config.risk_system,
    )
    assert crisp == pytest.approx(0.2, abs=1e-9)
    assert not over


def test_chronic_critical_medication_scores_high(default_config):
    crisp, over = assess_stop_risk(
        StopRiskInputs(criticality=10.0, duration_months=60.0, chronic=True),
        0.6,
        default_config.risk_system,
    )
    assert crisp == pytest.approx(0.8, abs=1e-9)
    assert over


def test_threshold_comparison_is_strict(default_config):
    crisp, _ = assess_stop_risk(
        StopRiskInputs(criticality=0.0, duration_months=1.0, chronic=False),
        0.6,
        default_config.risk_system,
    )
    _, over = assess_stop_risk(
        StopRiskInputs(criticality=0.0, duration_months=1.0, chronic=False),
        crisp,  # threshold exactly equal to the crisp value
        default_config.risk_system,
    )
    assert not over


def test_threshold_outside_output_universe_rejected(default_config):
    with pytest.raises(ValueError):
        assess_stop_risk(
            StopRiskInputs(criticality=0.0, duration_months=1.0, chronic=False),
            2.0,
            default_config.risk_system,
        )


def test_zero_activation_risk_is_conservatively_over(default_config):
    from smsflow.fuzzy import FuzzySystem, parse_ruleblock

    system = default_config.risk_system
    # A block whose single rule can never fire for a non-chronic patient.
    block = parse_ruleblock(
        "RULEBLOCK degenerate\nRULE 1 : IF chronic IS yes THEN stopRisk IS high;\nEND_RULEBLOCK\n"
    )
    degenerate = FuzzySystem(variables=system.variables, block=block, output="stopRisk")
    crisp, over = assess_stop_risk(
        StopRiskInputs(criticality=0.0, duration_months=0.0, chronic=False), 0.6, degenerate
    )
    assert over and crisp == 1.0


def test_risk_is_monotone_in_every_input(default_config):
    rng = random.Random(53)
    for _ in range(150):
        crit = rng.uniform(0, 10)
        months = rng.uniform(0, 100)
        chronic = rng.random() < 0.5
        base, _ = assess_stop_risk(
            StopRiskInputs(crit, months, chronic), 0.6, default_config.risk_system
        )
        bumped_inputs = StopRiskInputs(
            min(10.0, crit + rng.uniform(0, 5)),
            months + rng.uniform(0, 40),
            chronic or rng.random() < 0.5,
        )
        bumped, _ = assess_stop_risk(bumped_inputs, 0.6, default_config.risk_system)
        assert bumped >= base - 1e-9


def test_assessor_falls_back_to_default_profile(default_config):
    assessor = StopRiskAssessor(
        system=default_config.risk_system,
        threshold=default_config.risk_threshold,
        by_keyword=default_config.medication_by_keyword,
        default=default_config.medication_default,
    )
    _, over_known_mild = assessor.assess_keyword("2")
    _, over_unknown = assessor.assess_keyword("mystery")
    assert not over_known_mild
    assert over_unknown  # conservative default fixture


def _assessor(config):
    return StopRiskAssessor(
        config.risk_system, config.risk_threshold,
        config.medication_by_keyword, config.medication_default,
    )


@settings(max_examples=100, deadline=None)
@given(data=st.data())
def test_cached_stop_risk_equals_the_uncached_rules(default_config, data):
    by_keyword = default_config.medication_by_keyword
    keyword = st.one_of(st.sampled_from(sorted(by_keyword)), st.text(max_size=10))
    keywords = data.draw(st.lists(keyword, min_size=1, max_size=8))
    assessor = _assessor(default_config)
    for kw in keywords + keywords:  # the second round hits
        inputs = by_keyword.get(kw, default_config.medication_default)
        assert assessor.assess_keyword(kw) == assess_stop_risk(
            inputs, default_config.risk_threshold, default_config.risk_system
        )
    info = assessor.assess_keyword.cache_info()
    assert info.misses == info.currsize == len(set(keywords))


def test_the_stop_risk_cache_is_bounded_and_its_answers_immutable(default_config):
    assessor = _assessor(default_config)
    for i in range(READING_MEMO_SIZE + 5):
        assessor.assess_keyword(f"unlisted-{i}")
        assert assessor.assess_keyword.cache_info().currsize <= READING_MEMO_SIZE
    info = assessor.assess_keyword.cache_info()
    assert info.currsize == info.maxsize == READING_MEMO_SIZE
    answer = assessor.assess_keyword("2")
    assert type(answer) is tuple and assessor.assess_keyword("2") is answer


def test_duration_must_be_nonnegative():
    with pytest.raises(ValueError):
        StopRiskInputs(criticality=1.0, duration_months=-1.0, chronic=False)


# -- cross-judging --------------------------------------------------------------


class FixedJudge:
    """Gives whatever it judges the score ``by_judge`` holds for its own id."""

    def __init__(self, model_id, by_judge):
        self.model_id = model_id
        self._by_judge = by_judge

    def judge(self, original, extraction, lexicon):
        return self._by_judge[self.model_id]


def _judges(scores):
    """Judges alpha and beta under which each model's reading gets its score in
    ``scores``: each model judges the other's reading."""
    by_judge = {"alpha": scores["beta"], "beta": scores["alpha"]}
    return [FixedJudge("alpha", by_judge), FixedJudge("beta", by_judge)]


def _judged(scores, lexicon, a=None, b=None):
    a = a or _resp("alpha", complaint=("x",))
    b = b or _resp("beta", complaint=("y",))
    models = {judge.model_id: judge for judge in _judges(scores)}
    return validate_extraction("text", a, b, models, lexicon)


def test_sub_five_score_discards_that_extraction(lexicon):
    verdict = _judged({"alpha": 7, "beta": 3}, lexicon)
    assert verdict["outcome"] == EXTRACTION_ROUTE
    assert verdict["chosen_model"] == "alpha"
    assert verdict["chosen"]["complaint"] == ["x"]
    assert verdict["scores"] == {"alpha": 7, "beta": 3}


def test_both_sub_five_fails(lexicon):
    verdict = _judged({"alpha": 2, "beta": 4}, lexicon)
    assert verdict["outcome"] == EXTRACTION_FAIL and verdict["chosen"] is None


def test_tie_goes_to_first_configured_model(lexicon):
    verdict = _judged({"alpha": 8, "beta": 8}, lexicon)
    assert verdict["chosen_model"] == "alpha"


def test_tie_goes_to_the_model_the_stage_document_lists_first(default_config):
    lexicon = default_config.lexicon
    store, pool = RunStore(), MessagePool()
    published = pool.subscribe(AGENTS_TOPIC)
    store.store_original("A1001", "1. I want to book a flu shot")
    parsed = _ra(renew=("1",))
    parsed["metadata"]["stepId"] = "S002"
    models = [ScriptedModel("beta"), ScriptedModel("alpha")]  # configured in this order
    s003 = LlmAgent(models, lexicon, FaultPlan(), store, pool).run(parsed)
    risk = StopRiskAssessor(
        default_config.risk_system, default_config.risk_threshold,
        default_config.medication_by_keyword, default_config.medication_default,
    )
    validator = ValidatorAgent(
        models, lexicon, risk, store, pool, PharmacyClient(store), OutboundSmsGateway(store)
    )
    validator.handle(Envelope(AGENTS_TOPIC, 0, s003))
    [s004] = [doc for doc in drained(published) if doc["metadata"]["stepId"] == "S004"]
    assert s004["extraction"]["scores"] == {"beta": 10, "alpha": 10}
    assert s004["extraction"]["chosen_model"] == "beta"


def test_higher_score_wins_regardless_of_order(lexicon):
    verdict = _judged({"alpha": 6, "beta": 9}, lexicon)
    assert verdict["chosen_model"] == "beta"


def test_failure_marker_scores_one(lexicon):
    verdict = _judged({"alpha": 10, "beta": 10}, lexicon, a=_failed("alpha"))
    assert verdict["scores"]["alpha"] == 1
    assert verdict["chosen_model"] == "beta"


def test_two_failure_markers_fail_without_judging(lexicon):
    a, b = _failed("alpha"), _failed("beta")
    models = {m.model_id: m for m in chat_models(lexicon, error=AssertionError("judged"))}
    with ThreadPoolExecutor(1) as executor:
        verdict = validate_extraction("text", a, b, models, lexicon, executor)
    assert verdict["outcome"] == EXTRACTION_FAIL
    assert verdict["scores"] == {"alpha": 1, "beta": 1}


def test_chosen_extraction_always_clears_the_bar(lexicon):
    rng = random.Random(61)
    for _ in range(100):
        scores = {"alpha": rng.randint(1, 10), "beta": rng.randint(1, 10)}
        verdict = _judged(scores, lexicon)
        if verdict["outcome"] == EXTRACTION_ROUTE:
            assert verdict["scores"][verdict["chosen_model"]] >= 5
        else:
            assert max(scores.values()) < 5


def test_scripted_cross_judging_end_to_end(lexicon):
    alpha, beta = ScriptedModel("alpha"), ScriptedModel("beta")
    original = "1. I want to book a flu shot"
    a = {"model_id": "alpha", **alpha.extract(original, lexicon).to_doc()}
    b = {"model_id": "beta", **beta.extract(original, lexicon).to_doc()}
    verdict = validate_extraction(
        original, a, b, {"alpha": alpha, "beta": beta}, lexicon
    )
    assert verdict["outcome"] == EXTRACTION_ROUTE
    assert verdict["scores"] == {"alpha": 10, "beta": 10}
    assert verdict["chosen_model"] == "alpha"


def test_cross_judging_overlaps_the_two_judge_calls(lexicon):
    original = "1. I want to book a flu shot. The taste is bad"
    a = _resp("alpha", complaint=("The taste is bad",), request=("I want to book a flu shot",))
    b = _resp("beta", request=("I want to book a flu shot",))
    serial = validate_extraction(
        original, a, b, {m.model_id: m for m in chat_models(lexicon)}, lexicon
    )
    # Each judge call waits until the other has started, so serial calls break the barrier.
    barrier = threading.Barrier(2, timeout=5)
    models = {m.model_id: m for m in chat_models(lexicon, barrier=barrier)}
    with ThreadPoolExecutor(1, thread_name_prefix="smsflow-model") as executor:
        verdict = validate_extraction(
            original, a, b, models, lexicon, executor
        )
    assert not barrier.broken
    assert verdict["scores"] == serial["scores"] == {"alpha": 10, "beta": 8}
    assert verdict["chosen_model"] == "alpha"


def _validator(pipeline):
    return pipeline.scheduler.sources[1].registry.agents["ValidatorAgent"]


def _event_state(pipeline):
    """The validator's containers that still hold an ingested event id, by attribute."""
    event_ids = {e.metadata.event_id for e in pipeline.ingested}
    held = {
        name: sorted(event_ids.intersection(value))
        for name, value in vars(_validator(pipeline)).items()
        if isinstance(value, (dict, list, set))
    }
    return {name: ids for name, ids in held.items() if ids}


def test_validator_holds_no_event_state_after_a_run(default_config, monkeypatch):
    corpus = load_corpus(default_corpus_path()) * 400
    result = run_pipeline(
        default_config, corpus, seed=1, add_keyword_rate=0.1, drop_keyword_rate=0.1
    )
    assert result.pending == []
    assert _event_state(result.pipeline) == {}

    # A model error nobody expected stops the stage for every forwarded event.
    def time_out(self, *args, **kwargs):
        raise TimeoutError(f"{self.model_id} timed out")

    monkeypatch.setattr(ScriptedModel, "extract", time_out)
    result = run_pipeline(
        default_config, load_corpus(default_corpus_path()),
        seed=1, add_keyword_rate=0.1, drop_keyword_rate=0.1,
    )
    assert result.pending == ["A1001"] + [f"A{n}" for n in range(1003, 1011)]
    assert _event_state(result.pipeline) == {}


# -- the S004 document of each verdict path --------------------------------------

_FLU_SHOT = "I want to book a flu shot"


def _response(model_id, renew=(), stop=()):
    return _resp(model_id, renew, stop, request=[_FLU_SHOT])


def _handled(
    default_config, responses, *, parsed, text=f"1. {_FLU_SHOT}", attempt=1, scores=None,
    stop_risk=_never_over,
):
    """The payloads the validator publishes for one S003 document, and its store."""
    store, pool = RunStore(), MessagePool()
    published = pool.subscribe(AGENTS_TOPIC)
    store.store_original("A1001", text)
    scores = scores or {"alpha": 8, "beta": 8}
    validator = ValidatorAgent(
        _judges(scores), default_config.lexicon,
        SimpleNamespace(assess_keyword=stop_risk), store, pool,
        PharmacyClient(store), OutboundSmsGateway(store),
    )
    s003 = {
        "metadata": {**parsed["metadata"], "stepId": "S003"},
        "parsed": parsed, "attempt": attempt, "responses": responses,
    }
    validator.handle(Envelope(AGENTS_TOPIC, 0, s003))
    return drained(published), store


def _s004(keywords, extraction):
    return {"metadata": {**_ra()["metadata"], "stepId": "S004"}, "keywords": keywords, "extraction": extraction}


def _chosen(renew=(), stop=()):
    return {"renew": list(renew), "stop": list(stop), "complaint": [], "request": [_FLU_SHOT], "mood": "neutral"}


def _assert_pinned(published, expected):
    """Equal documents with their keys in the same order, so equal bytes."""
    assert published == [expected]
    assert json.dumps(published[0]) == json.dumps(expected)


def test_the_s004_document_of_a_processed_verdict(default_config):
    published, _ = _handled(
        default_config, [_response("alpha", renew=["1"]), _response("beta", renew=["1"])],
        parsed=_ra(renew=["1"]),
    )
    _assert_pinned(published, _s004(
        {"accepted": {"renew": ["1"], "stop": []}, "discarded": [], "outcome": "process", "attempt": 1},
        {"chosen": _chosen(renew=["1"]), "chosen_model": "alpha", "scores": {"alpha": 8, "beta": 8},
         "outcome": "route"},
    ))


def test_the_s004_document_of_a_confirmation(default_config):
    published, store = _handled(
        default_config, [_response("alpha", stop=["stop"]), _response("beta", stop=["stop"])],
        parsed=_ra(), text="Please stop. I want to book a flu shot",
        scores={"alpha": 6, "beta": 9}, stop_risk=_always_over,
    )
    _assert_pinned(published, _s004(
        {"accepted": {"renew": [], "stop": ["stop"]}, "discarded": [], "outcome": "confirm-then-process",
         "attempt": 1},
        {"chosen": _chosen(stop=["stop"]), "chosen_model": "beta", "scores": {"alpha": 6, "beta": 9},
         "outcome": "route"},
    ))
    assert [s["kind"] for s in store.outbound_sms.read_all()] == ["confirm-stop"]


def test_a_retry_republishes_the_parsed_document_at_the_next_attempt(default_config):
    parsed = _ra()
    published, _ = _handled(
        default_config, [_response("alpha", renew=["1"]), _response("beta")], parsed=parsed,
    )
    assert published == [{**_ra(), "attempt": 2}]
    assert parsed == _ra()


def test_the_s004_document_of_a_stage_one_failure(default_config):
    published, store = _handled(
        default_config,
        [_response("alpha", renew=["1", "enroll"]), _response("beta")],
        parsed=_ra(renew=["1"]), attempt=2,
    )
    _assert_pinned(published, _s004(
        {"accepted": None,
         "discarded": [{"model_id": "alpha", "reason": "fabricated-keyword"},
                       {"model_id": "beta", "reason": "missing-ra-keyword"}],
         "outcome": "fail", "attempt": 2},
        None,
    ))
    assert [(s["model_id"], s["reason"]) for s in store.steps.read_all() if "reason" in s] == [
        ("alpha", "fabricated-keyword"), ("beta", "missing-ra-keyword")
    ]


def test_the_s004_document_with_a_failure_marker(default_config):
    published, _ = _handled(
        default_config,
        [_failed("alpha"), _response("beta", renew=["1"])],
        parsed=_ra(renew=["1"]), scores={"alpha": 10, "beta": 7},
    )
    _assert_pinned(published, _s004(
        {"accepted": {"renew": ["1"], "stop": []},
         "discarded": [{"model_id": "alpha", "reason": "failure-marker"}],
         "outcome": "process", "attempt": 1},
        {"chosen": _chosen(renew=["1"]), "chosen_model": "beta", "scores": {"alpha": 1, "beta": 7},
         "outcome": "route"},
    ))


def test_the_s004_document_of_a_stage_two_failure(default_config):
    published, store = _handled(
        default_config, [_response("alpha", renew=["1"]), _response("beta", renew=["1"])],
        parsed=_ra(renew=["1"]), scores={"alpha": 2, "beta": 4},
    )
    _assert_pinned(published, _s004(
        {"accepted": {"renew": ["1"], "stop": []}, "discarded": [], "outcome": "process", "attempt": 1},
        {"chosen": None, "chosen_model": "", "scores": {"alpha": 2, "beta": 4}, "outcome": "fail"},
    ))
    assert store.outbound_sms.read_all() == []  # the router closes a failed verdict


# The four ways a verdict ends failed: the validator sends at most the
# confirm-stop SMS, and the router closes the event with the one
# contact-support SMS once it reads the published S004 document.
@pytest.mark.parametrize("responses, parsed, text, attempt, scores, stop_risk, validator_sms", [
    pytest.param(
        [_response("alpha", renew=["1", "enroll"]), _response("beta")], _ra(renew=["1"]),
        f"1. {_FLU_SHOT}", 2, None, _never_over, [], id="keyword-fail",
    ),
    pytest.param(
        [_response("alpha", renew=["1"]), _response("beta", renew=["1"])], _ra(renew=["1"]),
        f"1. {_FLU_SHOT}", 1, {"alpha": 2, "beta": 4}, _never_over, [], id="extraction-fail",
    ),
    pytest.param(
        [_response("alpha", stop=["stop"]), _response("beta", stop=["stop"])], _ra(),
        "Please stop. I want to book a flu shot", 1, {"alpha": 2, "beta": 4}, _always_over,
        ["confirm-stop"], id="confirm-stop-then-extraction-fail",
    ),
    pytest.param(
        [_resp("alpha"), _resp("beta")], _ra(), "Where is my order", 1, None, _never_over, [],
        id="not-understood",
    ),
])
def test_the_router_sends_the_one_contact_support_sms_of_a_failed_verdict(
    default_config, responses, parsed, text, attempt, scores, stop_risk, validator_sms
):
    published, store = _handled(
        default_config, responses, parsed=parsed, text=text, attempt=attempt, scores=scores,
        stop_risk=stop_risk,
    )
    [s004] = published
    assert [s["kind"] for s in store.outbound_sms.read_all()] == validator_sms
    router = RouterAgent(
        default_config.experts, default_config.documents, AvailabilityStore({}), store,
        OutboundSmsGateway(store),
    )
    router.handle(Envelope(AGENTS_TOPIC, 1, s004))
    assert [s["kind"] for s in store.outbound_sms.read_all()] == [*validator_sms, "contact-support"]
    assert terminal_notes(store, "A1001") == ["failed"]


@pytest.mark.parametrize("text, renew, stop", [
    ("I want my pills", ["pills"], []),  # a word of the text, but no keyword
    ("Unenroll", [], ["Unenroll"]),  # a keyword's spelling, not its canonical
    ("renew", [], ["renew"]),  # a canonical under the other polarity
    ("2", ["2"], []),
])
def test_a_keyword_that_is_no_canonical_of_its_polarity_is_never_applied(default_config, text, renew, stop):
    responses = [_response("alpha", renew, stop), _response("beta", renew, stop)]
    published, store = _handled(default_config, responses, parsed=_ra(), text=text)
    assert published[0]["keywords"]["discarded"] == [
        {"model_id": "alpha", "reason": "non-canonical-keyword"},
        {"model_id": "beta", "reason": "non-canonical-keyword"},
    ]
    assert published[0]["keywords"]["outcome"] == "fail"
    assert published[0]["extraction"] is None
    assert store.pharmacy.read_all() == []
    assert store.outbound_sms.read_all() == []  # the router closes a failed verdict


def test_the_canonical_check_comes_before_the_verbatim_one(lexicon):
    a = _resp("alpha", renew=["pills"])  # neither a canonical nor in the text
    b = _resp("beta", renew=["1"])
    verdict, _ = validate_keywords(_ra(), a, b, canonicals_in("1", lexicon), 1, lexicon, _never_over)
    assert verdict["discarded"] == [{"model_id": "alpha", "reason": REASON_NOT_CANONICAL}]
    assert verdict["accepted"] == {"renew": ["1"], "stop": []}


# -- the keyword check against its set-based reference --------------------------


def _reference_validate_keywords(ra, a, b, original_text, attempt, lexicon, stop_risk):
    """Stage 1 as written with per-call sets and a token set of the whole text:
    the reference the loop-based check must equal."""
    if attempt not in (1, 2):
        raise ValueError(f"attempt must be 1 or 2, got {attempt}")
    text_tokens = tokens_of(original_text, lexicon)
    polarities = lexicon.polarities
    ra_renew, ra_stop = set(ra["renew"]), set(ra["stop"])

    discarded: list[dict] = []
    survivors: list[dict] = []
    for response in (a, b):
        renew, stop = response.get("renew", ()), response.get("stop", ())
        if response.get("failed"):
            reason = REASON_FAILURE_MARKER
        elif not (ra_renew <= set(renew) and ra_stop <= set(stop)):
            reason = REASON_MISSING_RA
        elif any(polarities.get(kw) != p for p, kws in (("renew", renew), ("stop", stop)) for kw in kws):
            reason = REASON_NOT_CANONICAL
        elif any(kw.lower() not in text_tokens for kw in (*renew, *stop)):
            reason = REASON_FABRICATED
        else:
            survivors.append(response)
            continue
        discarded.append({"model_id": response["model_id"], "reason": reason})

    def verdict(accepted, outcome):
        return {"accepted": accepted, "discarded": discarded, "outcome": outcome, "attempt": attempt}

    if not survivors:
        return verdict(None, OUTCOME_FAIL), None
    first = survivors[0]
    if len({(frozenset(r["renew"]), frozenset(r["stop"])) for r in survivors}) > 1:
        return verdict(None, OUTCOME_RETRY if attempt == 1 else OUTCOME_FAIL), None

    risk = None
    outcome = OUTCOME_PROCESS
    for keyword in first["stop"]:
        if keyword not in ra_stop:
            crisp, over = stop_risk(keyword)
            risk = crisp if risk is None else max(risk, crisp)
            if over:
                outcome = OUTCOME_CONFIRM
    return verdict({"renew": first["renew"], "stop": first["stop"]}, outcome), risk


# Canonicals with case-folding traps: "İ" lowers to two code points, "ſ"
# matches "s" under IGNORECASE but lowers to itself, "ς" is a final sigma.
_TRAP_LEXICON = KeywordLexicon(entries=tuple(
    LexiconEntry(pattern=re.escape(canonical), canonical=canonical, polarity=polarity)
    for canonical, polarity in [("İ", "renew"), ("ſ", "renew"), ("Stop", "stop"), ("stop", "stop"),
                                ("ς", "stop"), ("1", "renew")]
))
# Claims a model might make beyond the lexicon's canonicals: other spellings and words.
_NOISE = ["2", "renew", "stop", "STOP", "İ", "i̇", "ſ", "s", "ς", "σ", "pills", "renewal"]
_FILLERS = ["STOP", "S", "Σ", "renewal", "please", "thanks"]


@st.composite
def _stage_one_case(draw, default_lexicon):
    rng = draw(st.randoms(use_true_random=True))
    lexicon = rng.choice([default_lexicon, _TRAP_LEXICON])
    by_polarity = {p: [c for c, q in lexicon.polarities.items() if q == p] for p in ("renew", "stop")}

    def claims(polarity, most):  # duplicates allowed; mostly canonicals of the polarity
        return [rng.choice(by_polarity[polarity]) if rng.random() < 0.9 else rng.choice(_NOISE)
                for _ in range(rng.randint(0, most))]

    ra = _ra(renew=claims("renew", 2), stop=claims("stop", 1))

    def response(model_id):
        if rng.random() < 0.1:
            return _failed(model_id)
        renew, stop = claims("renew", 2), claims("stop", 2)
        if rng.random() < 0.8:  # usually keep the parser's claims
            renew, stop = ra["renew"] + renew, ra["stop"] + stop
        return _resp(model_id, renew=renew, stop=stop)

    a = response("alpha")
    if not a.get("failed") and rng.random() < 0.5:  # agree with a, in any order
        renew, stop = a["renew"], a["stop"]
        b = _resp("beta", renew=rng.sample(renew, len(renew)), stop=rng.sample(stop, len(stop)))
    else:
        b = response("beta")
    # The text holds most claims, some in upper case, among other words.
    claimed = [kw for r in (a, b) for kw in (*r.get("renew", ()), *r.get("stop", ()))]
    words = [kw.upper() if rng.random() < 0.2 else kw for kw in claimed if rng.random() < 0.9]
    words += rng.sample(_FILLERS, rng.randint(0, 3))
    rng.shuffle(words)
    text = "".join(w + rng.choice([" ", ", ", ". ", "! ", "; "]) for w in words)
    risks = {kw: rng.choice([0.2, 0.5, 0.8]) for kw in sorted({*lexicon.polarities, *_NOISE})}
    return lexicon, text, ra, a, b, rng.choice([1, 2]), risks


@settings(max_examples=400, deadline=None)
@given(data=st.data())
def test_the_keyword_check_equals_its_set_based_reference(default_config, data):
    lexicon, text, ra, a, b, attempt, risks = data.draw(_stage_one_case(default_config.lexicon))

    def stop_risk(keyword):  # over the 0.5 threshold or not
        return risks[keyword], risks[keyword] > 0.5

    got = validate_keywords(ra, a, b, canonicals_in(text, lexicon), attempt, lexicon, stop_risk)
    assert got == _reference_validate_keywords(ra, a, b, text, attempt, lexicon, stop_risk)


_TRAP_LETTERS = "İıiIſsSςσΣkK1"


@settings(max_examples=300, deadline=None)
@given(text=st.text(alphabet=_TRAP_LETTERS + " ,.;!\t", max_size=24), data=st.data())
@example(text="ΣΣ.k", data=None)  # lowering the whole text would end the token in σ, not ς
@example(text="İ, ſ", data=None)
def test_the_canonicals_of_a_text_answer_as_its_tokens_do(text, data):
    # Canonicals are drawn from the text's own tokens, their case variants and other words.
    words = re.findall(r"[^\s,.;!]+", text)
    word = st.one_of(st.text(alphabet=_TRAP_LETTERS, min_size=1, max_size=3),
                     *([st.sampled_from(words), st.sampled_from(words).map(str.swapcase)] if words else []))
    canonicals = data.draw(st.lists(word, min_size=1, max_size=6, unique=True)) if data else words
    lexicon = KeywordLexicon(entries=tuple(
        LexiconEntry(pattern=re.escape(c), canonical=c, polarity="renew") for c in canonicals
    ))
    tokens = tokens_of(text, lexicon)
    in_text = canonicals_in(text, lexicon)
    assert all((c.lower() in in_text) == (c.lower() in tokens) for c in canonicals)
    assert in_text <= tokens


def test_the_validator_reads_each_text_once_while_its_cache_holds_it(default_config):
    agent = ValidatorAgent(
        [ScriptedModel("alpha"), ScriptedModel("beta")], default_config.lexicon, _assessor(default_config),
        RunStore(), MessagePool(), PharmacyClient(RunStore()), OutboundSmsGateway(RunStore()),
    )
    for i in range(READING_MEMO_SIZE + 5):
        text = f"{i % 7}, stop"
        assert agent.canonicals_of(text) == canonicals_in(text, default_config.lexicon)
        agent.canonicals_of(f"{i}. renew")
        assert agent.canonicals_of.cache_info().currsize <= READING_MEMO_SIZE
    assert agent.canonicals_of("1, stop") is agent.canonicals_of("1, stop")
    assert type(agent.canonicals_of("1, stop")) is frozenset
