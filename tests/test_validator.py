import random
import threading
from concurrent.futures import ThreadPoolExecutor

import pytest
from fake_chat import chat_models

from smsflow.llm import LlmExtraction, ScriptedModel
from smsflow.messages import DegreeOfConfidence, Metadata, RenewalProcessed
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
    ModelResponse,
    StopRiskAssessor,
    StopRiskInputs,
    assess_stop_risk,
    validate_extraction,
    validate_keywords,
)


def _ra(renew=(), stop=(), event_id="A1001"):
    return RenewalProcessed(
        metadata=Metadata(
            type="renewal",
            event_id=event_id,
            customer_id="C1001",
            step_id="S001",
            customer_event_time="2025-01-01T00:00:00Z",
            last_update_time="2025-01-01T00:00:00Z",
        ),
        renew=list(renew),
        stop=list(stop),
        confidence=DegreeOfConfidence(0.0, 0.0, 1.0),
    )


def _resp(model_id, renew=(), stop=(), complaint=(), request=()):
    return ModelResponse(
        model_id=model_id,
        extraction=LlmExtraction(
            renew=list(renew), stop=list(stop),
            complaint=list(complaint), request=list(request),
            model_id=model_id,
        ),
    )


def _never_over(keyword):
    return 0.1, False


def _always_over(keyword):
    return 0.9, True


def test_fabricated_keyword_discards_that_response(lexicon):
    ra = _ra(renew=("1",), stop=("unenroll",))
    a = _resp("alpha", renew=("1", "renew"), stop=("unenroll",))
    b = _resp("beta", renew=("1",), stop=("unenroll",))
    verdict = validate_keywords(ra, a, b, "1, unenroll. Thank you", 1, lexicon, _never_over)
    assert verdict.discarded == [type(verdict.discarded[0])("alpha", REASON_FABRICATED)]
    assert verdict.outcome == OUTCOME_PROCESS
    assert verdict.accepted == (["1"], ["unenroll"])


def test_agreement_accepts_directly(lexicon):
    ra = _ra(renew=("1",), stop=("unenroll",))
    a = _resp("alpha", renew=("1",), stop=("unenroll",))
    b = _resp("beta", renew=("1",), stop=("unenroll",))
    verdict = validate_keywords(ra, a, b, "1, unenroll. Thank you", 1, lexicon, _never_over)
    assert verdict.outcome == OUTCOME_PROCESS and not verdict.discarded


def test_chronic_critical_stop_extra_requires_confirmation(lexicon):
    ra = _ra()
    a = _resp("alpha", stop=("stop",))
    b = _resp("beta", stop=("stop",))
    verdict = validate_keywords(
        ra, a, b, "Please stop sending me text messages", 1, lexicon, _always_over
    )
    assert verdict.outcome == OUTCOME_CONFIRM
    assert verdict.accepted == ([], ["stop"])
    assert verdict.risk == pytest.approx(0.9)


def test_low_risk_stop_extra_processes(lexicon):
    ra = _ra()
    a = _resp("alpha", stop=("2",))
    b = _resp("beta", stop=("2",))
    verdict = validate_keywords(ra, a, b, "no, 2", 1, lexicon, _never_over)
    assert verdict.outcome == OUTCOME_PROCESS


def test_renew_extras_are_low_risk_by_fiat(lexicon):
    ra = _ra()
    a = _resp("alpha", renew=("1",))
    b = _resp("beta", renew=("1",))
    verdict = validate_keywords(
        ra, a, b, "Could you please do 1", 1, lexicon, _always_over
    )
    assert verdict.outcome == OUTCOME_PROCESS  # risk gate never consulted


def test_missing_ra_keyword_discards(lexicon):
    ra = _ra(renew=("1",))
    a = _resp("alpha", renew=())  # dropped the parser's claim
    b = _resp("beta", renew=("1",))
    verdict = validate_keywords(ra, a, b, "1", 1, lexicon, _never_over)
    assert [d.reason for d in verdict.discarded] == [REASON_MISSING_RA]
    assert verdict.accepted == (["1"], [])


def test_failure_marker_counts_as_discard(lexicon):
    ra = _ra(renew=("1",))
    a = ModelResponse(model_id="alpha", failure="offline")
    b = _resp("beta", renew=("1",))
    verdict = validate_keywords(ra, a, b, "1", 1, lexicon, _never_over)
    assert [d.reason for d in verdict.discarded] == [REASON_FAILURE_MARKER]
    assert verdict.outcome == OUTCOME_PROCESS


def test_both_discarded_fails(lexicon):
    ra = _ra(renew=("1",))
    a = ModelResponse(model_id="alpha", failure="offline")
    b = _resp("beta", renew=("1", "enroll"))  # "enroll" absent from the text
    verdict = validate_keywords(ra, a, b, "1", 1, lexicon, _never_over)
    assert verdict.outcome == OUTCOME_FAIL and verdict.accepted is None
    assert len(verdict.discarded) == 2


def test_survivor_disagreement_retries_then_fails(lexicon):
    ra = _ra()
    a = _resp("alpha", renew=("1",))
    b = _resp("beta", renew=())
    text = "Could you please do 1"
    first = validate_keywords(ra, a, b, text, 1, lexicon, _never_over)
    assert first.outcome == OUTCOME_RETRY and first.accepted is None
    second = validate_keywords(ra, a, b, text, 2, lexicon, _never_over)
    assert second.outcome == OUTCOME_FAIL


def test_occurrence_check_is_whole_token(lexicon):
    # "renewal" contains "renew" but only as a substring; claiming "renew"
    # against this text is a fabrication.
    ra = _ra()
    a = _resp("alpha", renew=("renew",))
    b = _resp("beta", renew=())
    verdict = validate_keywords(ra, a, b, "my renewal lapsed", 1, lexicon, _never_over)
    assert [d.reason for d in verdict.discarded] == [REASON_FABRICATED]


def test_attempt_must_be_one_or_two(lexicon):
    with pytest.raises(ValueError):
        validate_keywords(_ra(), _resp("alpha"), _resp("beta"), "x", 3, lexicon, _never_over)


def test_verdicts_are_pure(lexicon):
    ra = _ra(renew=("1",))
    a = _resp("alpha", renew=("1",))
    b = _resp("beta", renew=("1",))
    first = validate_keywords(ra, a, b, "1", 1, lexicon, _never_over)
    second = validate_keywords(ra, a, b, "1", 1, lexicon, _never_over)
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

        verdict = validate_keywords(
            ra, response("alpha"), response("beta"), text, 1, lexicon, _never_over
        )
        if verdict.outcome in (OUTCOME_PROCESS, OUTCOME_CONFIRM):
            accepted_renew, accepted_stop = verdict.accepted
            assert set(ra_renew) <= set(accepted_renew)
            assert set(ra_stop) <= set(accepted_stop)


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


def test_duration_must_be_nonnegative():
    with pytest.raises(ValueError):
        StopRiskInputs(criticality=1.0, duration_months=-1.0, chronic=False)


# -- cross-judging --------------------------------------------------------------


class FixedJudge:
    def __init__(self, model_id, score_for):
        self.model_id = model_id
        self._score_for = score_for

    def judge(self, original, extraction, lexicon):
        return self._score_for[extraction.model_id]


def _judged(scores, lexicon, a=None, b=None):
    a = a or _resp("alpha", complaint=("x",))
    b = b or _resp("beta", complaint=("y",))
    models = {
        "alpha": FixedJudge("alpha", scores),
        "beta": FixedJudge("beta", scores),
    }
    return validate_extraction("text", a, b, models, ["alpha", "beta"], lexicon, "A1")


def test_sub_five_score_discards_that_extraction(lexicon):
    verdict = _judged({"alpha": 7, "beta": 3}, lexicon)
    assert verdict.outcome == EXTRACTION_ROUTE
    assert verdict.chosen.model_id == "alpha"
    assert verdict.scores == {"alpha": 7, "beta": 3}


def test_both_sub_five_fails(lexicon):
    verdict = _judged({"alpha": 2, "beta": 4}, lexicon)
    assert verdict.outcome == EXTRACTION_FAIL and verdict.chosen is None


def test_tie_goes_to_first_configured_model(lexicon):
    verdict = _judged({"alpha": 8, "beta": 8}, lexicon)
    assert verdict.chosen.model_id == "alpha"


def test_higher_score_wins_regardless_of_order(lexicon):
    verdict = _judged({"alpha": 6, "beta": 9}, lexicon)
    assert verdict.chosen.model_id == "beta"


def test_failure_marker_scores_one(lexicon):
    a = ModelResponse(model_id="alpha", failure="offline")
    verdict = _judged({"alpha": 10, "beta": 10}, lexicon, a=a)
    assert verdict.scores["alpha"] == 1
    assert verdict.chosen.model_id == "beta"


def test_two_failure_markers_fail_without_judging(lexicon):
    a = ModelResponse(model_id="alpha", failure="offline")
    b = ModelResponse(model_id="beta", failure="offline")
    models = {m.model_id: m for m in chat_models(lexicon, error=AssertionError("judged"))}
    with ThreadPoolExecutor(1) as executor:
        verdict = validate_extraction("text", a, b, models, ["alpha", "beta"], lexicon, "A1", executor)
    assert verdict.outcome == EXTRACTION_FAIL
    assert verdict.scores == {"alpha": 1, "beta": 1}


def test_chosen_extraction_always_clears_the_bar(lexicon):
    rng = random.Random(61)
    for _ in range(100):
        scores = {"alpha": rng.randint(1, 10), "beta": rng.randint(1, 10)}
        verdict = _judged(scores, lexicon)
        if verdict.outcome == EXTRACTION_ROUTE:
            assert verdict.scores[verdict.chosen.model_id] >= 5
        else:
            assert max(scores.values()) < 5


def test_scripted_cross_judging_end_to_end(lexicon):
    alpha, beta = ScriptedModel("alpha"), ScriptedModel("beta")
    original = "1. I want to book a flu shot"
    a = ModelResponse("alpha", alpha.extract(original, lexicon))
    b = ModelResponse("beta", beta.extract(original, lexicon))
    verdict = validate_extraction(
        original, a, b, {"alpha": alpha, "beta": beta}, ["alpha", "beta"], lexicon, "A1"
    )
    assert verdict.outcome == EXTRACTION_ROUTE
    assert verdict.scores == {"alpha": 10, "beta": 10}
    assert verdict.chosen.model_id == "alpha"


def test_cross_judging_overlaps_the_two_judge_calls(lexicon):
    original = "1. I want to book a flu shot. The taste is bad"
    a = _resp("alpha", complaint=("The taste is bad",), request=("I want to book a flu shot",))
    b = _resp("beta", request=("I want to book a flu shot",))
    serial = validate_extraction(
        original, a, b, {m.model_id: m for m in chat_models(lexicon)}, ["alpha", "beta"], lexicon
    )
    # Each judge call waits until the other has started, so serial calls break the barrier.
    barrier = threading.Barrier(2, timeout=5)
    models = {m.model_id: m for m in chat_models(lexicon, barrier=barrier)}
    with ThreadPoolExecutor(1, thread_name_prefix="smsflow-model") as executor:
        verdict = validate_extraction(
            original, a, b, models, ["alpha", "beta"], lexicon, "A1", executor
        )
    assert not barrier.broken
    assert verdict.scores == serial.scores == {"alpha": 10, "beta": 8}
    assert verdict.chosen.model_id == "alpha"
