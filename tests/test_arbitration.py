import random

import pytest
from hypothesis import given, settings, strategies as st

from smsflow.arbitration import (
    ACTION_FAIL,
    ACTION_FORWARD,
    ACTION_PROCESS_DIRECT,
    CustomerProfile,
    EvaluatorAgent,
    compute_importance,
)
from smsflow.messages import (
    AGENTS_TOPIC,
    DegreeOfConfidence,
)
from smsflow.pool import Envelope, MessagePool
from smsflow.renewal import READING_MEMO_SIZE
from smsflow.store import OutboundSmsGateway, PharmacyClient, RunStore

from conftest import brute_force_activations, drained, terminal_notes


def _msg(confidence, renew=("1",), stop=(), event_id="A1001", step="S001", full_match=False,
         customer_id="C1001"):
    doc = {
        "metadata": {
            "type": "renewal",
            "eventId": event_id,
            "customerId": customer_id,
            "stepId": step,
            "customerEventTime": "2025-01-01T00:00:00Z",
            "lastUpdateTime": "2025-01-01T00:00:00Z",
        },
        "renew": list(renew),
        "stop": list(stop),
        "degreeOfConfidence": confidence.to_doc(),
    }
    if full_match:
        doc["fullMatch"] = True
    return doc


def _profile(tenure, purchases):
    return CustomerProfile(customer_id="C1001", tenure_years=tenure, purchases_12mo=purchases)


FULL = DegreeOfConfidence(1.0, 0.0, 0.0)
LOW = DegreeOfConfidence(0.0, 0.0, 1.0)
MEDIUM = DegreeOfConfidence(0.0, 1.0, 0.0)


def test_new_customer_is_fully_low_importance(default_config):
    importance = compute_importance(0, 0, default_config.importance_system)
    assert importance == {"low": 1.0, "medium": 0.0, "high": 0.0}


def test_veteran_big_spender_is_fully_high_importance(default_config):
    importance = compute_importance(10, 5000, default_config.importance_system)
    assert importance["high"] == 1.0 and importance["low"] == 0.0 and importance["medium"] == 0.0


def test_mid_profile_matches_brute_force_oracle(default_config):
    system = default_config.importance_system
    got = compute_importance(3, 800, system)
    inputs = {
        "tenureYears": system.variables["tenureYears"].fuzzify(3),
        "purchases12mo": system.variables["purchases12mo"].fuzzify(800),
    }
    expected = brute_force_activations(system.block, inputs, system.output_variable)
    assert got == expected
    assert got["medium"] == pytest.approx(5.0 / 6.0)
    assert got["high"] == 0.0 and got["low"] == 0.0


def test_full_confidence_decides_process_direct(default_config):
    decision = _evaluator(default_config).decide(_msg(FULL, full_match=True), _profile(0, 0))
    assert decision.action == ACTION_PROCESS_DIRECT
    assert decision.activations == {}


def test_process_direct_requires_a_full_match(default_config):
    # A ratio of 0.9 fuzzifies to the ratio-1 vector, so the vector alone
    # must not send a message down the direct path.
    for confidence in (FULL, DegreeOfConfidence(1.0 - 1e-12, 0.0, 0.0)):
        decision = _evaluator(default_config).decide(_msg(confidence), _profile(10, 5000))
        assert decision.action == ACTION_FORWARD


@pytest.mark.parametrize(
    "importance,confidence,expected",
    [
        ((10, 5000), DegreeOfConfidence(1.0 - 1e-12, 0.0, 0.0), ACTION_FORWARD),  # (H, ~H)
        ((10, 5000), MEDIUM, ACTION_FORWARD),
        ((10, 5000), LOW, ACTION_FORWARD),
        ((3.0, 900), DegreeOfConfidence(0.9, 0.0, 0.0), ACTION_FORWARD),  # doc high
        ((3.0, 900), MEDIUM, ACTION_FORWARD),
        ((3.0, 900), LOW, ACTION_FAIL),
        ((0, 0), DegreeOfConfidence(0.9, 0.0, 0.0), ACTION_FORWARD),
        ((0, 0), MEDIUM, ACTION_FAIL),
        ((0, 0), LOW, ACTION_FAIL),
    ],
)
def test_crisp_truth_table(default_config, importance, confidence, expected):
    decision = _evaluator(default_config).decide(_msg(confidence), _profile(*importance))
    assert decision.action == expected


def test_all_zero_confidence_fails_conservatively(default_config):
    decision = _evaluator(default_config).decide(
        _msg(DegreeOfConfidence(0.0, 0.0, 0.0)), _profile(0, 0)
    )
    assert decision.action == ACTION_FAIL


def test_raising_importance_never_flips_forward_to_fail(default_config):
    rng = random.Random(41)
    evaluator = _evaluator(default_config)
    for _ in range(100):
        confidence = DegreeOfConfidence(0.0, rng.random(), rng.random())
        tenure, purchases = rng.uniform(0, 12), rng.uniform(0, 4000)
        base = evaluator.decide(_msg(confidence), _profile(tenure, purchases))
        richer = evaluator.decide(
            _msg(confidence),
            _profile(tenure + rng.uniform(0, 10), purchases + rng.uniform(0, 4000)),
        )
        if base.action == ACTION_FORWARD:
            assert richer.action == ACTION_FORWARD


def _wiring(default_config, profiles=None):
    """An evaluator on fresh stores, its run store and a subscription to its topic."""
    store = RunStore()
    pool = MessagePool()
    agents = pool.subscribe(AGENTS_TOPIC)
    evaluator = EvaluatorAgent(
        profiles or {}, default_config.default_profile,
        default_config.importance_system, default_config.action_system,
        store, pool, PharmacyClient(store), OutboundSmsGateway(store),
    )
    return evaluator, store, agents


def _evaluator(default_config):
    return _wiring(default_config)[0]


def test_evaluate_process_direct_calls_pharmacy_per_keyword(default_config):
    evaluator, store, agents = _wiring(default_config)
    decision = evaluator.evaluate(
        _msg(FULL, renew=("1",), stop=("unenroll",), full_match=True), _profile(0, 0)
    )
    assert decision.action == ACTION_PROCESS_DIRECT
    assert [r["keyword"] for r in store.pharmacy.read_all() if r["eventId"] == "A1001"] == ["1", "unenroll"]
    assert terminal_notes(store, "A1001") == ["processed"]
    assert drained(agents) == []  # bypass: never forwarded


def test_evaluate_forward_republishes_at_next_step(default_config):
    evaluator, store, agents = _wiring(default_config)
    evaluator.evaluate(_msg(LOW), _profile(10, 5000))
    docs = drained(agents)
    assert len(docs) == 1
    assert docs[0]["metadata"]["stepId"] == "S002"
    assert docs[0]["renew"] == ["1"]
    assert [r["keyword"] for r in store.pharmacy.read_all() if r["eventId"] == "A1001"] == []
    assert terminal_notes(store, "A1001") == []


def test_evaluate_fail_sends_support_sms(default_config):
    evaluator, store, agents = _wiring(default_config)
    decision = evaluator.evaluate(_msg(LOW), _profile(0, 0))
    assert decision.action == ACTION_FAIL
    sms = store.outbound_sms.read_all()
    assert len(sms) == 1 and sms[0]["kind"] == "contact-support"
    assert terminal_notes(store, "A1001") == ["failed"]
    assert drained(agents) == []


def test_evaluate_rejects_wrong_step(default_config):
    evaluator, _, _ = _wiring(default_config)
    with pytest.raises(ValueError):
        evaluator.evaluate(_msg(LOW, step="S002"), _profile(0, 0))


def test_missing_profile_uses_lowest_default_and_records_warning(default_config):
    evaluator, store, _ = _wiring(default_config, {"C1001": _profile(10, 5000)})
    profile = evaluator.profile_for("C9999", "A1001")
    assert profile.tenure_years == 0 and profile.purchases_12mo == 0
    notes = [(r["agent"], r["note"]) for r in store.get_history("A1001")]
    assert any(a == "CustomerRelationshipAgent" and n.startswith("data-quality") for a, n in notes)


def test_profiles_must_be_nonnegative():
    with pytest.raises(ValueError):
        CustomerProfile(customer_id="C1", tenure_years=-1, purchases_12mo=0)


def test_evaluator_runs_importance_once_per_distinct_profile(default_config, monkeypatch):
    system = default_config.importance_system
    run = system.run
    calls = []

    def counting_run(inputs):
        calls.append(dict(inputs))
        return run(inputs)

    profiles = {
        "C1": CustomerProfile("C1", 10, 5000),
        "C2": CustomerProfile("C2", 10, 5000),
        "C3": CustomerProfile("C3", 3, 800),
    }
    customers = ["C1", "C2", "C3", "C8", "C9", "C1", "C3", "C8"]  # C8 and C9 are unknown
    messages = [_msg(MEDIUM, event_id=f"A{i}", customer_id=c) for i, c in enumerate(customers)]

    expected = []
    for msg in messages:
        profile = profiles.get(msg["metadata"]["customerId"], default_config.default_profile)
        expected.append(_evaluator(default_config).decide(msg, profile))  # a fresh cache each

    monkeypatch.setattr(system, "run", counting_run)
    agent, store, _ = _wiring(default_config, profiles)
    for msg in messages:
        agent.handle(Envelope("agents", 0, msg))
    recorded = [r for r in store.steps.read_all() if r["note"].startswith("decision:")]
    assert [(c["tenureYears"], c["purchases12mo"]) for c in calls] == [(10, 5000), (3, 800), (0, 0)]
    assert agent.importance.cache_info().currsize == 3
    assert agent.importance.cache_info().maxsize == READING_MEMO_SIZE
    assert [r["note"] for r in recorded] == [f"decision:{d.action}" for d in expected]
    assert [(r["activations"], r["importance"]) for r in recorded] == [
        (d.activations, d.importance) for d in expected
    ]
    # Each decision gets its own copies of the cached dicts: mutating a
    # returned one reaches neither a later decision nor a recorded one.
    returned = agent.decide(messages[0], profiles["C1"])
    returned.activations.clear()
    returned.importance["low"] = 9.0
    assert agent.decide(messages[0], profiles["C1"]) == expected[0]
    assert (recorded[0]["activations"], recorded[0]["importance"]) == (
        expected[0].activations, expected[0].importance
    )


_DEGREE = st.floats(0.0, 1.0)
_PROFILES = st.tuples(st.floats(0.0, 15.0), st.floats(0.0, 6000.0))
_CONFIDENCES = st.builds(DegreeOfConfidence, _DEGREE, _DEGREE, _DEGREE)


@settings(max_examples=100, deadline=None)
@given(inputs=st.lists(st.tuples(_PROFILES, _CONFIDENCES), min_size=1, max_size=6))
def test_cached_rule_activations_equal_the_uncached_rule_block(default_config, inputs):
    agent = _evaluator(default_config)
    system = default_config.action_system
    for (tenure, purchases), confidence in inputs + inputs:  # the second round hits
        decision = agent.decide(_msg(confidence), _profile(tenure, purchases))
        importance = compute_importance(tenure, purchases, default_config.importance_system)
        degrees = {"high": confidence.high, "medium": confidence.medium, "low": confidence.low}
        expected = system.infer({"customerImportance": importance, "degreeOfConfidence": degrees})
        assert decision.activations == expected.activations
        assert decision.importance == importance
    info = agent.activations.cache_info()
    assert info.hits >= len(inputs) and info.currsize == info.misses


def test_the_rule_activation_cache_is_bounded(default_config):
    agent = _evaluator(default_config)
    for i in range(READING_MEMO_SIZE + 5):
        agent.decide(_msg(DegreeOfConfidence(0.0, i / 2048, 0.5)), _profile(3, 800))
        assert agent.activations.cache_info().currsize <= READING_MEMO_SIZE
    assert agent.activations.cache_info().currsize == READING_MEMO_SIZE
    assert agent.activations.cache_info().maxsize == READING_MEMO_SIZE


def test_a_caller_that_mutates_a_decision_changes_no_later_decision(default_config):
    agent = _evaluator(default_config)
    first = agent.decide(_msg(MEDIUM), _profile(3, 800))
    expected = (first.action, dict(first.activations), dict(first.importance))
    first.activations[ACTION_FORWARD] = 0.0
    first.activations[ACTION_FAIL] = 1.0
    first.importance.clear()
    again = agent.decide(_msg(MEDIUM), _profile(3, 800))
    assert agent.activations.cache_info().hits == 1
    assert (again.action, again.activations, again.importance) == expected
