import random

import pytest

from smsflow.dispatch import (
    AgentRegistry,
    DispatchConfigError,
    Dispatcher,
    ServiceRule,
    load_rules,
)
from smsflow.pool import MessagePool, MetadataFilter
from smsflow.store import RunStore

SERVICES_YAML = """\
services:
  rules:
    - name: DynamicServiceA
      qualifier: RenewalAgent
      conditions:
        - key: "metadata.type"
          value: "renewal"
    - name: DynamicServiceB
      qualifier: ReminderAgent
      conditions:
        - key: "metadata.type"
          value: "reminder"
"""


class Recorder:
    def __init__(self, qualifier):
        self.qualifier = qualifier
        self.seen = []

    def handle(self, envelope):
        self.seen.append(envelope.payload)


class Exploder:
    qualifier = "Exploder"

    def handle(self, envelope):
        raise RuntimeError("boom")


def _doc(**metadata):
    return {"metadata": {"eventId": "A1", **metadata}}


def test_services_yaml_parses_two_rules():
    rules = load_rules(SERVICES_YAML)
    assert rules == [
        ServiceRule("DynamicServiceA", "RenewalAgent", (("metadata.type", "renewal"),)),
        ServiceRule("DynamicServiceB", "ReminderAgent", (("metadata.type", "reminder"),)),
    ]


def test_empty_rules_list_is_allowed():
    assert load_rules("services:\n  rules: []\n") == []


def test_missing_qualifier_rejected():
    text = "services:\n  rules:\n    - name: A\n      conditions: [{key: k, value: v}]\n"
    with pytest.raises(DispatchConfigError):
        load_rules(text)


def test_duplicate_rule_names_rejected():
    text = (
        "services:\n  rules:\n"
        "    - {name: A, qualifier: X, conditions: [{key: k, value: v}]}\n"
        "    - {name: A, qualifier: Y, conditions: [{key: k, value: v}]}\n"
    )
    with pytest.raises(DispatchConfigError):
        load_rules(text)


def test_empty_conditions_rejected():
    text = "services:\n  rules:\n    - {name: A, qualifier: X, conditions: []}\n"
    with pytest.raises(DispatchConfigError):
        load_rules(text)


def test_invalid_yaml_reports_parse_error():
    with pytest.raises(DispatchConfigError):
        load_rules("services:\n  rules:\n    - {name: A, qualifier:\n")


def test_matches_on_type():
    condition = MetadataFilter(load_rules(SERVICES_YAML)[0].conditions)
    assert condition.matches(_doc(type="renewal"))
    assert not condition.matches(_doc(type="reminder"))
    assert not condition.matches({"metadata": {"eventId": "A1"}})


def _dispatcher(rules, agents, always_on=()):
    pool = MessagePool()
    store = RunStore()
    registry = AgentRegistry({a.qualifier: a for a in agents}, always_on=tuple(always_on))
    sub = pool.subscribe("t")
    return Dispatcher("TestDispatcher", rules, registry, sub, store), pool, store


class _Envelope:
    def __init__(self, payload):
        self.payload = payload


def test_renewal_event_invokes_the_renewal_agent():
    rules = load_rules(SERVICES_YAML)
    renewal, reminder = Recorder("RenewalAgent"), Recorder("ReminderAgent")
    dispatcher, _, _ = _dispatcher(rules, [renewal, reminder])
    invoked = dispatcher.dispatch(_Envelope(_doc(type="renewal")))
    assert invoked == {"RenewalAgent"}
    assert len(renewal.seen) == 1 and not reminder.seen


def test_two_matching_rules_invoke_both_agents():
    rules = [
        ServiceRule("A", "X", (("metadata.type", "renewal"),)),
        ServiceRule("B", "Y", (("metadata.type", "renewal"),)),
    ]
    x, y = Recorder("X"), Recorder("Y")
    dispatcher, _, _ = _dispatcher(rules, [x, y])
    assert dispatcher.dispatch(_Envelope(_doc(type="renewal"))) == {"X", "Y"}
    assert len(x.seen) == len(y.seen) == 1


def test_always_on_agent_joins_every_arbitration_dispatch():
    rules = [ServiceRule("Eval", "EvaluatorAgent", (("metadata.stepId", "S001"),))]
    evaluator, tracker = Recorder("EvaluatorAgent"), Recorder("MessageTrackingAgent")
    dispatcher, _, _ = _dispatcher(rules, [evaluator, tracker], always_on=("MessageTrackingAgent",))
    invoked = dispatcher.dispatch(_Envelope(_doc(stepId="S001")))
    assert invoked == {"EvaluatorAgent", "MessageTrackingAgent"}
    # Unmatched step still reaches the tracker.
    invoked = dispatcher.dispatch(_Envelope(_doc(stepId="S009")))
    assert invoked == {"MessageTrackingAgent"}
    assert len(tracker.seen) == 2


def test_unresolved_qualifier_fails_at_startup():
    rules = [ServiceRule("A", "Ghost", (("metadata.type", "renewal"),))]
    with pytest.raises(DispatchConfigError):
        _dispatcher(rules, [Recorder("Other")])


def test_agent_failure_is_recorded_and_others_proceed():
    rules = [
        ServiceRule("A", "Exploder", (("metadata.type", "renewal"),)),
        ServiceRule("B", "X", (("metadata.type", "renewal"),)),
    ]
    x = Recorder("X")
    dispatcher, _, store = _dispatcher(rules, [Exploder(), x])
    invoked = dispatcher.dispatch(_Envelope(_doc(type="renewal")))
    assert invoked == {"Exploder", "X"}
    assert len(x.seen) == 1
    notes = [r["note"] for r in store.get_history("A1")]
    assert any(n.startswith("agent-failure: boom") for n in notes)


def test_unrouted_event_gets_a_terminal_step():
    rules = [ServiceRule("A", "X", (("metadata.type", "renewal"),))]
    dispatcher, _, store = _dispatcher(rules, [Recorder("X")])
    dispatcher.dispatch(_Envelope(_doc(type="reminder")))
    terminal = store.terminal_of("A1")
    assert terminal is not None and terminal["note"] == "unrouted"


def test_drain_one_consumes_in_order():
    rules = [ServiceRule("A", "X", (("metadata.type", "renewal"),))]
    x = Recorder("X")
    dispatcher, pool, _ = _dispatcher(rules, [x])
    pool.publish("t", _doc(type="renewal"))
    pool.publish("t", _doc(type="renewal"))
    assert dispatcher.drain_one() and dispatcher.drain_one()
    assert not dispatcher.drain_one()
    assert len(x.seen) == 2


def test_adding_a_rule_never_removes_matches():
    rng = random.Random(9)
    keys = ["metadata.type", "metadata.stepId", "metadata.customerId"]
    values = ["a", "b", "c"]
    for _ in range(50):
        n = rng.randint(1, 5)
        rules = [
            ServiceRule(
                f"R{i}",
                f"Q{rng.randint(0, 3)}",
                tuple(
                    (rng.choice(keys), rng.choice(values))
                    for _ in range(rng.randint(1, 2))
                ),
            )
            for i in range(n)
        ]
        event = {"metadata": {k.split(".")[1]: rng.choice(values) for k in keys}}
        base = {r.qualifier for r in rules if MetadataFilter(r.conditions).matches(event)}
        extra = ServiceRule("extra", "Qx", ((rng.choice(keys), rng.choice(values)),))
        grown = {r.qualifier for r in rules + [extra] if MetadataFilter(r.conditions).matches(event)}
        assert base <= grown
