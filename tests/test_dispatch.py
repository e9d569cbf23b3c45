import random

import pytest
import yaml
from hypothesis import example, given, settings, strategies as st

from smsflow.dispatch import (
    AgentRegistry,
    DispatchConfigError,
    Dispatcher,
    MetadataFilter,
    ServiceRule,
    load_rules_from_data,
)
from smsflow.pool import MessagePool
from smsflow.store import RunStore

from conftest import terminal_notes

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


def load_rules(config_text: str) -> list[ServiceRule]:
    """Parse a standalone services YAML (``services.rules[*]``) into rule objects."""
    try:
        data = yaml.safe_load(config_text)
    except yaml.YAMLError as exc:
        raise DispatchConfigError(f"invalid YAML: {exc}") from exc
    if not isinstance(data, dict) or "services" not in data:
        raise DispatchConfigError("missing top-level 'services' section")
    return load_rules_from_data(data["services"])


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
    assert terminal_notes(store, "A1") == ["unrouted"]


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


def get_path(doc, path):
    """Reference lookup for MetadataFilter: None when any hop is missing or not a dict."""
    node = doc
    for part in path.split("."):
        if not isinstance(node, dict) or part not in node:
            return None
        node = node[part]
    return node


def test_get_path_walks_nested_dicts():
    doc = {"metadata": {"type": "renewal", "stepId": "S001"}}
    assert get_path(doc, "metadata.type") == "renewal"
    assert get_path(doc, "metadata.missing") is None
    assert get_path(doc, "metadata.type.deeper") is None
    assert get_path(doc, "nope") is None


_KEYS = st.sampled_from(["metadata", "stepId", "a"])
_VALUES = ["S001", "1", "true"]
_DOCS = st.recursive(
    st.one_of(st.none(), st.integers(0, 2), st.booleans(), st.sampled_from(_VALUES),
              st.lists(st.sampled_from(_VALUES), max_size=2)),
    lambda children: st.dictionaries(_KEYS, children, max_size=3),
    max_leaves=12,
)
_CONDITIONS = st.lists(
    st.tuples(st.lists(_KEYS, min_size=1, max_size=3).map(".".join), st.sampled_from(_VALUES)),
    min_size=1,
    max_size=3,
)


@settings(max_examples=300, deadline=None)
@given(conditions=_CONDITIONS, doc=_DOCS)
def test_metadata_filter_agrees_with_get_path(conditions, doc):
    expected = all(get_path(doc, key) == value for key, value in conditions)
    assert MetadataFilter(tuple(conditions)).matches(doc) == expected


class _Ordered:
    """Agent that notes its qualifier in a shared list each time it runs."""

    def __init__(self, qualifier, log):
        self.qualifier = qualifier
        self.log = log

    def handle(self, envelope):
        self.log.append(self.qualifier)


_QUALIFIERS = st.sampled_from(["Q0", "Q1", "Q2", "Track"])
# Few paths and values, so that rules on different paths match one payload;
# "metadata" reads a dict and "metadata.stepId.a" walks through a string.
_RULE_CONDITIONS = st.lists(
    st.tuples(
        st.sampled_from(["metadata.stepId", "metadata.type", "a"] * 2
                        + ["metadata", "metadata.stepId.a"]),
        st.sampled_from(_VALUES[:2]),
    ),
    min_size=1,
    max_size=2,
)
_LEAF = st.sampled_from(_VALUES[:2])
_ROUTABLE = st.fixed_dictionaries(
    {"metadata": st.fixed_dictionaries({"stepId": _LEAF, "type": _LEAF}), "a": _LEAF}
)


@settings(max_examples=300, deadline=None)
@given(
    rules=st.lists(st.tuples(_QUALIFIERS, _RULE_CONDITIONS), max_size=6),
    always_on=st.lists(st.sampled_from(["Q0", "Track"]), max_size=3),
    docs=st.lists(st.one_of(_ROUTABLE, _DOCS), min_size=1, max_size=4),
)
@example(  # rules on two first paths, interleaved in declaration order
    rules=[("Q0", [("a", "S001")]), ("Q1", [("metadata.stepId", "S001")]), ("Q2", [("a", "S001")])],
    always_on=[],
    docs=[{"a": "S001", "metadata": {"stepId": "S001"}}],
)
@example(  # an always-on agent that a rule names too: it runs once, and routes
    rules=[("Track", [("metadata.stepId", "S001")]), ("Q0", [("metadata.stepId", "S001")]),
           ("Track", [("a", "1")])],
    always_on=["Track"],
    docs=[{"metadata": {"eventId": "A1", "stepId": "S001"}, "a": "1"},
          {"metadata": {"eventId": "A2", "stepId": "1"}, "a": "1"}],
)
@example(  # one qualifier in several rules, with and without further conditions
    rules=[("Q1", [("a", "S001"), ("metadata.type", "1")]), ("Q2", [("a", "S001")]),
           ("Q1", [("a", "S001")]), ("Q1", [("a", "S001")]), ("Q2", [("metadata.type", "1")])],
    always_on=[],
    docs=[{"a": "S001", "metadata": {"type": "1"}}, {"a": "S001", "metadata": {"type": "true"}}],
)
@example(  # a value no rule matches: an event id gets the unrouted step
    rules=[("Q0", [("metadata.stepId", "S001")])],
    always_on=["Track"],
    docs=[{"metadata": {"eventId": "A1", "stepId": "1"}}, {"metadata": {"stepId": "1"}}],
)
def test_dispatch_invokes_what_a_loop_over_every_filter_would(rules, always_on, docs):
    rules = [ServiceRule(f"R{i}", q, tuple(c)) for i, (q, c) in enumerate(rules)]
    log = []
    agents = [_Ordered(q, log) for q in ("Q0", "Q1", "Q2", "Track")]
    dispatcher, _, store = _dispatcher(rules, agents, always_on=always_on)
    for doc in docs:
        matched = []
        for rule in rules:
            if MetadataFilter(rule.conditions).matches(doc) and rule.qualifier not in matched:
                matched.append(rule.qualifier)
        first = sorted(set(always_on))
        expected = first + [q for q in matched if q not in first]
        log.clear()
        recorded = len(store.steps)
        assert dispatcher.dispatch(_Envelope(doc)) == set(expected)
        assert log == expected
        event_id = get_path(doc, "metadata.eventId")
        unrouted = [r["eventId"] for r in store.steps.read_all()[recorded:] if r["note"] == "unrouted"]
        assert unrouted == ([event_id] if event_id and not matched else [])


def test_payload_without_metadata_is_dispatched_without_an_unrouted_step():
    rules = [ServiceRule("A", "X", (("metadata.type", "renewal"),))]
    dispatcher, _, store = _dispatcher(rules, [Recorder("X")])
    for payload in ({}, {"metadata": "S001"}, {"type": "renewal"}, "text", None):
        assert dispatcher.dispatch(_Envelope(payload)) == set()
    assert store.steps.read_all() == []
