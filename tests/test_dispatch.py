import pytest
from hypothesis import example, given, settings, strategies as st

from smsflow.dispatch import STEP_AGENTS, AgentRegistry, Dispatcher
from smsflow.pool import MessagePool
from smsflow.store import RunStore

from conftest import terminal_notes


class Recorder:
    """Agent that notes its qualifier in a shared log each time it runs."""

    def __init__(self, qualifier, log):
        self.qualifier = qualifier
        self.log = log

    def handle(self, envelope):
        self.log.append((self.qualifier, envelope.payload))


class Exploder:
    def handle(self, envelope):
        raise RuntimeError("boom")


def _doc(step, event_id="A1"):
    return {"metadata": {"eventId": event_id, "stepId": step}}


def _dispatcher(**replaced):
    """A dispatcher over a registry of recorders, one per worker.

    ``replaced`` swaps in other agents by qualifier, or drops one given None.
    """
    log = []
    agents = {q: Recorder(q, log) for q in STEP_AGENTS.values()}
    agents.update(replaced)
    agents = {q: agent for q, agent in agents.items() if agent is not None}
    pool, store = MessagePool(), RunStore()
    registry = AgentRegistry(agents)
    dispatcher = Dispatcher("TestDispatcher", registry, pool.subscribe("t"), store)
    return dispatcher, log, pool, store


class _Envelope:
    def __init__(self, payload):
        self.payload = payload


def test_renewal_event_invokes_the_renewal_agent():
    dispatcher, log, _, store = _dispatcher()
    doc = _doc("S000")
    dispatcher.dispatch(_Envelope(doc))
    assert log == [("RenewalAgent", doc)]
    assert store.steps_of("A1") == ()


@pytest.mark.parametrize("step, worker", sorted(STEP_AGENTS.items()))
def test_each_step_reaches_exactly_its_worker_after_the_tracker(step, worker):
    # The worker alone runs: no tracker or other agent precedes it.
    dispatcher, log, _, store = _dispatcher()
    doc = _doc(step)
    dispatcher.dispatch(_Envelope(doc))
    assert log == [(worker, doc)]
    assert store.steps_of("A1") == ()


def test_unresolved_qualifier_fails_at_startup():
    for missing in STEP_AGENTS.values():
        with pytest.raises(ValueError, match=f"no agent registered as {missing}$"):
            _dispatcher(**{missing: None})


def test_agent_failure_is_recorded_and_others_proceed():
    dispatcher, log, _, store = _dispatcher(EvaluatorAgent=Exploder())
    dispatcher.dispatch(_Envelope(_doc("S001")))
    assert log == []
    [record] = store.steps_of("A1")
    assert (record["stepId"], record["agent"], record["note"], record["terminal"]) == (
        "S001", "EvaluatorAgent", "agent-failure: boom", False,
    )
    # The failure is captured: the next envelope reaches its worker.
    dispatcher.dispatch(_Envelope(_doc("S002", "A2")))
    assert [q for q, _ in log] == ["LlmAgent"]
    assert store.steps_of("A2") == ()


def test_unrouted_event_gets_a_terminal_step():
    dispatcher, log, _, store = _dispatcher()
    dispatcher.dispatch(_Envelope(_doc("S009")))
    assert log == []
    assert terminal_notes(store, "A1") == ["unrouted"]
    [record] = store.steps_of("A1")
    assert (record["stepId"], record["agent"]) == ("S009", "TestDispatcher")


def test_drain_one_consumes_in_order():
    dispatcher, log, pool, _ = _dispatcher()
    first, second = _doc("S000", "A1"), _doc("S001", "A2")
    pool.publish("t", first)
    pool.publish("t", second)
    assert dispatcher.drain_one() and dispatcher.drain_one()
    assert not dispatcher.drain_one()
    assert log == [("RenewalAgent", first), ("EvaluatorAgent", second)]


def test_payload_without_metadata_is_dispatched_without_an_unrouted_step():
    dispatcher, log, _, store = _dispatcher()
    for payload in ({}, {"metadata": "S001"}, {"stepId": "S001"}, {"metadata": {"stepId": ["S001"]}},
                    {"metadata": {"stepId": {"S001": 1}}}, "text", None):
        dispatcher.dispatch(_Envelope(payload))
    assert log == []
    assert len(store.steps) == 0


_STEPS = [*STEP_AGENTS, "S009", ""]
_LEAVES = st.one_of(st.none(), st.integers(0, 2), st.booleans(), st.sampled_from(_STEPS),
                    st.lists(st.sampled_from(_STEPS), max_size=2))
_METADATA = st.one_of(
    _LEAVES,
    st.fixed_dictionaries({}, optional={"eventId": st.sampled_from(["A1", "", None]),
                                        "stepId": _LEAVES}),
)
_DOCS = st.one_of(_LEAVES, st.fixed_dictionaries({}, optional={"metadata": _METADATA}))


@settings(max_examples=300, deadline=None)
@given(doc=_DOCS)
@example(doc={"metadata": {"eventId": "A1", "stepId": ["S001"]}})
@example(doc={"metadata": {"stepId": "S003"}})
def test_dispatch_invokes_only_the_step_worker(doc):
    dispatcher, log, _, store = _dispatcher()
    meta = doc.get("metadata") if isinstance(doc, dict) else None
    meta = meta if isinstance(meta, dict) else {}
    step, event_id = meta.get("stepId"), meta.get("eventId")
    worker = STEP_AGENTS.get(step) if isinstance(step, str) else None
    expected = [worker] if worker else []

    assert dispatcher.dispatch(_Envelope(doc)) is None
    assert log == [(q, doc) for q in expected]
    unrouted = [r["eventId"] for r in store.steps.read_all() if r["note"] == "unrouted"]
    assert unrouted == ([event_id] if event_id and worker is None else [])
