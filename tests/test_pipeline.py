"""Wrappers installed on a built pipeline's objects see every call.

Tracers and benchmarks replace methods on the instances after
``build_pipeline`` (``store.record_step = wrapper(store.record_step)``), so
no hot path may bind one of these methods ahead of the call.  Each count a
wrapper sees is checked against what the pipeline did, so a path that
called a method bound at construction would go unseen and fail an equation.
"""
from collections import Counter

from smsflow.config import default_config_path, default_corpus_path, load_config
from smsflow.harness import load_corpus
from smsflow.pipeline import build_pipeline


def _wrap(obj, attr: str, calls: Counter, name: str, seen=None):
    inner = getattr(obj, attr)

    def wrapper(*args, **kwargs):
        result = inner(*args, **kwargs)
        calls[name] += 1
        if seen is not None:
            seen.append((args, kwargs, result))
        return result

    setattr(obj, attr, wrapper)


def test_instance_wrappers_see_every_hop_of_the_demo_run():
    pipeline = build_pipeline(
        load_config(default_config_path()), seed=1, add_keyword_rate=0.1, drop_keyword_rate=0.1
    )
    calls: Counter = Counter()
    records, drains, dispatches = [], {}, {}
    store = pipeline.store
    _wrap(store, "record_step", calls, "record_step", records)
    _wrap(store.steps, "append", calls, "steps.append")
    _wrap(pipeline.scheduler, "step", calls, "scheduler.step")
    dispatchers = pipeline.scheduler.sources
    agents = {}
    for dispatcher in dispatchers:
        name = dispatcher.name
        drains[name], dispatches[name] = [], []
        _wrap(dispatcher, "drain_one", calls, f"{name}.drain_one", drains[name])
        _wrap(dispatcher, "dispatch", calls, f"{name}.dispatch", dispatches[name])
        _wrap(dispatcher.subscription, "poll", calls, f"{name}.poll")
        agents.update(dispatcher.registry.agents)
    for qualifier, agent in agents.items():
        _wrap(agent, "handle", calls, qualifier)

    try:
        events = [pipeline.ingest(e["phone"], e["text"]) for e in load_corpus(default_corpus_path())]
        assert pipeline.run_to_quiescence()
    finally:
        pipeline.close()

    event_ids = [event.metadata.event_id for event in events if event is not None]
    assert event_ids
    terminals = Counter(record["eventId"] for _, _, record in records if record["terminal"])
    assert terminals == Counter(event_ids)
    assert calls["record_step"] == calls["steps.append"] == len(store.steps) > 0

    steps = calls["scheduler.step"]
    assert steps > 0
    invoked = Counter()
    for dispatcher in dispatchers:
        name = dispatcher.name
        assert calls[f"{name}.drain_one"] == calls[f"{name}.poll"] == steps
        progressed = sum(1 for _, _, result in drains[name] if result)
        assert calls[f"{name}.dispatch"] == progressed > 0
        for _, _, result in dispatches[name]:
            invoked.update(result)
    assert set(invoked) == set(agents)
    assert {qualifier: calls[qualifier] for qualifier in agents} == dict(invoked)
