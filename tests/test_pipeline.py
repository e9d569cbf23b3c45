"""Wrappers installed on a built pipeline's objects see every call.

Tracers and benchmarks replace methods on the instances after
``build_pipeline`` (``store.record_step = wrapper(store.record_step)``), so
no hot path may bind one of these methods ahead of the call.  Each count a
wrapper sees is checked against what the pipeline did, so a path that
called a method bound at construction would go unseen and fail an equation.

The same wrappers record what each per-key cache of a pipeline answered,
to check it against the uncached function, and count the scheduler's
passes against the budget.
"""
import itertools
import json
import re
from collections import Counter

import pytest

from smsflow.cli import main
from smsflow.config import default_config_path, default_corpus_path, load_config
from smsflow.dispatch import STEP_AGENTS
from smsflow.harness import load_corpus
from smsflow.messages import AGENTS_TOPIC, INCOMING_TOPIC
from smsflow.pipeline import build_pipeline
from smsflow.renewal import READING_MEMO_SIZE
from smsflow.store import read_jsonl


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

    # The downstream dispatcher is polled on every pass, the upstream one
    # exactly on the passes where downstream had nothing; every pass but the
    # last, quiescent one moves one envelope.
    steps = calls["scheduler.step"]
    upstream, downstream = (dispatcher.name for dispatcher in dispatchers)
    assert calls[f"{downstream}.drain_one"] == calls[f"{downstream}.poll"] == steps > 0
    idle = sum(1 for _, _, result in drains[downstream] if not result)
    assert calls[f"{upstream}.drain_one"] == calls[f"{upstream}.poll"] == idle > 0
    invoked = Counter()
    for dispatcher in dispatchers:
        name = dispatcher.name
        progressed = sum(1 for _, _, result in drains[name] if result)
        assert calls[f"{name}.dispatch"] == progressed > 0
        for (envelope,), _, _ in dispatches[name]:
            invoked[STEP_AGENTS[envelope.payload["metadata"]["stepId"]]] += 1
    assert steps == sum(calls[f"{d.name}.dispatch"] for d in dispatchers) + 1
    assert set(invoked) == set(agents)
    assert {qualifier: calls[qualifier] for qualifier in agents} == dict(invoked)


def test_a_started_event_finishes_before_the_next_reply_is_parsed(tmp_path):
    # Each pass takes from the most downstream queue that has an envelope,
    # so at most one half-finished event waits and events end in arrival order.
    pipeline = build_pipeline(
        load_config(default_config_path()), seed=1, add_keyword_rate=0.1, drop_keyword_rate=0.1,
        run_dir=tmp_path,
    )
    [agents] = [d.subscription for d in pipeline.scheduler.sources if d.subscription.topic == AGENTS_TOPIC]
    try:
        events = [pipeline.ingest(e["phone"], e["text"]) for e in load_corpus(default_corpus_path()) * 20]
        ingested = len(pipeline.store.steps)
        depths = []
        while pipeline.scheduler.step():
            depths.append(len(agents))
        assert not pipeline.pending_events()
    finally:
        pipeline.close()

    assert max(depths) == 1
    event_ids = [event.metadata.event_id for event in events if event is not None]
    assert len(event_ids) > 100
    run = [record["eventId"] for record in read_jsonl(tmp_path / "steps.jsonl")][ingested:]
    assert [event_id for event_id, _ in itertools.groupby(run)] == event_ids


def test_the_sources_expose_every_agent_and_method_a_tracer_wraps():
    # benchmarks/bench_trace.py finds the agents and methods it wraps only
    # through these names; a renamed one would leave its counters at 0.
    pipeline = build_pipeline(load_config(default_config_path()))
    try:
        sources = pipeline.scheduler.sources
        dispatchers = [source for source in sources if hasattr(source, "registry")]
        assert dispatchers == sources
        reached = {}
        for source in sources:
            reached.update(source.registry.agents)
            for method in (source.subscription.poll, source.drain_one, source.dispatch):
                assert callable(method)
        assert set(reached) >= set(STEP_AGENTS.values())
        for qualifier in reached:
            assert callable(reached[qualifier].handle)
    finally:
        pipeline.close()


def test_each_topic_of_the_pipeline_has_one_consumer():
    pipeline = build_pipeline(load_config(default_config_path()))
    try:
        topics = [source.subscription.topic for source in pipeline.scheduler.sources]
        assert sorted(topics) == sorted((INCOMING_TOPIC, AGENTS_TOPIC))
        for topic in topics:
            with pytest.raises(ValueError, match=re.escape(f"topic {topic!r} already has a consumer")):
                pipeline.pool.subscribe(topic)
    finally:
        pipeline.close()


def test_the_demo_run_step_log_is_numbered_and_each_history_is_its_subsequence():
    pipeline = _demo_pipeline()
    _run_demo(pipeline)
    store = pipeline.store
    log = store.steps.read_all()
    assert [record["seq"] for record in log] == list(range(1, len(log) + 1))
    event_ids = {record["eventId"] for record in log}
    assert len(event_ids) > 1
    for event_id in event_ids:
        expected = [record for record in log if record["eventId"] == event_id]
        history = store.steps_of(event_id)
        assert len(history) == len(expected)
        assert all(got is want for got, want in zip(history, expected))


def _caches(pipeline) -> dict[str, tuple[object, str]]:
    """Every per-key cache of a pipeline, as (owner, attribute) by name."""
    agents = pipeline.scheduler.sources[1].registry.agents
    evaluator, router = agents["EvaluatorAgent"], agents["RouterAgent"]
    caches = {
        "parser reading": (agents["RenewalAgent"], "reading"),
        "importance": (evaluator, "importance"),
        "rule activations": (evaluator, "activations"),
        "stop risk": (agents["ValidatorAgent"].risk, "assess_keyword"),
        "routing": (router, "routing"),
        "proposal": (router, "proposal"),
    }
    for model in agents["LlmAgent"].models:
        caches[f"{model.model_id} reading"] = (model, "reading")
        caches[f"{model.model_id} score"] = (model, "score")
    caches["canonicals in text"] = (agents["ValidatorAgent"], "canonicals_of")
    return caches


def _demo_pipeline():
    return build_pipeline(
        load_config(default_config_path()), seed=1, add_keyword_rate=0.1, drop_keyword_rate=0.1
    )


def _run_demo(pipeline, times: int = 1) -> None:
    try:
        for _ in range(times):
            for entry in load_corpus(default_corpus_path()):
                pipeline.ingest(entry["phone"], entry["text"])
        assert pipeline.run_to_quiescence()
    finally:
        pipeline.close()


def test_every_cached_answer_of_the_demo_run_equals_the_uncached_function():
    pipeline = _demo_pipeline()
    caches, calls = {}, {}
    for name, (owner, attr) in _caches(pipeline).items():
        caches[name], calls[name] = getattr(owner, attr), []
        _wrap(owner, attr, Counter(), name, calls[name])
    _run_demo(pipeline, times=2)  # the second pass finds every key cached

    for name, cache in caches.items():
        info = cache.cache_info()
        assert info.hits > 0 and info.misses > 0, name
        assert info.hits + info.misses == len(calls[name])
        assert info.currsize <= info.maxsize == READING_MEMO_SIZE
        for args, kwargs, answer in calls[name]:
            assert cache.__wrapped__(*args, **kwargs) == answer, name


def test_two_pipelines_share_no_cache():
    first, second = _demo_pipeline(), _demo_pipeline()
    caches = {name: getattr(*where) for name, where in _caches(first).items()}
    others = {name: getattr(*where) for name, where in _caches(second).items()}
    assert not {id(c) for c in caches.values()} & {id(c) for c in others.values()}
    _run_demo(first)
    second.close()
    assert all(c.cache_info().currsize > 0 for c in caches.values())
    assert all(c.cache_info().currsize == 0 for c in others.values())


def test_the_budget_counts_every_pass_and_quiescence_is_decided_without_one(tmp_path):
    config = load_config(default_config_path())
    corpus = load_corpus(default_corpus_path())
    finished = []
    for budget in range(1, 60):
        pipeline = build_pipeline(config)
        calls: Counter = Counter()
        _wrap(pipeline.scheduler, "step", calls, "step")
        for entry in corpus:
            pipeline.ingest(entry["phone"], entry["text"])
        try:
            quiescent = pipeline.run_to_quiescence(budget)
        finally:
            pipeline.close()
        assert calls["step"] <= budget
        assert quiescent == (not pipeline.pending_events()), budget
        if quiescent:
            finished.append(budget)
    assert finished == list(range(finished[0], 60))

    # The CLI agrees: one pass fewer than the run needs leaves an event pending.
    for budget, code in ((finished[0] - 1, 3), (finished[0], 0)):
        out = tmp_path / str(budget)
        assert main(["run", "--corpus", str(default_corpus_path()), "--out", str(out),
                     "--budget", str(budget)]) == code
        report = json.loads((out / "report.json").read_text(encoding="utf-8"))
        assert report["quiescent"] is (code == 0)
