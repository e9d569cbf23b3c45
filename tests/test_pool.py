import random
import sys
import threading
import weakref
from concurrent.futures import ThreadPoolExecutor

import pytest

from smsflow.pool import Envelope, MessagePool


def _event(step, n):
    return {"metadata": {"stepId": step, "eventId": f"A{n}"}}


def _polled(sub):
    """Every envelope waiting in ``sub``, oldest first, polled one at a time."""
    return list(iter(sub.poll, None))


def test_first_publish_gets_offset_zero():
    pool = MessagePool()
    assert pool.publish("fresh", {"x": 1}) == 0


def test_sequential_publishes_are_monotone():
    pool = MessagePool()
    assert pool.publish("t", {}) == 0
    assert pool.publish("t", {}) == 1


def test_envelope_is_positional_and_immutable():
    pool = MessagePool()
    sub = pool.subscribe("t")
    pool.publish("t", {"x": 1})
    envelope = sub.poll()
    topic, offset, payload = envelope
    assert (topic, offset, payload) == ("t", 0, {"x": 1})
    assert envelope == Envelope("t", 0, {"x": 1})
    assert (envelope.topic, envelope.offset, envelope.payload) == (topic, offset, payload)
    with pytest.raises(AttributeError):
        envelope.offset = 5


def test_empty_topic_name_rejected():
    with pytest.raises(ValueError):
        MessagePool().publish("", {})


def test_subscription_starts_at_head():
    pool = MessagePool()
    pool.publish("t", _event("S001", 0))
    sub = pool.subscribe("t")
    assert sub.poll() is None
    pool.publish("t", _event("S001", 1))
    assert sub.poll().payload["metadata"]["eventId"] == "A1"
    assert sub.poll() is None


def test_subscribe_then_publish_three_matching_fifo():
    pool = MessagePool()
    sub = pool.subscribe("t")
    for i in range(3):
        pool.publish("t", _event("S001", i))
    assert len(sub) == pool.lag(sub) == 3
    assert [e.offset for e in _polled(sub)] == [0, 1, 2]
    assert len(sub) == 0


def test_caught_up_poll_returns_empty():
    pool = MessagePool()
    sub = pool.subscribe("t")
    assert sub.poll() is None


def test_a_topic_has_one_consumer():
    pool = MessagePool()
    sub = pool.subscribe("t")
    with pytest.raises(ValueError, match="topic 't' already has a consumer"):
        pool.subscribe("t")
    # The refusal leaves the first consumer as it was, and other topics free.
    other = pool.subscribe("u")
    pool.publish("t", _event("S001", 0))
    assert [e.offset for e in _polled(sub)] == [0]
    assert other.poll() is None


def test_interleaved_producers_preserve_per_producer_order():
    pool = MessagePool()
    sub = pool.subscribe("t")
    rng = random.Random(3)
    sent = {"p": [], "q": []}
    counters = {"p": 0, "q": 0}
    for _ in range(40):
        producer = rng.choice(["p", "q"])
        n = counters[producer]
        counters[producer] += 1
        payload = {"metadata": {"stepId": "S001", "eventId": f"{producer}{n}"}, "producer": producer}
        sent[producer].append(f"{producer}{n}")
        pool.publish("t", payload)
    got = _polled(sub)
    for producer in ("p", "q"):
        seen = [e.payload["metadata"]["eventId"] for e in got if e.payload["producer"] == producer]
        assert seen == sent[producer]


def test_concurrent_publishes_are_gapless():
    pool = MessagePool()
    with ThreadPoolExecutor(max_workers=8) as px:
        offsets = list(px.map(lambda i: pool.publish("t", {"i": i}), range(200)))
    assert sorted(offsets) == list(range(200))


def test_concurrent_producers_reach_the_consumer_once_in_order():
    pool = MessagePool()
    sub = pool.subscribe("t")
    producers, per_producer = 4, 300
    offsets = [[] for _ in range(producers)]

    def produce(p):
        for n in range(per_producer):
            offsets[p].append(pool.publish("t", {"producer": p, "n": n}))

    old = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [threading.Thread(target=produce, args=(p,)) for p in range(producers)]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=30)
    finally:
        sys.setswitchinterval(old)
    assert not any(t.is_alive() for t in threads)
    got = _polled(sub)
    # The queue holds each envelope once, in the order its offset was taken.
    assert [e.offset for e in got] == list(range(producers * per_producer))
    for p in range(producers):
        assert [e.offset for e in got if e.payload["producer"] == p] == offsets[p]
        assert [e.payload["n"] for e in got if e.payload["producer"] == p] == list(range(per_producer))


def test_no_message_loss_across_random_interleavings():
    rng = random.Random(17)
    for _ in range(20):
        pool = MessagePool()
        sub = pool.subscribe("t")
        published = []
        delivered = []
        for i in range(rng.randint(5, 40)):
            if rng.random() < 0.7:
                doc = _event(rng.choice(["S001", "S002"]), i)
                pool.publish("t", doc)
                published.append(doc["metadata"]["eventId"])
            else:
                for _ in range(rng.randint(1, 5)):
                    envelope = sub.poll()
                    if envelope is not None:
                        delivered.append(envelope.payload["metadata"]["eventId"])
        delivered.extend(e.payload["metadata"]["eventId"] for e in _polled(sub))
        assert delivered == published


def test_subscription_handoff_between_threads():
    pool = MessagePool()
    sub = pool.subscribe("t")
    for i in range(10):
        pool.publish("t", _event("S001", i))
    got = []
    lock = threading.Lock()

    def drain():
        while (envelope := sub.poll()) is not None:
            with lock:
                got.append(envelope)

    threads = [threading.Thread(target=drain) for _ in range(4)]
    for t in threads:
        t.start()
    for t in threads:
        t.join()
    assert sorted(e.offset for e in got) == list(range(10))


class _Doc(dict):
    """A payload that supports weak references (a plain dict does not)."""


def _published(pool):
    """Publish a fresh payload to topic "t" and return a weak reference to it."""
    doc = _Doc(_event("S001", 0))
    pool.publish("t", doc)
    return weakref.ref(doc)


def test_envelope_is_freed_once_the_only_subscription_polls_it():
    pool = MessagePool()
    sub = pool.subscribe("t")
    ref = _published(pool)
    assert ref() is not None
    assert sub.poll().offset == 0
    assert ref() is None and pool.lag(sub) == 0


def test_topic_without_subscription_holds_nothing_but_counts_offsets():
    pool = MessagePool()
    refs = [_published(pool) for _ in range(3)]
    assert all(ref() is None for ref in refs)
    assert pool.head("t") == 2
