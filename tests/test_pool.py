import gc
import random
import sys
import threading
import weakref
from concurrent.futures import ThreadPoolExecutor

import pytest

from smsflow.pool import Envelope, MessagePool


def _event(step, n):
    return {"metadata": {"stepId": step, "eventId": f"A{n}"}}


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
    [envelope] = sub.poll(1)
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
    assert sub.poll(10) == []
    pool.publish("t", _event("S001", 1))
    got = sub.poll(10)
    assert [e.payload["metadata"]["eventId"] for e in got] == ["A1"]


def test_subscribe_then_publish_three_matching_fifo():
    pool = MessagePool()
    sub = pool.subscribe("t")
    for i in range(3):
        pool.publish("t", _event("S001", i))
    got = sub.poll(10)
    assert [e.offset for e in got] == [0, 1, 2]


def test_two_subscriptions_fan_out_independently():
    pool = MessagePool()
    sub_a = pool.subscribe("t")
    sub_b = pool.subscribe("t")
    for i in range(4):
        pool.publish("t", _event("S001", i))
    assert len(sub_a.poll(10)) == 4
    assert len(sub_b.poll(10)) == 4


def test_poll_respects_max_n_and_order():
    pool = MessagePool()
    sub = pool.subscribe("t")
    for i in range(5):
        pool.publish("t", _event("S001", i))
    first = sub.poll(2)
    assert [e.offset for e in first] == [0, 1]
    rest = sub.poll(10)
    assert [e.offset for e in rest] == [2, 3, 4]


def test_caught_up_poll_returns_empty():
    pool = MessagePool()
    sub = pool.subscribe("t")
    assert sub.poll(1) == []


def test_max_n_must_be_positive():
    pool = MessagePool()
    sub = pool.subscribe("t")
    with pytest.raises(ValueError):
        sub.poll(0)


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
    got = sub.poll(100)
    for producer in ("p", "q"):
        seen = [e.payload["metadata"]["eventId"] for e in got if e.payload["producer"] == producer]
        assert seen == sent[producer]


def test_concurrent_publishes_are_gapless():
    pool = MessagePool()
    with ThreadPoolExecutor(max_workers=8) as px:
        offsets = list(px.map(lambda i: pool.publish("t", {"i": i}), range(200)))
    assert sorted(offsets) == list(range(200))


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
                delivered.extend(
                    e.payload["metadata"]["eventId"] for e in sub.poll(rng.randint(1, 5))
                )
        delivered.extend(e.payload["metadata"]["eventId"] for e in sub.poll(1000))
        assert delivered == published


def test_subscription_handoff_between_threads():
    pool = MessagePool()
    sub = pool.subscribe("t")
    for i in range(10):
        pool.publish("t", _event("S001", i))
    got = []
    lock = threading.Lock()

    def drain():
        while True:
            batch = sub.poll(1)
            if not batch:
                return
            with lock:
                got.extend(batch)

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
    assert [e.offset for e in sub.poll(10)] == [0]
    assert ref() is None


def test_envelope_is_held_until_the_slower_subscription_polls_it():
    pool = MessagePool()
    fast = pool.subscribe("t")
    slow = pool.subscribe("t")
    ref = _published(pool)
    assert len(fast.poll(10)) == 1
    assert ref() is not None and pool.lag(slow) == 1
    assert len(slow.poll(10)) == 1
    assert ref() is None and pool.lag(slow) == 0


def test_topic_without_subscription_holds_nothing_but_counts_offsets():
    pool = MessagePool()
    refs = [_published(pool) for _ in range(3)]
    assert all(ref() is None for ref in refs)
    assert pool.head("t") == 2


def test_dropped_subscription_neither_receives_nor_pins_envelopes():
    pool = MessagePool()
    kept = pool.subscribe("t")
    dropped = pool.subscribe("t")
    held = _published(pool)
    del dropped
    gc.collect()
    assert held() is not None  # only the kept subscription still needs it
    kept.poll(10)
    assert held() is None
    later = _published(pool)
    assert [e.offset for e in kept.poll(10)] == [1]
    assert later() is None


def test_concurrent_producers_reach_every_subscription_once_in_order():
    pool = MessagePool()
    subs = [pool.subscribe("t"), pool.subscribe("t")]
    producers, per_producer = 4, 300

    def produce(p):
        for n in range(per_producer):
            pool.publish("t", {"producer": p, "n": n})
            if n % 50 == 0:
                pool.subscribe("t")  # dropped at once, while other threads publish

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
    for sub in subs:
        got = sub.poll(producers * per_producer + 1)
        assert sorted(e.offset for e in got) == list(range(producers * per_producer))
        for p in range(producers):
            assert [e.payload["n"] for e in got if e.payload["producer"] == p] == list(range(per_producer))
