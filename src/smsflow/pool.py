"""In-process shared message pool of point-to-point topics.

Named topics number messages with gapless offsets and no timestamps, but keep
no log.  Each topic has at most one consumer, its subscription: ``publish``
appends the envelope to that subscription's queue, and the consumer pops the
oldest one with ``poll``; choosing what to act on is the dispatcher's job.
An envelope is freed once it is polled, and a topic nobody consumes holds
none.
"""
from __future__ import annotations

import threading
from collections import deque
from typing import Any, NamedTuple


class Envelope(NamedTuple):
    """One published message: immutable, positional as ``(topic, offset, payload)``."""

    topic: str
    offset: int
    payload: Any


class Subscription:
    """The one consumer's queue of the envelopes published to its topic since it subscribed.

    Owned by one consumer at a time; the pool's lock makes it safe to hand
    between threads.
    """

    def __init__(self, pool: "MessagePool", topic: str):
        self._pool = pool
        self.topic = topic
        self._queue: deque[Envelope] = deque()

    def __len__(self) -> int:
        """Envelopes waiting to be polled."""
        with self._pool._lock:
            return len(self._queue)

    def poll(self) -> Envelope | None:
        """The oldest envelope not yet polled, or None when there is none."""
        queue = self._queue
        with self._pool._lock:
            return queue.popleft() if queue else None


class MessagePool:
    """Per topic, the next offset and the queue of its one subscription.

    Holds no envelope itself; topics auto-create.
    """

    def __init__(self):
        self._next_offset: dict[str, int] = {}
        self._queues: dict[str, deque[Envelope]] = {}
        # Nothing called under it takes it again.
        self._lock = threading.Lock()

    def head(self, topic: str) -> int:
        """Offset of the newest message, -1 for an empty or unknown topic."""
        with self._lock:
            return self._next_offset.get(topic, 0) - 1

    def publish(self, topic: str, payload: Any) -> int:
        if not topic:
            raise ValueError("topic name must be nonempty")
        with self._lock:
            offset = self._next_offset.get(topic, 0)
            self._next_offset[topic] = offset + 1
            queue = self._queues.get(topic)
            if queue is not None:
                queue.append(Envelope(topic, offset, payload))
            return offset

    def subscribe(self, topic: str) -> Subscription:
        """The topic's one consumer, from the next publish on; a second one is refused."""
        sub = Subscription(self, topic)
        with self._lock:
            if topic in self._queues:
                raise ValueError(f"topic {topic!r} already has a consumer")
            self._queues[topic] = sub._queue
        return sub

    def lag(self, sub: Subscription) -> int:
        """Messages the subscription has not yet polled."""
        return len(sub)
