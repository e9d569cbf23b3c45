"""In-process shared message pool.

Named topics number messages with gapless offsets and no timestamps, but keep
no log: ``publish`` appends each envelope to the queue of every live
subscription, and agents pull every envelope from their own queue with
``poll``; choosing what to act on is the dispatcher's job.  An envelope is
freed once every subscription live at its publish has polled it or been
dropped.
Each envelope is one named tuple, shared by every queue it enters.
"""
from __future__ import annotations

import threading
import weakref
from collections import deque
from typing import Any, NamedTuple


class Envelope(NamedTuple):
    """One published message: immutable, positional as ``(topic, offset, payload)``."""

    topic: str
    offset: int
    payload: Any


class Subscription:
    """A single consumer's queue of the envelopes published since it subscribed.

    The pool refers to a subscription weakly, so one the consumer drops stops
    receiving and frees its queue.  Owned by one consumer at a time; the
    pool's lock makes it safe to hand between threads.
    """

    def __init__(self, pool: "MessagePool", topic: str):
        self._pool = pool
        self.topic = topic
        self._queue: deque[Envelope] = deque()

    def __len__(self) -> int:
        """Envelopes waiting to be polled."""
        with self._pool._lock:
            return len(self._queue)

    def poll(self, max_n: int = 1) -> list[Envelope]:
        if max_n < 1:
            raise ValueError("max_n must be >= 1")
        queue = self._queue
        with self._pool._lock:
            if max_n == 1:  # the dispatchers' one-envelope poll
                return [queue.popleft()] if queue else []
            return [queue.popleft() for _ in range(min(max_n, len(queue)))]


class MessagePool:
    """Per topic, the next offset and weak references to its subscriptions.

    Holds no envelope itself; topics auto-create.
    """

    def __init__(self):
        self._next_offset: dict[str, int] = {}
        # Tuples, replaced only under the lock: a subscription collected while
        # ``publish`` walks one leaves a dead reference, which it skips.
        self._subscribers: dict[str, tuple[weakref.ref, ...]] = {}
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
            env = Envelope(topic, offset, payload)
            for ref in self._subscribers.get(topic, ()):
                sub = ref()
                if sub is not None:
                    sub._queue.append(env)
            return offset

    def subscribe(self, topic: str) -> Subscription:
        """New-messages-only subscription; earlier traffic is never replayed."""
        sub = Subscription(self, topic)
        with self._lock:
            live = tuple(r for r in self._subscribers.get(topic, ()) if r() is not None)
            self._subscribers[topic] = (*live, weakref.ref(sub))
        return sub

    def lag(self, sub: Subscription) -> int:
        """Messages the subscription has not yet polled."""
        return len(sub)
