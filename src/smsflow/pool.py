"""In-process shared message pool.

Named topics hold append-only logs with gapless offsets and no timestamps.
Subscriptions are independent cursors from the topic head, optionally
filtered by equality tests on metadata paths; agents pull with ``poll``.
"""
from __future__ import annotations

import threading
from dataclasses import dataclass, field
from typing import Any


@dataclass(frozen=True)
class Envelope:
    topic: str
    offset: int
    payload: Any


@dataclass(frozen=True)
class MetadataFilter:
    """Conjunction of string-equality tests on dotted payload paths.

    Each path is split once, at construction.  ``matches`` agrees with
    ``all(messages.get_path(payload, key) == value ...)``: a missing hop or a
    non-dict node reads as None, so that test fails.
    """

    conditions: tuple[tuple[str, str], ...]
    _tests: tuple[tuple[tuple[str, ...], str], ...] = field(
        init=False, repr=False, compare=False
    )

    def __post_init__(self):
        object.__setattr__(
            self, "_tests", tuple((tuple(key.split(".")), value) for key, value in self.conditions)
        )

    def matches(self, payload: Any) -> bool:
        for parts, value in self._tests:
            node = payload
            for part in parts:
                node = node.get(part) if isinstance(node, dict) else None
            if node != value:
                return False
        return True


class Subscription:
    """A single consumer's cursor over one topic.

    Owned by one consumer at a time; the pool's lock makes the cursor safe to
    hand between threads.
    """

    def __init__(self, pool: "MessagePool", topic: str, filter: MetadataFilter | None):
        self._pool = pool
        self.topic = topic
        self._filter = filter
        self.cursor = pool.head(topic) + 1

    def poll(self, max_n: int = 1) -> list[Envelope]:
        if max_n < 1:
            raise ValueError("max_n must be >= 1")
        return self._pool._poll(self, max_n)


class MessagePool:
    """Topic logs plus subscription bookkeeping; topics auto-create."""

    def __init__(self):
        self._topics: dict[str, list[Envelope]] = {}
        self._lock = threading.RLock()

    def head(self, topic: str) -> int:
        """Offset of the newest message, -1 for an empty or unknown topic."""
        with self._lock:
            return len(self._topics.get(topic, ())) - 1

    def publish(self, topic: str, payload: Any) -> int:
        if not topic:
            raise ValueError("topic name must be nonempty")
        with self._lock:
            log = self._topics.setdefault(topic, [])
            offset = len(log)
            log.append(Envelope(topic=topic, offset=offset, payload=payload))
            return offset

    def subscribe(self, topic: str, filter: MetadataFilter | None = None) -> Subscription:
        """New-messages-only subscription; earlier traffic is never replayed."""
        with self._lock:
            return Subscription(self, topic, filter)

    def _poll(self, sub: Subscription, max_n: int) -> list[Envelope]:
        out: list[Envelope] = []
        with self._lock:
            log = self._topics.get(sub.topic, ())
            while sub.cursor < len(log) and len(out) < max_n:
                env = log[sub.cursor]
                sub.cursor += 1
                if sub._filter is None or sub._filter.matches(env.payload):
                    out.append(env)
        return out

    def lag(self, sub: Subscription) -> int:
        """Messages (matching or not) the subscription has not yet scanned."""
        with self._lock:
            return len(self._topics.get(sub.topic, ())) - sub.cursor
