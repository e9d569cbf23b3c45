"""Edges and state: SMS ingestion with an auth-table stub, the outbound SMS
sink, the pharmacy endpoint client, the per-step tracking history, and the
original-message store.

Every store is an append-only JSON-lines log, either in memory or under a
run directory, so run outcomes can be asserted by reading files back.  On
disk each log keeps one file handle open for the whole run and flushes every
record to the OS before ``append`` returns, so a reader sees it at once;
``Pipeline.close()`` closes the handles through ``RunStore.close()``.
"""
from __future__ import annotations

import logging
import threading
import json
from dataclasses import dataclass
from datetime import datetime, timedelta, timezone
from pathlib import Path

from .messages import (
    INCOMING_TOPIC,
    OUTBOUND_TOPIC,
    STEP_INGESTED,
    Metadata,
    SmsEvent,
    payload_digest,
)
from .pool import MessagePool

log = logging.getLogger(__name__)

SMS_KINDS = ("contact-support", "confirm-stop", "booking-confirmation", "generic")
CONTACT_SUPPORT_TEXT = (
    "We could not process your reply automatically. Please call customer support."
)

TERMINAL_DONE = "done"
TERMINAL_FAILED = "contact-support SMS sent"
TERMINAL_AWAITING = "awaiting-confirmation"
TERMINAL_ROUTED = "routed"
TERMINAL_UNROUTED = "unrouted"


class MissingOriginalError(KeyError):
    """The original SMS text for an event is not in the store."""


class LogicalClock:
    """Deterministic clock: time advances only when the harness says so.

    Timestamps are a fixed epoch plus the ingestion index in seconds, so two
    identical runs serialize identical times.
    """

    EPOCH = datetime(2025, 1, 1, 0, 0, 0, tzinfo=timezone.utc)

    def __init__(self):
        self._set_ticks(0)

    def _set_ticks(self, ticks: int) -> None:
        # The stamp changes only here, so callers get it without formatting.
        self._ticks = ticks
        self._iso = self.now().strftime("%Y-%m-%dT%H:%M:%SZ")

    def advance(self) -> None:
        self._set_ticks(self._ticks + 1)

    def now(self) -> datetime:
        return self.EPOCH + timedelta(seconds=self._ticks)

    def now_iso(self) -> str:
        return self._iso


class JsonlLog:
    """Append-only record log, optionally mirrored to a .jsonl file.

    The file is truncated and opened once; after ``close()`` reads still
    work and an append raises ``ValueError``.
    """

    def __init__(self, path: Path | None = None):
        self._records: list[dict] = []
        self._lock = threading.Lock()
        self._file = None
        if path is not None:
            path.parent.mkdir(parents=True, exist_ok=True)
            self._file = path.open("w", encoding="utf-8")

    def append(self, record: dict) -> int:
        with self._lock:
            if self._file is not None:
                self._file.write(json.dumps(record, sort_keys=True) + "\n")
                self._file.flush()
            self._records.append(record)
            return len(self._records) - 1

    def close(self) -> None:
        with self._lock:
            if self._file is not None:
                self._file.close()

    def read_all(self) -> list[dict]:
        with self._lock:
            return [dict(r) for r in self._records]

    def __len__(self) -> int:
        with self._lock:
            return len(self._records)


def read_jsonl(path: Path) -> list[dict]:
    out = []
    with path.open(encoding="utf-8") as fh:
        for line in fh:
            line = line.strip()
            if line:
                out.append(json.loads(line))
    return out


class RunStore:
    """All persistent run state, keyed into separate logs.

    Layout under a run directory: steps.jsonl, originals.jsonl,
    outbound_sms.jsonl, pharmacy.jsonl, bookings.jsonl, answers.jsonl,
    auth_failures.jsonl and queues/<name>.jsonl.  With ``root=None``
    everything stays in memory.
    """

    def __init__(self, root: Path | str | None = None, clock=None):
        self.root = Path(root) if root is not None else None
        self.clock = clock or LogicalClock()
        self._event_locks: dict[str, threading.RLock] = {}
        self._locks_guard = threading.Lock()
        self._seq = 0
        self._seq_lock = threading.Lock()

        self._closed = False
        self._logs: list[JsonlLog] = []

        def _log(name: str) -> JsonlLog:
            log = JsonlLog(self.root / name if self.root is not None else None)
            self._logs.append(log)
            return log

        self.steps = _log("steps.jsonl")
        self._steps_by_event: dict[str, list[dict]] = {}
        self._steps_index_lock = threading.Lock()
        self.originals = _log("originals.jsonl")
        self._originals_by_event: dict[str, str] = {}
        self.outbound_sms = _log("outbound_sms.jsonl")
        self.pharmacy = _log("pharmacy.jsonl")
        self.bookings = _log("bookings.jsonl")
        self.answers = _log("answers.jsonl")
        self.auth_failures = _log("auth_failures.jsonl")
        self._queues: dict[str, JsonlLog] = {}
        self._queues_lock = threading.Lock()
        self._applied_actions: set[tuple[str, str]] = set()
        self._pharmacy_lock = threading.Lock()

    # -- per-event serialization point ------------------------------------

    def event_lock(self, event_id: str) -> threading.RLock:
        with self._locks_guard:
            if event_id not in self._event_locks:
                self._event_locks[event_id] = threading.RLock()
            return self._event_locks[event_id]

    # -- step tracking ------------------------------------------------------

    def record_step(
        self,
        event_id: str,
        step_id: str,
        agent: str,
        note: str,
        payload=None,
        terminal: bool = False,
    ) -> dict:
        with self._seq_lock:
            self._seq += 1
            seq = self._seq
        record = {
            "seq": seq,
            "eventId": event_id,
            "stepId": step_id,
            "agent": agent,
            "note": note,
            "digest": payload_digest(payload) if payload is not None else "",
            "recorded_at": self.clock.now_iso(),
            "terminal": terminal,
        }
        self.steps.append(record)
        with self._steps_index_lock:
            self._steps_by_event.setdefault(event_id, []).append(record)
        return record

    def get_history(self, event_id: str) -> list[dict]:
        with self._steps_index_lock:
            return [dict(r) for r in self._steps_by_event.get(event_id, ())]

    def terminal_of(self, event_id: str) -> dict | None:
        with self._steps_index_lock:
            for record in reversed(self._steps_by_event.get(event_id, ())):
                if record["terminal"]:
                    return dict(record)
        return None

    def retry_count(self, event_id: str) -> int:
        with self._steps_index_lock:
            return sum(
                1 for r in self._steps_by_event.get(event_id, ()) if r["note"] == "retry-requested"
            )

    # -- original message store ---------------------------------------------

    def store_original(self, event_id: str, text: str) -> None:
        self.originals.append({"eventId": event_id, "text": text})
        self._originals_by_event[event_id] = text

    def fetch_original(self, event_id: str) -> str:
        if event_id not in self._originals_by_event:
            raise MissingOriginalError(event_id)
        return self._originals_by_event[event_id]

    # -- queues ---------------------------------------------------------------

    def queue(self, name: str) -> JsonlLog:
        with self._queues_lock:
            if name not in self._queues:
                path = None
                if self.root is not None:
                    if self._closed:
                        raise ValueError(f"run store {self.root} is closed; no new queue {name!r}")
                    path = self.root / "queues" / f"{name}.jsonl"
                self._queues[name] = JsonlLog(path)
            return self._queues[name]

    def queue_names(self) -> list[str]:
        with self._queues_lock:
            return sorted(self._queues)

    # -- lifetime -------------------------------------------------------------

    def close(self) -> None:
        """Close every log's file; reads keep working, appends raise ValueError."""
        with self._queues_lock:
            self._closed = True
            logs = self._logs + list(self._queues.values())
        for log in logs:
            log.close()


@dataclass
class CustomerAuthTable:
    """Stub mapping of sender phone numbers to known customer ids."""

    phones: dict[str, str]
    campaign_type: str = "renewal"

    def lookup(self, phone: str) -> str | None:
        return self.phones.get(phone)


class IncomingSmsGateway:
    """Authenticates inbound SMS and publishes them to the incoming topic."""

    def __init__(self, auth: CustomerAuthTable, store: RunStore, pool: MessagePool):
        self.auth = auth
        self.store = store
        self.pool = pool
        self._counter = 1000
        self._lock = threading.Lock()

    def _next_event_id(self) -> str:
        with self._lock:
            self._counter += 1
            return f"A{self._counter}"

    def ingest_sms(self, phone: str, text: str) -> SmsEvent | None:
        customer_id = self.auth.lookup(phone)
        if customer_id is None:
            self.store.auth_failures.append(
                {"phone": phone, "text": text, "at": self.store.clock.now_iso()}
            )
            log.warning("rejected SMS from unknown phone %s", phone)
            return None
        self.store.clock.advance()
        now = self.store.clock.now_iso()
        event = SmsEvent(
            metadata=Metadata(
                type=self.auth.campaign_type,
                event_id=self._next_event_id(),
                customer_id=customer_id,
                step_id=STEP_INGESTED,
                customer_event_time=now,
                last_update_time=now,
            ),
            body=text,
        )
        self.store.record_step(event.metadata.event_id, STEP_INGESTED, "IncomingSmsService", "ingested")
        self.pool.publish(INCOMING_TOPIC, event.to_doc())
        return event


class OutboundSmsGateway:
    """Records outbound SMS in the sink and mirrors them to the outbound topic."""

    def __init__(self, store: RunStore, pool: MessagePool):
        self.store = store
        self.pool = pool

    def send_sms(self, customer_id: str, text: str, kind: str, event_id: str = "") -> dict:
        if kind not in SMS_KINDS:
            raise ValueError(f"unknown SMS kind {kind!r}")
        record = {
            "customerId": customer_id,
            "kind": kind,
            "text": text,
            "eventId": event_id,
            "sent_at": self.store.clock.now_iso(),
        }
        self.store.outbound_sms.append(record)
        self.pool.publish(OUTBOUND_TOPIC, dict(record))
        if event_id:
            self.store.record_step(event_id, "", "OutboundSmsService", f"sms:{kind}")
        return record


@dataclass(frozen=True)
class PharmacyAction:
    event_id: str
    customer_id: str
    keyword: str
    action: str  # "renew" | "stop"


class PharmacyClient:
    """Stub for the pharmacy endpoint; idempotent on (eventId, keyword)."""

    def __init__(self, store: RunStore):
        self.store = store

    def apply(self, action: PharmacyAction) -> str:
        key = (action.event_id, action.keyword)
        with self.store._pharmacy_lock:
            if key in self.store._applied_actions:
                return "duplicate"
            self.store._applied_actions.add(key)
        self.store.pharmacy.append(
            {
                "eventId": action.event_id,
                "customerId": action.customer_id,
                "keyword": action.keyword,
                "action": action.action,
                "applied_at": self.store.clock.now_iso(),
            }
        )
        return "applied"

    def applied_keywords(self, event_id: str) -> list[str]:
        return [r["keyword"] for r in self.store.pharmacy.read_all() if r["eventId"] == event_id]
