"""Edges and state: SMS ingestion with an auth-table stub, the outbound SMS
sink, the pharmacy endpoint client, the per-step tracking history, and the
original-message store.

Every store is an append-only JSON-lines log, either in memory or under a
run directory, so run outcomes can be asserted by reading files back.  On
disk each log keeps one unbuffered file open for the whole run and hands
every record's line to the OS in one write before ``append`` returns, so a
reader sees it at once; ``Pipeline.close()`` closes the files through
``RunStore.close()``.
"""
from __future__ import annotations

import logging
import threading
import json
from collections import defaultdict
from collections.abc import Iterator
from dataclasses import dataclass
from datetime import datetime, timedelta, timezone
from pathlib import Path

from .messages import INCOMING_TOPIC, STEP_INGESTED, Metadata, SmsEvent
from .pool import MessagePool

log = logging.getLogger(__name__)

SMS_KINDS = ("contact-support", "confirm-stop", "booking-confirmation", "generic")
CONTACT_SUPPORT_TEXT = (
    "We could not process your reply automatically. Please call customer support."
)

# A terminal note is the outcome the report shows for its event.
TERMINAL_PROCESSED = "processed"
TERMINAL_FAILED = "failed"
TERMINAL_AWAITING = "awaiting-confirmation"
TERMINAL_ROUTED = "routed"
TERMINAL_UNROUTED = "unrouted"
NOTE_RETRY = "retry-requested"

# The keys of every step record; a typed step field may not reuse one.
STEP_KEYS = frozenset(("seq", "eventId", "stepId", "agent", "note", "recorded_at", "terminal"))


class MissingOriginalError(KeyError):
    """The original SMS text for an event is not in the store."""


class LogicalClock:
    """Deterministic clock: time advances only when the harness says so.

    Timestamps are a fixed epoch plus the ingestion index in seconds, so two
    identical runs serialize identical times.
    """

    # A midnight, so a tick's day and time of day are one divmod of the ticks.
    EPOCH = datetime(2025, 1, 1, 0, 0, 0, tzinfo=timezone.utc)

    def __init__(self):
        self._day = -1
        self._set_ticks(0)

    def _set_ticks(self, ticks: int) -> None:
        # The stamp changes only here, so callers get it without formatting;
        # its date part is formatted once per day.
        self._ticks = ticks
        day, second = divmod(ticks, 86400)
        if day != self._day:
            self._day = day
            self._date_iso = (self.EPOCH + timedelta(days=day)).strftime("%Y-%m-%dT")
        hours, second = divmod(second, 3600)
        minutes, second = divmod(second, 60)
        self._iso = f"{self._date_iso}{hours:02d}:{minutes:02d}:{second:02d}Z"

    def advance(self) -> None:
        self._set_ticks(self._ticks + 1)

    def now(self) -> datetime:
        return self.EPOCH + timedelta(seconds=self._ticks)

    def now_iso(self) -> str:
        return self._iso


# CPython's C encoder for ``json.dumps(record, sort_keys=True)``, built once:
# ``json.dumps`` with non-default options builds a new encoder per call.
# Called as ``_jsonl_chunks(record, 0)``, it returns chunks to join.  It keeps
# no state between calls: it does not check for circular references, so a
# cyclic value raises ``RecursionError``.
_jsonl_chunks = json.encoder.c_make_encoder(
    None, json.JSONEncoder().default, json.encoder.encode_basestring_ascii, None,
    ": ", ", ", True, False, True,
)


class JsonlLog:
    """Append-only record log, optionally mirrored to a .jsonl file.

    The file is truncated and opened once, unbuffered.  Each record is
    encoded as one ASCII line and written with one ``write`` call, repeated
    only for what a short write left, so the whole line is in the file
    before ``append`` returns.  After ``close()`` reads still work and an
    append raises ``ValueError``, with or without a file.
    """

    def __init__(self, path: Path | None = None):
        self._records: list[dict] = []
        self._lock = threading.Lock()
        self._closed = False
        self._file = None
        if path is not None:
            path.parent.mkdir(parents=True, exist_ok=True)
            self._file = path.open("wb", buffering=0)

    def append(self, record: dict) -> int:
        records = self._records
        with self._lock:
            if self._closed:
                raise ValueError("append to a closed log")
            file = self._file
            if file is not None:
                line = ("".join(_jsonl_chunks(record, 0)) + "\n").encode()
                written = file.write(line)
                while written < len(line):  # a signal can cut a write short
                    line = line[written:]
                    written = file.write(line)
            records.append(record)
            return len(records) - 1

    def close(self) -> None:
        with self._lock:
            self._closed = True
            if self._file is not None:
                self._file.close()

    def read_all(self) -> list[dict]:
        """The records themselves, uncopied: read-only by contract."""
        with self._lock:
            return list(self._records)

    def __len__(self) -> int:
        with self._lock:
            return len(self._records)


# ``json``'s C scanner: the value at an index and the index after it, without
# the wrapper work that ``json.loads`` adds per call.
_scan_value = json.JSONDecoder().scan_once


def read_jsonl(path: Path) -> Iterator[dict]:
    """Yield a JSON-lines file's records, reading and parsing each stripped non-blank line on its own.

    A line that is not one whole JSON value (it does not parse, holds a
    second value, or is part of a value spread over lines) raises
    ``ValueError`` naming the file and the line.
    """
    with path.open(encoding="utf-8") as lines:
        for number, raw in enumerate(lines, start=1):
            line = raw.strip()
            if not line:
                continue
            try:
                value, end = _scan_value(line, 0)
            except (StopIteration, json.JSONDecodeError):
                end = -1
            if end != len(line):
                raise ValueError(f"{path}:{number}: not one JSON value: {line[:80]!r}")
            yield value


class RunStore:
    """All persistent run state, keyed into separate logs.

    Layout under a run directory: steps.jsonl, originals.jsonl,
    outbound_sms.jsonl, pharmacy.jsonl, bookings.jsonl, answers.jsonl,
    auth_failures.jsonl and queues/<name>.jsonl.  With ``root=None``
    everything stays in memory.  Its :class:`LogicalClock` starts at the epoch.
    """

    def __init__(self, root: Path | str | None = None):
        self.root = Path(root) if root is not None else None
        self.clock = LogicalClock()
        self._seq = 0
        # Held across the seq number, the log append and the per-event index,
        # so the step log and each history are in seq order.
        self._steps_lock = threading.Lock()

        self._closed = False
        self._logs: list[JsonlLog] = []
        if self.root is not None:
            # Every log the store owns starts empty, queues too, though a
            # queue's log is opened only when the run first uses the queue.
            for stale in (self.root / "queues").glob("*.jsonl"):
                stale.unlink()

        def _log(name: str) -> JsonlLog:
            log = JsonlLog(self.root / name if self.root is not None else None)
            self._logs.append(log)
            return log

        self.steps = _log("steps.jsonl")
        self._steps_by_event: defaultdict[str, list[dict]] = defaultdict(list)
        self.originals = _log("originals.jsonl")
        self._originals_by_event: dict[str, str] = {}
        self.outbound_sms = _log("outbound_sms.jsonl")
        self.pharmacy = _log("pharmacy.jsonl")
        self.bookings = _log("bookings.jsonl")
        self.answers = _log("answers.jsonl")
        self.auth_failures = _log("auth_failures.jsonl")
        self._queues: dict[str, JsonlLog] = {}
        self._queues_lock = threading.Lock()

    # -- step tracking ------------------------------------------------------

    def record_step(
        self,
        event_id: str,
        step_id: str,
        agent: str,
        note: str,
        terminal: bool = False,
        **fields,
    ) -> dict:
        """Append one step record and return it.

        ``fields`` are typed facts the report reads instead of the note, such
        as a discard's ``model_id`` and ``reason``.  No field may shadow a
        base key (``STEP_KEYS``): one that would raises ``ValueError``.

        The record is stamped with the clock's current time and the next
        ``seq``, then appended to the step log (``self.steps.append``, looked
        up at each call so that a wrapper on the log sees every record) and to
        the event's history, all under one lock: the log's ``seq`` values run
        1, 2, ... and each history is the log's subsequence for its event.
        """
        if fields and not STEP_KEYS.isdisjoint(fields):
            raise ValueError(f"step fields {sorted(STEP_KEYS & fields.keys())} shadow base keys")
        recorded_at = self.clock.now_iso()
        with self._steps_lock:
            seq = self._seq = self._seq + 1
            record = {
                "seq": seq,
                "eventId": event_id,
                "stepId": step_id,
                "agent": agent,
                "note": note,
                "recorded_at": recorded_at,
                "terminal": terminal,
            }
            if fields:
                record.update(fields)
            self.steps.append(record)
            self._steps_by_event[event_id].append(record)
        return record

    def get_history(self, event_id: str) -> list[dict]:
        return [dict(r) for r in self.steps_of(event_id)]

    def steps_of(self, event_id: str) -> tuple[dict, ...]:
        """The event's step records themselves, uncopied: read-only by contract."""
        with self._steps_lock:
            return tuple(self._steps_by_event.get(event_id, ()))

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
                if self._closed:
                    raise ValueError(f"run store is closed; no new queue {name!r}")
                path = self.root / "queues" / f"{name}.jsonl" if self.root is not None else None
                self._queues[name] = JsonlLog(path)
            return self._queues[name]

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
    """Records outbound SMS in the run store's outbound log."""

    def __init__(self, store: RunStore):
        self.store = store

    def send_sms(self, customer_id: str, text: str, kind: str, event_id: str, step: str) -> dict:
        """Log one outbound SMS and record ``sms:<kind>`` under the sender's ``step``."""
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
        self.store.record_step(event_id, step, "OutboundSmsService", f"sms:{kind}")
        return record

    def close_failed(self, customer_id: str, event_id: str, step: str, agent: str, **fields) -> dict:
        """Send the contact-support SMS, then record the failed terminal step carrying ``fields``."""
        record = self.send_sms(customer_id, CONTACT_SUPPORT_TEXT, "contact-support", event_id, step)
        self.store.record_step(event_id, step, agent, TERMINAL_FAILED, terminal=True, **fields)
        return record


class PharmacyClient:
    """Stub for the pharmacy endpoint; idempotent on (eventId, keyword)."""

    def __init__(self, store: RunStore):
        self.store = store
        self._applied: set[tuple[str, str]] = set()
        self._lock = threading.Lock()

    def apply(self, event_id: str, customer_id: str, keyword: str, action: str) -> str:
        """Apply one ``action`` ("renew" or "stop") on ``keyword``; "duplicate" when already applied."""
        key = (event_id, keyword)
        with self._lock:
            if key in self._applied:
                return "duplicate"
            self._applied.add(key)
        self.store.pharmacy.append(
            {
                "eventId": event_id,
                "customerId": customer_id,
                "keyword": keyword,
                "action": action,
                "applied_at": self.store.clock.now_iso(),
            }
        )
        return "applied"

    def apply_keywords(
        self, event_id: str, customer_id: str, renew: list[str], stop: list[str]
    ) -> list[str]:
        """Apply every renew keyword, then every stop keyword; returns them in that order."""
        for keyword in renew:
            self.apply(event_id, customer_id, keyword, "renew")
        for keyword in stop:
            self.apply(event_id, customer_id, keyword, "stop")
        return [*renew, *stop]
