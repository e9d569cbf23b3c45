"""Routing of validated complaints and requests to expert agents.

The router finalizes every verdict of the validator: it records the event's
terminal step and sends its closing SMS, the contact-support text when the
verdict failed or when nothing was applied and nothing was routed.  For each
complaint or request of a routed extraction it picks the registered expert
with the best cue-term overlap and rephrases the item; forwarding experts
append to human queues, the store expert answers from a small
question/answer document set, and the scheduling expert turns date
constraints into candidate slots that only the appointment tool may confirm
(the reply can never reference a slot the tool did not select).
"""
from __future__ import annotations

import calendar
import functools
import logging
import re
import threading
from dataclasses import dataclass, field
from datetime import date, timedelta

from .messages import STEP_VALIDATED
from .pool import Envelope
from .renewal import READING_MEMO_SIZE, normalize_item
from .store import TERMINAL_AWAITING, TERMINAL_PROCESSED, TERMINAL_ROUTED, OutboundSmsGateway, RunStore
from .validator import EXTRACTION_FAIL, OUTCOME_CONFIRM, OUTCOME_FAIL

log = logging.getLogger(__name__)

CATCH_ALL = "ComplaintDepartment"
REFERRAL_ANSWER = "We could not find that information; please contact customer support."
CALL_US_REPLY = "We could not find a matching appointment slot. Please call us to book."

_SLOT_LINE_RE = re.compile(
    r"^year:\s*(?P<year>\d{4}),\s*month:\s*(?P<month>\d{1,2}),\s*"
    r"day:\s*(?P<day>\d{1,2}),\s*hours:\s*(?P<hours>\d{1,2})$"
)
_DATE_RE = re.compile(r"\b(\d{1,2})/(\d{1,2})/(\d{4})\b")

_WEEKDAYS = tuple(
    (re.compile(rf"\b{name}\b", re.IGNORECASE), i) for i, name in enumerate(calendar.day_name)
)
_DAYPARTS = {"morning": range(9, 13), "afternoon": range(13, 18)}
_DETERMINERS = {"the", "a", "an", "my", "your", "our", "this", "that", "these", "those",
                "i", "we", "you", "it", "he", "she", "they", "do", "can", "could"}
_STORE_STOP_WORDS = frozenset({"what", "are", "your", "the", "of", "is", "a", "an", "do", "you",
                               "have", "i", "my", "to"})
_REQUEST_PREFIXES = (
    "i would like to ", "i want to ", "i need to ", "i just want to ",
    "can you ", "could you ", "do i need to ", "please ",
)
_SYNONYMS = ((re.compile(r"\bmedicine\b"), "a medication"),)
_NON_WORD_RUNS = re.compile(r"[^\w]+")
_CLAUSE_SPLIT = re.compile(r"\bor\b|;", re.IGNORECASE)


@dataclass(frozen=True)
class ExpertRegistration:
    qualifier: str
    cues: tuple[str, ...]
    queue: str = ""
    # Lowercased once here: the router scores every item against it.
    cue_set: frozenset[str] = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        object.__setattr__(self, "cue_set", frozenset(c.lower() for c in self.cues))


@dataclass(frozen=True, slots=True)
class RoutingDecision:
    destination: str
    next_inputs: str


def _item_tokens(text: str) -> list[str]:
    return [t for t in _NON_WORD_RUNS.split(text.lower()) if t]


def rephrase(item_text: str, kind: str) -> str:
    """Normalize an item of ``kind`` ("complaint" or "request") into its template sentence."""
    text = normalize_item(item_text)
    lowered = text[0].lower() + text[1:] if text else text
    for synonym, replacement in _SYNONYMS:
        lowered = synonym.sub(replacement, lowered)

    if kind == "complaint":
        first = lowered.split(" ", 1)[0] if lowered else ""
        if first not in _DETERMINERS:
            lowered = "the " + lowered
        return f"I have a complaint about {lowered}."

    changed = True
    while changed:
        changed = False
        for prefix in _REQUEST_PREFIXES:
            if lowered.lower().startswith(prefix):
                lowered = lowered[len(prefix):]
                changed = True
    return f"I would like to {lowered}."


class ScriptedRouterModel:
    """Cue-overlap destination choice with template rephrasing."""

    def route(self, item_text: str, experts: dict[str, ExpertRegistration], kind: str) -> RoutingDecision:
        tokens = set(_item_tokens(item_text))
        scores = {q: len(tokens & reg.cue_set) for q, reg in experts.items()}
        best = max(scores.values()) if scores else 0
        winners = [q for q, s in scores.items() if s == best]
        if best == 0 or len(winners) > 1:
            destination = CATCH_ALL if CATCH_ALL in experts else winners[0]
        else:
            destination = winners[0]
        return RoutingDecision(destination=destination, next_inputs=rephrase(item_text, kind))


def route(item_text: str, experts: dict[str, ExpertRegistration], model, kind: str) -> RoutingDecision:
    """Pick the expert for one item of ``kind``; unmatched items go to the catch-all.

    ``experts`` maps each qualifier to its registration.  A model's choice not
    among them goes to the catch-all if registered, else to the first one.
    """
    if not experts:
        raise ValueError("at least one expert registration is required")
    decision = model.route(item_text, experts, kind)
    if decision.destination not in experts:
        fallback = CATCH_ALL if CATCH_ALL in experts else next(iter(experts))
        log.warning("model chose unregistered expert %r; using %r", decision.destination, fallback)
        decision = RoutingDecision(destination=fallback, next_inputs=decision.next_inputs)
    return decision


def forward_to_queue(store: RunStore, queue_name: str, event_id: str, decision: RoutingDecision) -> int:
    """Append the routed item to a human queue; returns the entry id."""
    entry_id = store.queue(queue_name).append(
        {
            "eventId": event_id,
            "destination": decision.destination,
            "next_inputs": decision.next_inputs,
            "enqueued_at": store.clock.now_iso(),
        }
    )
    store.record_step(
        event_id, STEP_VALIDATED, decision.destination, "queued", queue=queue_name, entry=entry_id
    )
    return entry_id


@dataclass(frozen=True)
class StoreDocument:
    question: str
    answer: str
    # Tokenized once here: every store question is scored against it.
    content_tokens: frozenset[str] = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        object.__setattr__(self, "content_tokens", frozenset(_item_tokens(self.question)) - _STORE_STOP_WORDS)


def answer_store_question(question: str, documents: list[StoreDocument]) -> str:
    """Answer from the document with the best content-token overlap."""
    q_tokens = set(_item_tokens(question)) - _STORE_STOP_WORDS
    best_score, best_answer = 0, REFERRAL_ANSWER
    for doc in documents:
        score = len(q_tokens & doc.content_tokens)
        if score > best_score:
            best_score, best_answer = score, doc.answer
    return best_answer


@dataclass(frozen=True)
class SlotCandidate:
    year: int
    month: int
    day: int
    hours: int

    def __post_init__(self):
        date(self.year, self.month, self.day)  # raises on an invalid calendar date
        if not 0 <= self.hours <= 23:
            raise ValueError(f"hours {self.hours} outside 0..23")

    def line(self) -> str:
        return f"year: {self.year}, month: {self.month}, day: {self.day}, hours: {self.hours}"


def parse_slot_line(line: str) -> SlotCandidate:
    m = _SLOT_LINE_RE.match(line.strip())
    if not m:
        raise ValueError(f"malformed slot line: {line!r}")
    return SlotCandidate(
        year=int(m.group("year")),
        month=int(m.group("month")),
        day=int(m.group("day")),
        hours=int(m.group("hours")),
    )


class AvailabilityStore:
    """Open appointment slots with capacities; booking decrements atomically."""

    def __init__(self, slots: dict[SlotCandidate, int] | None = None):
        self._slots: dict[SlotCandidate, int] = dict(slots or {})
        self._lock = threading.Lock()
        for slot, capacity in self._slots.items():
            if capacity < 0:
                raise ValueError(f"negative capacity for {slot}")

    def book(self, slot: SlotCandidate) -> bool:
        with self._lock:
            remaining = self._slots.get(slot, 0)
            if remaining <= 0:
                return False
            self._slots[slot] = remaining - 1
            return True


class ScriptedSchedulerModel:
    """Parses weekday/date/daypart constraints into candidate slot lines."""

    def propose(self, request_text: str, reference_date: date) -> list[str]:
        lines: list[str] = []
        for clause in _CLAUSE_SPLIT.split(request_text):
            slot_date = self._clause_date(clause, reference_date)
            if slot_date is None:
                continue
            lowered = clause.lower()
            hour_ranges = [rng for part, rng in _DAYPARTS.items() if part in lowered]
            if not hour_ranges:
                hour_ranges = [range(9, 18)]
            for rng in hour_ranges:
                for hour in rng:
                    lines.append(
                        SlotCandidate(slot_date.year, slot_date.month, slot_date.day, hour).line()
                    )
        return lines

    @staticmethod
    def _clause_date(clause: str, reference_date: date) -> date | None:
        m = _DATE_RE.search(clause)
        if m:
            month, day, year = int(m.group(1)), int(m.group(2)), int(m.group(3))
            try:
                return date(year, month, day)
            except ValueError:
                return None
        for pattern, weekday in _WEEKDAYS:
            if pattern.search(clause):
                ahead = (weekday - reference_date.weekday()) % 7
                return reference_date + timedelta(days=ahead or 7)
        return None


@dataclass
class ScheduleResult:
    reply: str
    booked: SlotCandidate | None
    candidates: list[SlotCandidate]
    warnings: list[str] = field(default_factory=list)


Proposal = tuple[tuple[SlotCandidate, ...], tuple[str, ...]]


def parse_proposal(request_text: str, model, reference_date: date) -> Proposal:
    """The model's candidate slots for a request, and why each malformed line was skipped."""
    candidates: list[SlotCandidate] = []
    warnings: list[str] = []
    for line in model.propose(request_text, reference_date):
        try:
            candidates.append(parse_slot_line(line))
        except ValueError as exc:
            warnings.append(str(exc))
    return tuple(candidates), tuple(warnings)


def book_first(proposal: Proposal, availability: AvailabilityStore) -> ScheduleResult:
    """Book the first candidate of a parsed proposal that has capacity.

    The model only proposes; the appointment tool selects and books, and the
    reply is rendered from the tool's selection, never from the model text.
    """
    candidates, warnings = list(proposal[0]), list(proposal[1])
    for warning in warnings:
        log.warning("skipping slot candidate: %s", warning)

    for slot in candidates:
        if availability.book(slot):
            day_name = calendar.day_name[date(slot.year, slot.month, slot.day).weekday()]
            month_name = calendar.month_name[slot.month]
            ampm = "12 PM" if slot.hours == 12 else (
                f"{slot.hours} AM" if slot.hours < 12 else f"{slot.hours - 12} PM"
            )
            reply = (
                f"You can schedule your appointment for {day_name}, "
                f"{month_name} {slot.day}, {slot.year}, at {ampm}."
            )
            return ScheduleResult(reply=reply, booked=slot, candidates=candidates, warnings=warnings)
    return ScheduleResult(reply=CALL_US_REPLY, booked=None, candidates=candidates, warnings=warnings)


class RouterAgent:
    """Finalizer for validated messages: routes items and records terminals.

    The registrations and both scripted models are fixed for the agent, so
    it routes each distinct (item, kind) once and parses the scheduler's
    proposal for each distinct (request, reference date) once, while each
    cache holds at most ``READING_MEMO_SIZE`` keys.  Booking, its log entry
    and the reply are done per call.
    """

    qualifier = "RouterAgent"

    def __init__(
        self,
        registrations: list[ExpertRegistration],
        documents: list[StoreDocument],
        availability: AvailabilityStore,
        store: RunStore,
        outbound: OutboundSmsGateway,
    ):
        self.documents = documents
        self.availability = availability
        self.store = store
        self.outbound = outbound
        self._by_qualifier = {r.qualifier: r for r in registrations}
        # (item text, kind) -> its frozen routing decision; see route.
        self.routing = functools.lru_cache(maxsize=READING_MEMO_SIZE)(
            functools.partial(route, experts=self._by_qualifier, model=ScriptedRouterModel())
        )
        # (request text, reference date) -> candidate and warning tuples; see parse_proposal.
        self.proposal = functools.lru_cache(maxsize=READING_MEMO_SIZE)(
            functools.partial(parse_proposal, model=ScriptedSchedulerModel())
        )

    def handle(self, envelope: Envelope) -> None:
        doc = envelope.payload
        event_id = doc["metadata"]["eventId"]
        customer_id = doc["metadata"]["customerId"]
        keywords = doc["keywords"]
        extraction = doc["extraction"]

        # A failed keyword verdict carries no extraction; any other carries one.
        if keywords["outcome"] == OUTCOME_FAIL:
            failed = True
            scores = None
        else:
            failed = extraction["outcome"] == EXTRACTION_FAIL
            scores = extraction["scores"]
        routed = 0
        replies: dict[str, list[str]] = {}
        if not failed:
            for item_kind in ("complaint", "request"):
                for item in extraction["chosen"].get(item_kind, ()):
                    for kind, text in self._route_item(event_id, item, item_kind):
                        replies.setdefault(kind, []).append(text)
                    routed += 1
            # Nothing to apply and nothing to route: the reply is not understood.
            if not routed and not keywords["accepted"]["renew"] and not keywords["accepted"]["stop"]:
                failed = True
        # One SMS per kind per event, whatever the item count.
        for kind, texts in replies.items():
            self.outbound.send_sms(customer_id, "\n".join(texts), kind, event_id, STEP_VALIDATED)
        # The verdict's facts ride on the terminal record, for the report.
        facts = {"keyword_outcome": keywords["outcome"], "accepted": keywords["accepted"], "scores": scores}
        if failed:
            self.outbound.close_failed(customer_id, event_id, STEP_VALIDATED, self.qualifier, **facts)
            return
        if keywords["outcome"] == OUTCOME_CONFIRM:
            terminal = TERMINAL_AWAITING
        elif routed:
            terminal = TERMINAL_ROUTED
        else:
            terminal = TERMINAL_PROCESSED
        self.store.record_step(event_id, STEP_VALIDATED, self.qualifier, terminal, terminal=True, **facts)

    def _route_item(self, event_id: str, item: str, item_kind: str) -> list[tuple[str, str]]:
        """Hand one complaint or request to its expert; returns (SMS kind, text) replies to send."""
        decision = self.routing(item, kind=item_kind)
        self.store.record_step(
            event_id, STEP_VALIDATED, self.qualifier,
            f"routed-to:{decision.destination}", destination=decision.destination,
        )
        registration = self._by_qualifier[decision.destination]
        if registration.queue:
            forward_to_queue(self.store, registration.queue, event_id, decision)
            return []
        if decision.destination == "StoreManagement":
            answer = answer_store_question(item, self.documents)
            self.store.answers.append(
                {"eventId": event_id, "question": item, "answer": answer,
                 "answered_at": self.store.clock.now_iso()}
            )
            return [("generic", answer)]
        if decision.destination == "Scheduling":
            result = book_first(
                self.proposal(item, reference_date=self.store.clock.now().date()),
                self.availability,
            )
            # Every scheduling intake is logged, booked or not.
            self.store.bookings.append(
                {
                    "eventId": event_id,
                    "request": item,
                    "slot": result.booked.line() if result.booked else None,
                    "booked": result.booked is not None,
                    "booked_at": self.store.clock.now_iso(),
                }
            )
            if result.booked is not None:
                return [("booking-confirmation", result.reply)]
            return [("generic", result.reply)]
        # Unqueued expert without special handling: record as its intake.
        forward_to_queue(self.store, decision.destination.lower(), event_id, decision)
        return []
