import dataclasses
import importlib
import logging
import random
import re
import string
from concurrent.futures import ThreadPoolExecutor
from datetime import date
from pathlib import Path

import pytest
import yaml
from hypothesis import given, settings, strategies as st

from smsflow.arbitration import CustomerProfile, EvaluatorAgent
from smsflow import experts
from smsflow.config import default_config_path, default_corpus_path, load_config
from smsflow.experts import (
    CALL_US_REPLY,
    REFERRAL_ANSWER,
    AvailabilityStore,
    RouterAgent,
    RoutingDecision,
    ScriptedRouterModel,
    ScriptedSchedulerModel,
    SlotCandidate,
    answer_store_question,
    book_first,
    forward_to_queue,
    parse_proposal,
    parse_slot_line,
    rephrase,
    route,
)
from smsflow.harness import load_corpus, run_pipeline
from smsflow.messages import AGENTS_TOPIC
from smsflow.pool import Envelope, MessagePool
from smsflow.renewal import READING_MEMO_SIZE
from smsflow.store import OutboundSmsGateway, PharmacyClient, RunStore

from conftest import remaining_bookings


@pytest.fixture()
def registrations(default_config):
    return {r.qualifier: r for r in default_config.experts}


@pytest.fixture()
def documents(default_config):
    return default_config.documents


def test_medicine_complaint_routes_to_pharmacy_with_rephrasing(registrations):
    decision = route("bad taste of medicine", registrations, ScriptedRouterModel(), "complaint")
    assert decision == RoutingDecision(
        destination="Pharmacy",
        next_inputs="I have a complaint about the bad taste of a medication.",
    )


def test_vaccine_reservation_routes_to_scheduling(registrations):
    decision = route(
        "I want to reserve a reservation for the flu vaccine", registrations, ScriptedRouterModel(),
        "request",
    )
    assert decision.destination == "Scheduling"
    assert decision.next_inputs == "I would like to reserve a reservation for the flu vaccine."


def test_cueless_item_falls_back_to_the_complaint_department(registrations):
    decision = route("qwerty asdf zxcv", registrations, ScriptedRouterModel(), "request")
    assert decision.destination == "ComplaintDepartment"


def test_route_requires_registrations():
    with pytest.raises(ValueError):
        route("anything", {}, ScriptedRouterModel(), "request")


def test_route_is_total_over_random_text(registrations):
    rng = random.Random(7)
    qualifiers = set(registrations)
    for _ in range(100):
        text = " ".join(
            "".join(rng.choice(string.ascii_lowercase) for _ in range(rng.randint(1, 8)))
            for _ in range(rng.randint(1, 10))
        )
        assert route(text, registrations, ScriptedRouterModel(), "request").destination in qualifiers


def test_unregistered_model_choice_is_corrected_to_catch_all(registrations):
    class WildModel:
        def route(self, item_text, regs, kind):
            return RoutingDecision(destination="Nonexistent", next_inputs=item_text)

    decision = route("anything", registrations, WildModel(), "request")
    assert decision.destination == "ComplaintDepartment"


def test_an_item_is_rephrased_as_the_kind_of_its_list():
    # "late" is no complaint cue of the defaults; the item's list decides.
    assert rephrase("My order is late", "complaint") == "I have a complaint about my order is late."
    assert rephrase("I want to book a flu shot", "request") == "I would like to book a flu shot."


def test_a_bundle_complaint_without_a_default_cue_reaches_its_expert_as_a_complaint(tmp_path):
    bundle = yaml.safe_load(Path(default_config_path()).read_text())
    bundle["llm"]["cues"]["complaint"] = ["late"]
    config_path = tmp_path / "config.yaml"
    config_path.write_text(yaml.safe_dump(bundle))
    corpus = [{"phone": "+15550001", "text": "1. My order is late"}]
    result = run_pipeline(load_config(config_path), corpus)
    assert result.report["messages"][0]["routing"] == ["ComplaintDepartment"]
    [entry] = result.pipeline.store.queue("customer-support").read_all()
    assert entry["next_inputs"] == "I have a complaint about my order is late."


def test_forward_to_queue_appends_verbatim(registrations):
    store = RunStore()
    decision = route("bad taste of medicine", registrations, ScriptedRouterModel(), "complaint")
    entry_id = forward_to_queue(store, "pharmacist", "A1001", decision)
    records = store.queue("pharmacist").read_all()
    assert records[entry_id]["next_inputs"] == decision.next_inputs
    assert records[entry_id]["destination"] == "Pharmacy"
    # The queue and entry are typed fields; "destination" would read as a second routing.
    [step] = store.get_history("A1001")
    assert (step["note"], step["queue"], step["entry"]) == ("queued", "pharmacist", entry_id)
    assert "destination" not in step


def test_two_forwards_get_distinct_entry_ids(registrations):
    store = RunStore()
    decision = RoutingDecision("ComplaintDepartment", "I have a complaint about the service.")
    first = forward_to_queue(store, "customer-support", "A1001", decision)
    second = forward_to_queue(store, "customer-support", "A1001", decision)
    assert first != second
    assert len(store.queue("customer-support").read_all()) == 2


def test_holiday_hours_question_finds_the_holiday_document(documents):
    answer = answer_store_question("what are your holiday hours", documents)
    assert answer == "On public holidays we are open 10am to 4pm."


def test_exact_document_question_answers_itself(documents):
    for doc in documents:
        assert answer_store_question(doc.question, documents) == doc.answer


def test_gibberish_question_gets_the_referral_answer(documents):
    assert answer_store_question("xyzzy frobnicate", documents) == REFERRAL_ANSWER


def test_empty_store_gets_the_referral_answer():
    assert answer_store_question("where are you located", []) == REFERRAL_ANSWER


def _answer_by_retokenizing(question, documents):
    """The store answer as first written: every document re-tokenized per call."""
    stop = {"what", "are", "your", "the", "of", "is", "a", "an", "do", "you", "have", "i", "my", "to"}

    def tokens(text):
        return {t for t in re.split(r"[^\w]+", text.lower()) if t} - stop

    best_doc, best_score = None, 0
    for doc in documents:
        score = len(tokens(question) & tokens(doc.question))
        if score > best_score:
            best_score, best_doc = score, doc
    return REFERRAL_ANSWER if best_doc is None else best_doc.answer


def test_store_answers_match_retokenizing_every_document(monkeypatch):
    # Every store question a campaign routes, every store-question template
    # of the campaigns, every demo text (the demo routes none) and every
    # configured document question, in both document orders.
    asked = []

    def recording(question, documents):
        asked.append(question)
        return answer_store_question(question, documents)

    monkeypatch.setattr(experts, "answer_store_question", recording)
    monkeypatch.syspath_prepend(str(Path(__file__).resolve().parents[1] / "benchmarks"))
    bench_gen = importlib.import_module("bench_gen")
    workload = bench_gen.campaign(1, 1000)
    config = load_config(default_config_path())
    bench_gen.extend_config(config, workload.customers)
    run_pipeline(config, list(workload.corpus), seed=1, add_keyword_rate=0.1, drop_keyword_rate=0.1)
    assert len(set(asked)) >= len(bench_gen.STORE_QUESTIONS)

    documents = config.documents
    questions = sorted(set(asked)) + list(bench_gen.STORE_QUESTIONS)
    questions += [entry["text"] for entry in load_corpus(default_corpus_path())]
    questions += [doc.question for doc in documents]
    for question in questions:
        assert answer_store_question(question, documents) == _answer_by_retokenizing(question, documents)
        assert answer_store_question(question, documents[::-1]) == _answer_by_retokenizing(
            question, documents[::-1]
        )


def test_slot_line_round_trip():
    slot = SlotCandidate(2025, 6, 29, 10)
    assert slot.line() == "year: 2025, month: 6, day: 29, hours: 10"
    assert parse_slot_line(slot.line()) == slot


def test_malformed_slot_lines_rejected():
    with pytest.raises(ValueError):
        parse_slot_line("year 2025 month 6")
    with pytest.raises(ValueError):
        parse_slot_line("year: 2025, month: 13, day: 1, hours: 10")
    with pytest.raises(ValueError):
        SlotCandidate(2025, 2, 30, 10)
    with pytest.raises(ValueError):
        SlotCandidate(2025, 2, 3, 24)


def test_scheduler_parses_dates_and_dayparts():
    model = ScriptedSchedulerModel()
    lines = model.propose(
        "I want an appointment on Saturday 03/22/2025 afternoon or Sunday 03/23/2025 morning",
        reference_date=date(2025, 1, 1),
    )
    slots = [parse_slot_line(l) for l in lines]
    assert slots[0] == SlotCandidate(2025, 3, 22, 13)
    assert SlotCandidate(2025, 3, 23, 9) in slots
    assert all(13 <= s.hours <= 17 for s in slots if s.day == 22)
    assert all(9 <= s.hours <= 12 for s in slots if s.day == 23)


def test_scheduler_resolves_bare_weekdays_against_the_reference_date():
    model = ScriptedSchedulerModel()
    lines = model.propose("next Monday morning", reference_date=date(2025, 1, 1))  # a Wednesday
    slots = [parse_slot_line(l) for l in lines]
    assert slots and all(s.year == 2025 and s.month == 1 and s.day == 6 for s in slots)


def test_schedule_books_the_first_candidate_with_capacity():
    availability = AvailabilityStore({SlotCandidate(2025, 3, 22, 15): 3})
    result = book_first(
        parse_proposal(
            "Saturday 03/22/2025 afternoon or Sunday 03/23/2025 morning",
            ScriptedSchedulerModel(),
            date(2025, 1, 1),
        ),
        availability,
    )
    assert result.booked == SlotCandidate(2025, 3, 22, 15)
    assert remaining_bookings(availability, [SlotCandidate(2025, 3, 22, 15)]) == 2
    assert "Saturday, March 22, 2025, at 3 PM" in result.reply


def test_schedule_without_capacity_returns_call_us():
    availability = AvailabilityStore({})
    result = book_first(
        parse_proposal("03/22/2025 morning", ScriptedSchedulerModel(), date(2025, 1, 1)), availability
    )
    assert result.booked is None and result.reply == CALL_US_REPLY


def test_schedule_without_date_constraints_proposes_nothing():
    availability = AvailabilityStore({SlotCandidate(2025, 3, 22, 15): 1})
    result = book_first(
        parse_proposal(
            "I want to reserve a reservation for the flu vaccine",
            ScriptedSchedulerModel(),
            date(2025, 1, 1),
        ),
        availability,
    )
    assert result.candidates == [] and result.booked is None
    assert remaining_bookings(availability, [SlotCandidate(2025, 3, 22, 15)]) == 1


def test_malformed_candidate_lines_are_skipped_with_a_warning():
    class SloppyModel:
        def propose(self, text, reference_date):
            return ["year: 2025, month: 2, day: 30, hours: 9", "not a slot",
                    "year: 2025, month: 3, day: 22, hours: 15"]

    availability = AvailabilityStore({SlotCandidate(2025, 3, 22, 15): 1})
    result = book_first(parse_proposal("whatever", SloppyModel(), date(2025, 1, 1)), availability)
    assert result.booked == SlotCandidate(2025, 3, 22, 15)
    assert len(result.warnings) == 2


def test_booking_is_grounded_in_proposed_candidates():
    rng = random.Random(19)
    model = ScriptedSchedulerModel()
    for _ in range(100):
        month = rng.randint(1, 12)
        day = rng.randint(1, 28)
        request = f"{month:02d}/{day:02d}/2025 {'morning' if rng.random() < 0.5 else 'afternoon'}"
        slots = {
            SlotCandidate(2025, rng.randint(1, 12), rng.randint(1, 28), rng.randint(8, 18)): rng.randint(0, 2)
            for _ in range(rng.randint(0, 6))
        }
        availability = AvailabilityStore(dict(slots))
        before = sum(slots.values())
        result = book_first(parse_proposal(request, model, date(2025, 1, 1)), availability)
        if result.booked is not None:
            assert result.booked in result.candidates
            assert remaining_bookings(availability, slots) == before - 1
        else:
            assert remaining_bookings(availability, slots) == before


def test_concurrent_bookings_of_a_single_slot_book_exactly_once():
    slot = SlotCandidate(2025, 3, 22, 15)
    availability = AvailabilityStore({slot: 1})
    with ThreadPoolExecutor(max_workers=16) as pool:
        results = list(pool.map(lambda _: availability.book(slot), range(64)))
    assert sum(results) == 1
    assert remaining_bookings(availability, [slot]) == 0


def test_negative_capacity_rejected():
    with pytest.raises(ValueError):
        AvailabilityStore({SlotCandidate(2025, 1, 1, 9): -1})


# -- the router's caches ------------------------------------------------------------

def _router(config, slots=None):
    store = RunStore()
    availability = AvailabilityStore(config.availability if slots is None else slots)
    router = RouterAgent(
        config.experts, config.documents, availability, store, OutboundSmsGateway(store)
    )
    return router, store


_KINDS = st.sampled_from(["complaint", "request"])
_ITEMS = st.one_of(
    st.text(alphabet=string.ascii_letters + " .,!?", max_size=40),
    st.lists(st.sampled_from(
        ["the", "medicine", "tastes", "bad", "reserve", "flu", "vaccine", "hours", "holiday",
         "open", "please", "can you", "I want to"]
    ), max_size=8).map(" ".join),
)
_REQUESTS = st.lists(st.sampled_from(
    ["book", "Monday", "saturday", "03/22/2025", "02/30/2025", "morning", "afternoon", "or", ";"]
), max_size=8).map(" ".join)


@settings(max_examples=100, deadline=None)
@given(items=st.lists(st.tuples(_ITEMS, _KINDS), min_size=1, max_size=6))
def test_cached_routing_equals_the_uncached_route(default_config, items):
    router, _ = _router(default_config)
    registrations = {r.qualifier: r for r in default_config.experts}
    for text, kind in items + items:  # the second round hits
        assert router.routing(text, kind=kind) == route(text, registrations, ScriptedRouterModel(), kind)
    info = router.routing.cache_info()
    assert info.misses == info.currsize == len(set(items))


@settings(max_examples=100, deadline=None)
@given(requests=st.lists(
    st.tuples(_REQUESTS, st.dates(date(2024, 1, 1), date(2026, 12, 31))), min_size=1, max_size=6
))
def test_cached_proposals_equal_the_uncached_parse(default_config, requests):
    router, _ = _router(default_config)
    model = ScriptedSchedulerModel()
    for text, day in requests + requests:
        candidates, warnings = router.proposal(text, reference_date=day)
        assert list(candidates) == [parse_slot_line(line) for line in model.propose(text, day)]
        assert warnings == ()
    info = router.proposal.cache_info()
    assert info.misses == info.currsize == len(set(requests))


def test_the_router_caches_are_bounded(default_config):
    router, _ = _router(default_config)
    for i in range(READING_MEMO_SIZE + 5):
        router.routing(f"the pill number {i}", kind="complaint")
        router.proposal(f"book 03/22/2025 morning {i}", reference_date=date(2025, 1, 1))
    for cache in (router.routing, router.proposal):
        info = cache.cache_info()
        assert info.currsize == info.maxsize == READING_MEMO_SIZE


def test_a_caller_that_mutates_a_routing_or_booking_changes_no_later_answer(default_config):
    router, _ = _router(default_config)
    decision = router.routing("the medicine tastes bad", kind="complaint")
    with pytest.raises(dataclasses.FrozenInstanceError):
        decision.destination = "Nowhere"
    assert router.routing("the medicine tastes bad", kind="complaint") == decision

    slot = SlotCandidate(2025, 3, 22, 13)
    availability = AvailabilityStore({slot: 5})
    first = book_first(router.proposal("03/22/2025 afternoon", reference_date=date(2025, 1, 1)),
                       availability)
    first.candidates.clear()
    first.warnings.append("noise")
    again = book_first(router.proposal("03/22/2025 afternoon", reference_date=date(2025, 1, 1)),
                       availability)
    assert router.proposal.cache_info().hits == 1
    assert again.booked == slot and again.candidates[0] == slot and again.warnings == []


def test_book_first_logs_each_skipped_line_per_call(caplog):
    proposal = ((SlotCandidate(2025, 3, 22, 15),), ("malformed slot line: 'x'",))
    availability = AvailabilityStore({SlotCandidate(2025, 3, 22, 15): 2})
    with caplog.at_level(logging.WARNING, logger="smsflow.experts"):
        results = [book_first(proposal, availability) for _ in range(2)]
    assert [r.warnings for r in results] == [["malformed slot line: 'x'"]] * 2
    assert caplog.messages == ["skipping slot candidate: malformed slot line: 'x'"] * 2


def test_a_repeated_request_is_booked_logged_and_answered_per_call(default_config):
    slot = SlotCandidate(2025, 3, 22, 13)
    router, store = _router(default_config, {slot: 1})
    request = "I want to book an appointment on 03/22/2025 afternoon"

    def s004(event_id):
        return {
            "metadata": {"eventId": event_id, "customerId": "C1001", "stepId": "S004"},
            "keywords": {"outcome": "process", "accepted": {"renew": [], "stop": []}},
            "extraction": {"outcome": "route", "chosen": {"request": [request]}, "scores": {}},
        }

    assert router.routing(request, kind="request").destination == "Scheduling"
    for event_id in ("A1", "A2"):
        router.handle(Envelope("agents", 0, s004(event_id)))
    assert router.proposal.cache_info().hits == 1
    assert [(b["eventId"], b["booked"]) for b in store.bookings.read_all()] == [
        ("A1", True), ("A2", False)
    ]
    assert [(s["eventId"], s["kind"]) for s in store.outbound_sms.read_all()] == [
        ("A1", "booking-confirmation"), ("A2", "generic")
    ]
    assert store.outbound_sms.read_all()[1]["text"] == CALL_US_REPLY


# -- closing a failed event -----------------------------------------------------------

_METADATA = {
    "type": "renewal", "eventId": "A1001", "customerId": "C1001", "stepId": "S001",
    "customerEventTime": "2025-01-01T00:00:00Z", "lastUpdateTime": "2025-01-01T00:00:00Z",
}
_NOTHING = {"renew": [], "stop": []}


def _evaluator_fails(config):
    store = RunStore()
    evaluator = EvaluatorAgent(
        {}, config.default_profile, config.importance_system, config.action_system,
        store, MessagePool(), PharmacyClient(store), OutboundSmsGateway(store),
    )
    low = {"high": 0.0, "intermediate": 0.0, "low": 1.0}
    evaluator.evaluate(
        {"metadata": _METADATA, "renew": ["1"], "stop": [], "degreeOfConfidence": low},
        CustomerProfile("C1001", 0, 0),
    )
    return store


def _router_reads(keywords, extraction):
    def handle(config):
        router, store = _router(config)
        doc = {"metadata": {**_METADATA, "stepId": "S004"}, "keywords": keywords, "extraction": extraction}
        router.handle(Envelope(AGENTS_TOPIC, 1, doc))
        return store
    return handle


@pytest.mark.parametrize("close, agent", [
    pytest.param(_evaluator_fails, "EvaluatorAgent", id="evaluator-fail"),
    pytest.param(_router_reads(
        {"accepted": _NOTHING, "discarded": [], "outcome": "fail", "attempt": 2}, None,
    ), "RouterAgent", id="router-failed-verdict"),
    pytest.param(_router_reads(
        {"accepted": _NOTHING, "discarded": [], "outcome": "process", "attempt": 1},
        {"chosen": {**_NOTHING, "complaint": [], "request": [], "mood": "neutral"},
         "chosen_model": "alpha", "scores": {"alpha": 8, "beta": 8}, "outcome": "route"},
    ), "RouterAgent", id="router-not-understood"),
])
def test_a_failed_event_gets_one_contact_support_sms_then_one_failed_terminal(default_config, close, agent):
    store = close(default_config)
    assert [s["kind"] for s in store.outbound_sms.read_all()] == ["contact-support"]
    steps = [(r["agent"], r["note"], r["terminal"]) for r in store.steps_of("A1001")]
    assert [s for s in steps if s[2] or s[1].startswith("sms:")] == [
        ("OutboundSmsService", "sms:contact-support", False),
        (agent, "failed", True),
    ]
