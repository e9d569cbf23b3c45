import re
import sys
import threading

import pytest

from smsflow.messages import INCOMING_TOPIC
from smsflow.pool import MessagePool
from smsflow.store import (
    CONTACT_SUPPORT_TEXT,
    TERMINAL_FAILED,
    CustomerAuthTable,
    IncomingSmsGateway,
    JsonlLog,
    LogicalClock,
    MissingOriginalError,
    OutboundSmsGateway,
    PharmacyClient,
    RunStore,
    read_jsonl,
)

from conftest import drained, terminal_notes


def _gateway(store=None, pool=None):
    store = store or RunStore()
    pool = pool or MessagePool()
    auth = CustomerAuthTable(phones={"+15550001": "C1001", "+15550002": "C1002"})
    return IncomingSmsGateway(auth, store, pool), store, pool


def test_known_phone_publishes_a_renewal_event():
    gateway, store, pool = _gateway()
    sub = pool.subscribe(INCOMING_TOPIC)
    event = gateway.ingest_sms("+15550001", "no, 2")
    assert event is not None
    assert event.metadata.customer_id == "C1001"
    got = drained(sub)
    assert [doc["metadata"]["eventId"] for doc in got] == [event.metadata.event_id]
    assert list(got[0]["metadata"]) == [
        "eventId", "customerId", "stepId", "customerEventTime", "lastUpdateTime",
    ]
    assert got[0]["body"] == "no, 2"
    notes = [r["note"] for r in store.get_history(event.metadata.event_id)]
    assert notes == ["ingested"]


def test_unknown_phone_records_auth_failure_and_publishes_nothing():
    gateway, store, pool = _gateway()
    head_before = pool.head(INCOMING_TOPIC)
    assert gateway.ingest_sms("+19990000", "hello") is None
    assert pool.head(INCOMING_TOPIC) == head_before
    failures = store.auth_failures.read_all()
    assert len(failures) == 1 and failures[0]["phone"] == "+19990000"


def test_each_ingest_gets_a_distinct_event_id():
    gateway, _, _ = _gateway()
    a = gateway.ingest_sms("+15550001", "same text")
    b = gateway.ingest_sms("+15550001", "same text")
    assert a.metadata.event_id != b.metadata.event_id
    assert a.metadata.event_id.startswith("A")


def test_step_history_preserves_append_order():
    store = RunStore()
    store.record_step("E1", "S001", "AgentA", "first")
    store.record_step("E2", "S001", "AgentB", "other-event")
    store.record_step("E1", "S002", "AgentC", "second")
    history = store.get_history("E1")
    assert [r["note"] for r in history] == ["first", "second"]
    times = [r["recorded_at"] for r in history]
    assert times == sorted(times)


def test_concurrent_recording_keeps_the_step_log_and_histories_in_seq_order():
    store = RunStore()
    start = threading.Barrier(4, timeout=30)

    def record(worker):
        start.wait()
        for i in range(3000):
            store.record_step(f"E{i % 7}", "S001", f"Agent{worker}", "x")

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)  # switch threads as often as the interpreter can
    try:
        threads = [threading.Thread(target=record, args=(w,)) for w in range(4)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=60)
    finally:
        sys.setswitchinterval(interval)
    assert not any(thread.is_alive() for thread in threads)
    assert [r["seq"] for r in store.steps.read_all()] == list(range(1, 12001))
    for event in range(7):
        seqs = [r["seq"] for r in store.get_history(f"E{event}")]
        assert seqs == sorted(seqs)


def test_unknown_event_has_empty_history():
    assert RunStore().get_history("nope") == []


def test_terminal_bookkeeping():
    store = RunStore()
    store.record_step("E1", "S001", "A", "working")
    assert terminal_notes(store, "E1") == []
    store.record_step("E1", "S004", "A", "done", terminal=True)
    assert terminal_notes(store, "E1") == ["done"]


def test_originals_round_trip_byte_exact():
    store = RunStore()
    text = "1, unenroll. Thank you — déjà vu"
    store.store_original("E1", text)
    assert store.fetch_original("E1") == text


def test_fetch_before_store_is_a_hard_error():
    with pytest.raises(MissingOriginalError):
        RunStore().fetch_original("E1")


def test_overwriting_an_original_is_idempotent():
    store = RunStore()
    store.store_original("E1", "same")
    store.store_original("E1", "same")
    assert store.fetch_original("E1") == "same"


def test_send_sms_records_kind():
    store = RunStore()
    outbound = OutboundSmsGateway(store)
    outbound.send_sms("C1001", "call us", "contact-support", "E1", "S004")
    outbound.send_sms("C1001", "confirm?", "confirm-stop", "E1", "S004")
    support = outbound.close_failed("C1002", "E2", "S001", "EvaluatorAgent")
    records = store.outbound_sms.read_all()
    assert [r["kind"] for r in records] == ["contact-support", "confirm-stop", "contact-support"]
    assert records[2] is support
    assert support["text"] == CONTACT_SUPPORT_TEXT
    assert (support["customerId"], support["eventId"]) == ("C1002", "E2")
    # Each SMS is recorded under its sender's step, the failed close's SMS under the failed step.
    assert [(r["stepId"], r["note"]) for r in store.get_history("E2")] == [
        ("S001", "sms:contact-support"), ("S001", TERMINAL_FAILED),
    ]
    assert {r["stepId"] for r in store.get_history("E1")} == {"S004"}


def test_unknown_sms_kind_rejected():
    outbound = OutboundSmsGateway(RunStore())
    with pytest.raises(ValueError):
        outbound.send_sms("C1001", "hi", "postcard", "E1", "S004")


def test_pharmacy_apply_is_idempotent_per_event_and_keyword():
    store = RunStore()
    client = PharmacyClient(store)
    assert client.apply("E1", "C1001", "1", "renew") == "applied"
    assert client.apply("E1", "C1001", "1", "renew") == "duplicate"
    assert len(store.pharmacy.read_all()) == 1
    # Same keyword for another event is independent.
    assert client.apply("E2", "C1001", "1", "renew") == "applied"


def test_pharmacy_records_one_row_per_keyword():
    store = RunStore()
    client = PharmacyClient(store)
    client.apply("E1", "C1001", "1", "renew")
    client.apply("E1", "C1001", "unenroll", "stop")
    assert [r["keyword"] for r in store.pharmacy.read_all() if r["eventId"] == "E1"] == ["1", "unenroll"]


def test_logical_clock_only_advances_when_told():
    clock = LogicalClock()
    first = clock.now_iso()
    assert clock.now_iso() == first
    clock.advance()
    assert clock.now_iso() > first

    # The stamp is cached per tick; it must always equal a fresh format.
    store = RunStore()
    clock = store.clock
    advanced = 0
    for target in (0, 1, 1000):
        while advanced < target:
            clock.advance()
            advanced += 1
        assert clock.now_iso() == clock.now().strftime("%Y-%m-%dT%H:%M:%SZ")
    assert clock.now_iso() == "2025-01-01T00:16:40Z"

    before = store.record_step("E1", "S000", "Agent", "before")["recorded_at"]
    clock.advance()
    after = store.record_step("E1", "S000", "Agent", "after")["recorded_at"]
    assert before == "2025-01-01T00:16:40Z"
    assert after == "2025-01-01T00:16:41Z" == clock.now_iso()


def test_clock_stamps_equal_strftime_across_a_day_boundary():
    clock = LogicalClock()
    for tick in range(86400 + 3601):
        assert clock.now_iso() == clock.now().strftime("%Y-%m-%dT%H:%M:%SZ"), tick
        clock.advance()
    assert clock.now_iso() == "2025-01-02T01:00:01Z"


def test_timestamps_parse_as_utc():
    from datetime import datetime, timezone

    clock = LogicalClock()
    clock.advance()
    stamp = clock.now_iso()
    parsed = datetime.strptime(stamp, "%Y-%m-%dT%H:%M:%SZ").replace(tzinfo=timezone.utc)
    assert parsed == clock.now()


def test_jsonl_log_mirrors_to_disk(tmp_path):
    path = tmp_path / "things.jsonl"
    log = JsonlLog(path)
    log.append({"a": 1})
    log.append({"b": 2})
    assert list(read_jsonl(path)) == [{"a": 1}, {"b": 2}]
    log.close()


def test_run_store_writes_the_declared_layout(tmp_path):
    store = RunStore(tmp_path)
    store.record_step("E1", "S001", "A", "x")
    store.store_original("E1", "text")
    store.queue("pharmacist").append({"eventId": "E1"})
    for name in ("steps.jsonl", "originals.jsonl", "outbound_sms.jsonl",
                 "pharmacy.jsonl", "bookings.jsonl", "answers.jsonl"):
        assert (tmp_path / name).exists()
    assert (tmp_path / "queues" / "pharmacist.jsonl").exists()
    assert list(read_jsonl(tmp_path / "steps.jsonl"))[0]["eventId"] == "E1"
    store.close()


def test_disk_records_are_readable_before_close(tmp_path):
    store = RunStore(tmp_path)
    store.record_step("E1", "S001", "A", "first")
    assert [r["note"] for r in read_jsonl(tmp_path / "steps.jsonl")] == ["first"]
    store.store_original("E1", "text")
    assert list(read_jsonl(tmp_path / "originals.jsonl")) == [{"eventId": "E1", "text": "text"}]
    store.queue("pharmacist").append({"eventId": "E1"})
    assert list(read_jsonl(tmp_path / "queues" / "pharmacist.jsonl")) == [{"eventId": "E1"}]
    store.record_step("E1", "S002", "A", "second")
    assert [r["note"] for r in read_jsonl(tmp_path / "steps.jsonl")] == ["first", "second"]
    store.close()


def test_closed_store_keeps_reads_and_refuses_appends(tmp_path):
    store = RunStore(tmp_path)
    store.record_step("E1", "S001", "A", "x")
    store.queue("pharmacist").append({"eventId": "E1"})
    store.close()
    store.close()

    assert len(store.steps) == 1
    assert [r["note"] for r in store.steps.read_all()] == ["x"]
    assert [r["note"] for r in store.get_history("E1")] == ["x"]
    assert store.queue("pharmacist").read_all() == [{"eventId": "E1"}]
    with pytest.raises(ValueError):
        store.record_step("E1", "S002", "A", "y")
    with pytest.raises(ValueError):
        store.queue("pharmacist").append({"eventId": "E2"})
    with pytest.raises(ValueError):
        store.queue("customer-support")

    # Nothing was reopened or truncated, and the refused appends left no trace.
    assert not (tmp_path / "queues" / "customer-support.jsonl").exists()
    assert [r["note"] for r in read_jsonl(tmp_path / "steps.jsonl")] == ["x"]
    assert list(read_jsonl(tmp_path / "queues" / "pharmacist.jsonl")) == [{"eventId": "E1"}]
    assert len(store.steps) == 1
    assert [p.name for p in (tmp_path / "queues").iterdir()] == ["pharmacist.jsonl"]


def test_jsonl_log_append_after_close_raises(tmp_path):
    path = tmp_path / "things.jsonl"
    log = JsonlLog(path)
    log.append({"a": 1})
    log.close()
    with pytest.raises(ValueError):
        log.append({"b": 2})
    assert log.read_all() == [{"a": 1}]
    assert list(read_jsonl(path)) == [{"a": 1}]


def test_read_jsonl_skips_blank_and_whitespace_only_lines(tmp_path):
    path = tmp_path / "things.jsonl"
    path.write_text('\n{"a": 1}\n   \n\t\n{"b": 2}\n\n', encoding="utf-8")
    assert list(read_jsonl(path)) == [{"a": 1}, {"b": 2}]


def test_read_jsonl_reads_a_last_line_without_a_newline(tmp_path):
    path = tmp_path / "things.jsonl"
    path.write_text('{"a": 1}\n{"b": 2}', encoding="utf-8")
    assert list(read_jsonl(path)) == [{"a": 1}, {"b": 2}]


def test_read_jsonl_reads_an_empty_file_as_no_records(tmp_path):
    path = tmp_path / "things.jsonl"
    path.write_text("", encoding="utf-8")
    assert list(read_jsonl(path)) == []


@pytest.mark.parametrize(
    "text",
    ['{"a":1},{"b":2}\n', "[1,\n2]\n", "1,2\n[3\n4]\n", "nul\n"],
    ids=["two-values-on-one-line", "one-value-over-two-lines", "the-two-cancel-out", "no-value"],
)
def test_read_jsonl_refuses_anything_but_one_value_per_line(tmp_path, text):
    path = tmp_path / "things.jsonl"
    path.write_text(text, encoding="utf-8")
    with pytest.raises(ValueError, match=re.escape(str(path))):
        list(read_jsonl(path))


def test_record_step_keeps_typed_fields_on_the_record(tmp_path):
    store = RunStore(tmp_path)
    accepted = {"renew": ["1"], "stop": []}
    record = store.record_step("E1", "S004", "R", "done", terminal=True, accepted=accepted, scores=None)
    assert record["accepted"] is accepted  # the agent's own dict, not a copy
    assert store.get_history("E1")[0]["scores"] is None
    store.close()
    [written] = read_jsonl(tmp_path / "steps.jsonl")
    assert written["accepted"] == accepted and written["scores"] is None


@pytest.mark.parametrize("key", ["seq", "eventId", "stepId", "recorded_at"])
def test_record_step_refuses_a_field_that_shadows_a_base_key(key):
    store = RunStore()
    with pytest.raises(ValueError, match=key):
        store.record_step("E1", "S001", "A", "x", **{key: "forged"})
    assert store.get_history("E1") == [] and len(store.steps) == 0
