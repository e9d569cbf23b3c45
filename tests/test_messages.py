import pytest

from smsflow.messages import (
    DegreeOfConfidence,
    Metadata,
    RenewalProcessed,
    SmsEvent,
    event_and_step,
    payload_digest,
)


def _metadata(step="S001"):
    return Metadata(
        type="renewal",
        event_id="A1010",
        customer_id="C1001",
        step_id=step,
        customer_event_time="2025-01-15T10:48:46Z",
        last_update_time="2025-01-15T10:49:08Z",
    )


def test_event_and_step_read_the_metadata_ids():
    assert event_and_step({"metadata": {"eventId": "A1", "stepId": "S001"}}) == ("A1", "S001")
    assert event_and_step({"metadata": {"eventId": "A1", "stepId": None}}) == ("A1", "")
    for doc in ({}, {"metadata": "A1"}, None, "text"):
        assert event_and_step(doc) == ("", "")


def test_parsed_document_uses_the_declared_field_names():
    doc = RenewalProcessed(
        metadata=_metadata(),
        renew=["keyword1", "keyword2"],
        stop=["keyword3"],
        confidence=DegreeOfConfidence(high=0.85, medium=0.6, low=0.0),
    ).to_doc()
    assert list(doc) == ["metadata", "renew", "stop", "degreeOfConfidence"]
    assert list(doc["metadata"]) == [
        "type", "eventId", "customerId", "stepId", "customerEventTime", "lastUpdateTime",
    ]
    # The middle confidence label is serialized as "intermediate".
    assert doc["degreeOfConfidence"] == {"high": 0.85, "intermediate": 0.6, "low": 0.0}


def test_parsed_document_round_trips():
    original = RenewalProcessed(
        metadata=_metadata(),
        renew=["1"],
        stop=["unenroll"],
        confidence=DegreeOfConfidence(1.0, 0.0, 0.0),
    )
    assert RenewalProcessed.from_doc(original.to_doc()).to_doc() == original.to_doc()


def test_confidence_parses_either_middle_label_spelling():
    # "intermediate" on the wire, "medium" in the engine; the wire has only its own spelling.
    wire = DegreeOfConfidence.from_doc({"high": 0.1, "intermediate": 0.2, "low": 0.3})
    assert wire == DegreeOfConfidence(high=0.1, medium=0.2, low=0.3)
    assert wire.as_degrees() == {"high": 0.1, "medium": 0.2, "low": 0.3}
    assert DegreeOfConfidence.from_doc(wire.to_doc()) == wire
    with pytest.raises(KeyError):
        DegreeOfConfidence.from_doc({"high": 0.1, "medium": 0.2, "low": 0.3})


def test_sms_event_round_trips():
    event = SmsEvent(metadata=_metadata(step="S000"), body="no, 2")
    assert SmsEvent.from_doc(event.to_doc()).to_doc() == event.to_doc()


def test_metadata_at_step_rewrites_only_step_and_update_time():
    meta = _metadata()
    moved = meta.at_step("S002", last_update="2025-01-15T10:50:00Z")
    assert moved.step_id == "S002"
    assert moved.last_update_time == "2025-01-15T10:50:00Z"
    assert moved.event_id == meta.event_id
    assert meta.step_id == "S001"  # original untouched


def test_payload_digest_is_stable_under_key_order():
    assert payload_digest({"a": 1, "b": 2}) == payload_digest({"b": 2, "a": 1})
    assert payload_digest({"a": 1}) != payload_digest({"a": 2})
