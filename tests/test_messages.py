import json
import tempfile
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

from smsflow.messages import (
    DegreeOfConfidence,
    Metadata,
    RenewalProcessed,
    SmsEvent,
    canonical_json,
    event_and_step,
    payload_digest,
    restamped,
)
from smsflow.store import JsonlLog


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
    # A stage passing a document on re-stamps the wire form alike.
    doc = meta.to_doc()
    assert restamped(doc, "S002", "2025-01-15T10:50:00Z") == moved.to_doc()
    assert doc == meta.to_doc()


def test_payload_digest_is_stable_under_key_order():
    assert payload_digest({"a": 1, "b": 2}) == payload_digest({"b": 2, "a": 1})
    assert payload_digest({"a": 1}) != payload_digest({"a": 2})


_JSON = st.recursive(
    st.one_of(
        st.none(), st.booleans(), st.integers(), st.floats(),
        st.sampled_from([1e-05, 1e16, -0.0, 0.1, 2.5e-300]), st.text(),
    ),
    lambda children: st.one_of(
        st.lists(children, max_size=4), st.dictionaries(st.text(max_size=6), children, max_size=4)
    ),
    max_leaves=20,
)


@settings(max_examples=200, deadline=None)
@given(value=_JSON)
def test_prebuilt_encoders_match_json_dumps(value):
    assert canonical_json(value) == json.dumps(value, sort_keys=True, separators=(",", ":"))
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "log.jsonl"
        log = JsonlLog(path)
        log.append({"v": value})
        log.close()
        assert path.read_text(encoding="utf-8") == json.dumps({"v": value}, sort_keys=True) + "\n"


@pytest.mark.parametrize("bad", [object(), {1, 2}, b"bytes", [1, {"a": object()}]],
                         ids=["object", "set", "bytes", "nested-object"])
def test_prebuilt_encoders_still_refuse_unserializable_values(tmp_path, bad):
    path = tmp_path / "log.jsonl"
    log = JsonlLog(path)
    with pytest.raises(TypeError):
        canonical_json({"a": bad})
    with pytest.raises(TypeError):
        log.append({"a": bad})
    # A refusal leaves nothing behind for the next value.
    assert canonical_json({"a": [1]}) == '{"a":[1]}'
    log.append({"a": [1]})
    log.close()
    assert log.read_all() == [{"a": [1]}]
    assert path.read_text(encoding="utf-8") == '{"a": [1]}\n'
