import json
import tempfile
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

from smsflow.messages import (
    AGENTS_TOPIC,
    DegreeOfConfidence,
    Metadata,
    SmsEvent,
    event_and_step,
    restamped,
)
from smsflow.pool import MessagePool
from smsflow.renewal import RenewalAgent
from smsflow.store import JsonlLog, RunStore

from conftest import drained


def _metadata(step="S001"):
    return Metadata(
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


def test_parsed_document_uses_the_declared_field_names(lexicon, confidence_var):
    pool = MessagePool()
    sub = pool.subscribe(AGENTS_TOPIC)
    agent = RenewalAgent(lexicon, confidence_var, RunStore(), pool)
    partial = agent.process(SmsEvent(_metadata(step="S000"), "renew 1 2 x. 1, unenroll").to_doc())
    full = agent.process(SmsEvent(_metadata(step="S000"), "1, unenroll").to_doc())
    assert drained(sub) == [partial, full]
    assert list(partial) == ["metadata", "renew", "stop", "degreeOfConfidence"]
    assert list(partial["metadata"]) == [
        "eventId", "customerId", "stepId", "customerEventTime", "lastUpdateTime",
    ]
    assert (partial["renew"], partial["stop"]) == (["1"], ["unenroll"])
    # The middle confidence label is serialized as "intermediate".
    assert list(partial["degreeOfConfidence"]) == ["high", "intermediate", "low"]
    assert partial["degreeOfConfidence"]["intermediate"] > 0
    # "fullMatch" appears only when true.
    assert list(full) == ["metadata", "renew", "stop", "degreeOfConfidence", "fullMatch"]
    assert full["fullMatch"] is True


def test_confidence_parses_either_middle_label_spelling():
    # "intermediate" on the wire, "medium" in the engine; the wire has only its own spelling.
    wire = DegreeOfConfidence(high=0.1, medium=0.2, low=0.3).to_doc()
    assert wire == {"high": 0.1, "intermediate": 0.2, "low": 0.3}
    assert DegreeOfConfidence.degrees_of(wire) == {"high": 0.1, "medium": 0.2, "low": 0.3}
    with pytest.raises(KeyError):
        DegreeOfConfidence.degrees_of({"high": 0.1, "medium": 0.2, "low": 0.3})


def test_restamped_rewrites_only_step_and_update_time():
    doc = _metadata().to_doc()
    moved = restamped(doc, "S002", "2025-01-15T10:50:00Z")
    assert moved == {**doc, "stepId": "S002", "lastUpdateTime": "2025-01-15T10:50:00Z"}
    assert list(moved) == list(doc)
    assert doc == _metadata().to_doc()  # original untouched


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
        log.append({"a": bad})
    # A refusal leaves nothing behind for the next value.
    log.append({"a": [1]})
    log.close()
    assert log.read_all() == [{"a": [1]}]
    assert path.read_text(encoding="utf-8") == '{"a": [1]}\n'
