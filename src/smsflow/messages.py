"""Wire documents exchanged on the message-pool topics.

All payloads travelling between agents are plain JSON documents (dicts),
and every agent reads the fields of the document it receives: a stage that
passes a document on, or builds the next one from it, re-stamps the
received metadata (:func:`restamped`) rather than converting it.  The
dataclasses here build documents and hold what is not one: the gateway's
event (which ``Pipeline.ingest`` returns), the parser's confidence vector
(the one owner of its wire spelling) and a model's extraction, the models'
interface (``extract`` returns one, ``judge`` takes one); the S003 and S004
documents carry extractions as dicts.
"""
from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any

INCOMING_TOPIC = "incoming-sms"
AGENTS_TOPIC = "agents"
# Unused by the pipeline (outbound SMS live in the run store); kept for tracers.
OUTBOUND_TOPIC = "outbound-sms"

STEP_INGESTED = "S000"
STEP_PARSED = "S001"
STEP_LLM_REQUESTED = "S002"
STEP_LLM_EXTRACTED = "S003"
STEP_VALIDATED = "S004"


def event_and_step(doc: Any) -> tuple[str, str]:
    """The payload's ``metadata.eventId`` and ``metadata.stepId``, "" for each one missing."""
    meta = doc.get("metadata") if isinstance(doc, dict) else None
    if not isinstance(meta, dict):
        return "", ""
    return meta.get("eventId") or "", meta.get("stepId") or ""


def restamped(metadata: dict, step: str, last_update: str) -> dict:
    """A copy of a document's ``metadata`` at ``step``, last updated at ``last_update``."""
    return {**metadata, "stepId": step, "lastUpdateTime": last_update}


@dataclass(slots=True)
class Metadata:
    event_id: str
    customer_id: str
    step_id: str
    customer_event_time: str
    last_update_time: str

    def to_doc(self) -> dict:
        return {
            "eventId": self.event_id,
            "customerId": self.customer_id,
            "stepId": self.step_id,
            "customerEventTime": self.customer_event_time,
            "lastUpdateTime": self.last_update_time,
        }


@dataclass(slots=True)
class SmsEvent:
    metadata: Metadata
    body: str

    def to_doc(self) -> dict:
        return {"metadata": self.metadata.to_doc(), "body": self.body}


@dataclass(slots=True)
class DegreeOfConfidence:
    """Three-label confidence vector; the middle label is serialized as
    "intermediate" on the wire while the engine calls it "medium"."""

    high: float
    medium: float
    low: float

    def to_doc(self) -> dict:
        return {"high": self.high, "intermediate": self.medium, "low": self.low}

    @staticmethod
    def degrees_of(doc: dict) -> dict[str, float]:
        """The engine's label -> degree map of a confidence vector on the wire."""
        return {"high": doc["high"], "medium": doc["intermediate"], "low": doc["low"]}


@dataclass(slots=True)
class LlmExtraction:
    renew: list[str] = field(default_factory=list)
    stop: list[str] = field(default_factory=list)
    complaint: list[str] = field(default_factory=list)
    request: list[str] = field(default_factory=list)
    mood: str = "neutral"

    def to_doc(self) -> dict:
        return {
            "renew": list(self.renew),
            "stop": list(self.stop),
            "complaint": list(self.complaint),
            "request": list(self.request),
            "mood": self.mood,
        }

    @classmethod
    def from_doc(cls, doc: dict) -> "LlmExtraction":
        return cls(
            renew=list(doc["renew"]),
            stop=list(doc["stop"]),
            complaint=list(doc["complaint"]),
            request=list(doc["request"]),
            mood=doc["mood"],
        )

    def keywords(self) -> list[str]:
        return list(self.renew) + list(self.stop)
