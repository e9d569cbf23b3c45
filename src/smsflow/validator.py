"""Cross-checking of language-model extractions against the parser agent.

Stage 1 compares each model's keyword list with the parser's claims and with
the literal SMS text, retrying once on disagreement and gating extra stop
keywords through a fuzzy risk score.  Stage 2 has each model judge the
other's complaint/request reading; sub-5 scores are discarded.
"""
from __future__ import annotations

import logging
from concurrent.futures import Executor
from dataclasses import dataclass, field
from typing import Callable

from .fuzzy import FuzzySystem, ZeroActivationError, defuzzify_cog
from .llm import MODEL_ERRORS, model_results
from .messages import (
    AGENTS_TOPIC,
    STEP_LLM_EXTRACTED,
    STEP_LLM_REQUESTED,
    STEP_VALIDATED,
    LlmExtraction,
    Metadata,
    RenewalProcessed,
)
from .pool import Envelope, MessagePool
from .renewal import KeywordLexicon, tokens_of
from .store import (
    OutboundSmsGateway,
    PharmacyAction,
    PharmacyClient,
    RunStore,
)

log = logging.getLogger(__name__)

OUTCOME_PROCESS = "process"
OUTCOME_RETRY = "retry"
OUTCOME_CONFIRM = "confirm-then-process"
OUTCOME_FAIL = "fail"

EXTRACTION_ROUTE = "route"
EXTRACTION_FAIL = "fail"

REASON_MISSING_RA = "missing-ra-keyword"
REASON_FABRICATED = "fabricated-keyword"
REASON_FAILURE_MARKER = "failure-marker"

MIN_ACCEPTED_SCORE = 5

CONTACT_SUPPORT_TEXT = (
    "We could not process your reply automatically. Please call customer support."
)
CONFIRM_STOP_TEXT = (
    "You asked to stop a medication we consider important for you. "
    "Please reply CONFIRM if you really want to stop it."
)


@dataclass(frozen=True)
class ModelResponse:
    """One model's stage output: an extraction or an explicit failure marker."""

    model_id: str
    extraction: LlmExtraction | None = None
    failure: str = ""

    @classmethod
    def from_doc(cls, doc: dict) -> "ModelResponse":
        if doc.get("failed"):
            return cls(model_id=doc["model_id"], failure=doc.get("reason", "failed"))
        return cls(model_id=doc["model_id"], extraction=LlmExtraction.from_doc(doc, doc["model_id"]))


@dataclass(frozen=True)
class Discard:
    model_id: str
    reason: str


@dataclass
class KeywordVerdict:
    event_id: str
    accepted: tuple[list[str], list[str]] | None
    discarded: list[Discard]
    outcome: str
    risk: float | None = None

    @property
    def accepted_keywords(self) -> list[str]:
        if self.accepted is None:
            return []
        return list(self.accepted[0]) + list(self.accepted[1])


@dataclass(frozen=True)
class StopRiskInputs:
    criticality: float
    duration_months: float
    chronic: bool

    def __post_init__(self):
        if self.duration_months < 0:
            raise ValueError("duration must be nonnegative")


@dataclass
class ExtractionVerdict:
    event_id: str
    chosen: LlmExtraction | None
    scores: dict[str, int]
    outcome: str


def assess_stop_risk(
    inputs: StopRiskInputs, threshold: float, system: FuzzySystem
) -> tuple[float, bool]:
    """Crisp stop-request risk via the risk rule block and CoG.

    A zero-activation output (nothing fired) is treated as over the
    threshold: when the rules cannot place the request, the conservative
    answer is to ask the customer.
    """
    lo, hi = system.output_variable.universe
    if not lo <= threshold <= hi:
        raise ValueError(f"threshold {threshold} outside output universe [{lo}, {hi}]")
    output = system.run(
        {
            "criticality": inputs.criticality,
            "duration": inputs.duration_months,
            "chronic": 1.0 if inputs.chronic else 0.0,
        }
    )
    try:
        crisp = defuzzify_cog(output)
    except ZeroActivationError:
        return hi, True
    return crisp, crisp > threshold


@dataclass
class StopRiskAssessor:
    """Binds the risk system to per-medication fixtures keyed by keyword."""

    system: FuzzySystem
    threshold: float
    by_keyword: dict[str, StopRiskInputs] = field(default_factory=dict)
    default: StopRiskInputs = StopRiskInputs(criticality=8.0, duration_months=24.0, chronic=True)

    def inputs_for(self, canonical: str) -> StopRiskInputs:
        return self.by_keyword.get(canonical, self.default)

    def assess_keyword(self, canonical: str) -> tuple[float, bool]:
        return assess_stop_risk(self.inputs_for(canonical), self.threshold, self.system)


def validate_keywords(
    ra: RenewalProcessed,
    a: ModelResponse,
    b: ModelResponse,
    original_text: str,
    attempt: int,
    lexicon: KeywordLexicon,
    stop_risk: Callable[[str], tuple[float, bool]],
) -> KeywordVerdict:
    """Stage-1 verdict for one message.

    A response is discarded when it misses a parser-claimed keyword or
    claims a keyword with no verbatim whole-token occurrence in the original
    text.  Survivor disagreement retries once, then fails.  Accepted stop
    keywords beyond the parser's claims are risk-gated.
    """
    if attempt not in (1, 2):
        raise ValueError(f"attempt must be 1 or 2, got {attempt}")
    text_tokens = tokens_of(original_text, lexicon)
    ra_renew, ra_stop = set(ra.renew), set(ra.stop)

    discarded: list[Discard] = []
    survivors: list[ModelResponse] = []
    for response in (a, b):
        if response.extraction is None:
            discarded.append(Discard(response.model_id, REASON_FAILURE_MARKER))
            continue
        ext = response.extraction
        if not (ra_renew <= set(ext.renew) and ra_stop <= set(ext.stop)):
            discarded.append(Discard(response.model_id, REASON_MISSING_RA))
            continue
        if any(kw.lower() not in text_tokens for kw in ext.keywords()):
            discarded.append(Discard(response.model_id, REASON_FABRICATED))
            continue
        survivors.append(response)

    event_id = ra.metadata.event_id
    if not survivors:
        return KeywordVerdict(event_id, accepted=None, discarded=discarded, outcome=OUTCOME_FAIL)

    first = survivors[0].extraction
    if len(survivors) == 2:
        second = survivors[1].extraction
        if set(first.renew) != set(second.renew) or set(first.stop) != set(second.stop):
            outcome = OUTCOME_RETRY if attempt == 1 else OUTCOME_FAIL
            return KeywordVerdict(event_id, accepted=None, discarded=discarded, outcome=outcome)

    accepted = (list(first.renew), list(first.stop))
    extra_stop = [kw for kw in accepted[1] if kw not in ra_stop]
    risk: float | None = None
    outcome = OUTCOME_PROCESS
    for keyword in extra_stop:
        crisp, over = stop_risk(keyword)
        risk = crisp if risk is None else max(risk, crisp)
        if over:
            outcome = OUTCOME_CONFIRM
    return KeywordVerdict(event_id, accepted=accepted, discarded=discarded, outcome=outcome, risk=risk)


def validate_extraction(
    original_text: str,
    a: ModelResponse,
    b: ModelResponse,
    models_by_id: dict,
    model_order: list[str],
    lexicon: KeywordLexicon,
    event_id: str = "",
    executor: Executor | None = None,
) -> ExtractionVerdict:
    """Stage-2 cross-judging: each model scores the other's reading.

    Failure markers (and judge failures) count as score 1.  Scores below 5
    discard the extraction; among the rest the highest score wins, with ties
    going to the first configured model.  ``executor`` overlaps the two
    judge calls.
    """
    def cross_score(pair: tuple[ModelResponse, str]) -> int:
        target, judge_model_id = pair
        return models_by_id[judge_model_id].judge(original_text, target.extraction, lexicon)

    scores = {a.model_id: 1, b.model_id: 1}
    pairs = [(t, j.model_id) for t, j in ((a, b), (b, a)) if t.extraction is not None]
    for (target, judge_model_id), score in model_results(cross_score, pairs, executor):
        if isinstance(score, MODEL_ERRORS):
            log.warning("judge %s failed on %s: %s", judge_model_id, target.model_id, score)
        else:
            scores[target.model_id] = score
    candidates = [r for r in (a, b) if r.extraction is not None and scores[r.model_id] >= MIN_ACCEPTED_SCORE]
    if not candidates:
        return ExtractionVerdict(event_id, chosen=None, scores=scores, outcome=EXTRACTION_FAIL)

    best = max(scores[r.model_id] for r in candidates)
    by_order = sorted(candidates, key=lambda r: model_order.index(r.model_id))
    chosen = next(r for r in by_order if scores[r.model_id] == best)
    return ExtractionVerdict(event_id, chosen=chosen.extraction, scores=scores, outcome=EXTRACTION_ROUTE)


class ValidatorAgent:
    """Collects the per-model stage outputs and issues the final verdicts."""

    qualifier = "ValidatorAgent"

    def __init__(
        self,
        models: list,
        model_order: list[str],
        lexicon: KeywordLexicon,
        risk: StopRiskAssessor,
        store: RunStore,
        pool: MessagePool,
        pharmacy: PharmacyClient,
        outbound: OutboundSmsGateway,
        executor: Executor | None = None,
    ):
        self.models_by_id = {m.model_id: m for m in models}
        self.model_order = model_order
        self.lexicon = lexicon
        self.risk = risk
        self.store = store
        self.pool = pool
        self.pharmacy = pharmacy
        self.outbound = outbound
        self.executor = executor
        self._parsed_docs: dict[str, dict] = {}
        self._pending: dict[str, dict[str, dict]] = {}

    def handle(self, envelope: Envelope) -> None:
        doc = envelope.payload
        step = doc["metadata"]["stepId"]
        event_id = doc["metadata"]["eventId"]
        if step == STEP_LLM_REQUESTED:
            self._parsed_docs[event_id] = doc
            return
        if step != STEP_LLM_EXTRACTED:
            return
        with self.store.event_lock(event_id):
            bucket = self._pending.setdefault(event_id, {})
            bucket[doc["model_id"]] = doc
            if len(bucket) < 2:
                return
            responses = self._pending.pop(event_id)
            self._finalize(event_id, responses)

    def _finalize(self, event_id: str, response_docs: dict[str, dict]) -> None:
        parsed_doc = self._parsed_docs.get(event_id)
        if parsed_doc is None:
            raise RuntimeError(f"no parsed-stage document cached for event {event_id}")
        original = self.store.fetch_original(event_id)  # MissingOriginalError is fatal by design
        ra = RenewalProcessed.from_doc(parsed_doc)
        ordered = [ModelResponse.from_doc(response_docs[m]) for m in self.model_order]
        attempt = 1 + self.store.retry_count(event_id)

        verdict = validate_keywords(
            ra, ordered[0], ordered[1], original, attempt,
            lexicon=self.lexicon, stop_risk=self.risk.assess_keyword,
        )
        for discard in verdict.discarded:
            self.store.record_step(
                event_id, STEP_LLM_EXTRACTED, self.qualifier,
                f"discarded:{discard.model_id}:{discard.reason}",
            )

        if verdict.outcome == OUTCOME_RETRY:
            self.store.record_step(event_id, STEP_LLM_EXTRACTED, self.qualifier, "retry-requested")
            self.pool.publish(AGENTS_TOPIC, parsed_doc)
            return

        customer_id = ra.metadata.customer_id
        extraction_verdict = None
        if verdict.outcome == OUTCOME_FAIL:
            self.outbound.send_sms(customer_id, CONTACT_SUPPORT_TEXT, "contact-support", event_id)
        else:
            if verdict.outcome == OUTCOME_PROCESS:
                accepted_renew, accepted_stop = verdict.accepted
                for keyword in accepted_renew:
                    self.pharmacy.apply(PharmacyAction(event_id, customer_id, keyword, "renew"))
                for keyword in accepted_stop:
                    self.pharmacy.apply(PharmacyAction(event_id, customer_id, keyword, "stop"))
                self.store.record_step(
                    event_id, STEP_VALIDATED, self.qualifier,
                    f"pharmacy-applied:{verdict.accepted_keywords}",
                )
            else:  # confirm-then-process
                self.outbound.send_sms(customer_id, CONFIRM_STOP_TEXT, "confirm-stop", event_id)
                self.store.record_step(
                    event_id, STEP_VALIDATED, self.qualifier,
                    f"confirmation-requested risk={verdict.risk}",
                )
            extraction_verdict = validate_extraction(
                original, ordered[0], ordered[1],
                self.models_by_id, self.model_order, self.lexicon, event_id, self.executor,
            )
            if extraction_verdict.outcome == EXTRACTION_FAIL:
                self.outbound.send_sms(customer_id, CONTACT_SUPPORT_TEXT, "contact-support", event_id)

        self._publish_verdict(ra.metadata, verdict, extraction_verdict, attempt)

    def _publish_verdict(
        self,
        metadata: Metadata,
        verdict: KeywordVerdict,
        extraction_verdict: ExtractionVerdict | None,
        attempt: int,
    ) -> None:
        doc = {
            "metadata": metadata.at_step(STEP_VALIDATED, last_update=self.store.clock.now_iso()).to_doc(),
            "keywords": {
                "accepted": (
                    {"renew": verdict.accepted[0], "stop": verdict.accepted[1]}
                    if verdict.accepted is not None
                    else None
                ),
                "discarded": [
                    {"model_id": d.model_id, "reason": d.reason} for d in verdict.discarded
                ],
                "outcome": verdict.outcome,
                "attempt": attempt,
            },
            "extraction": (
                {
                    "chosen": extraction_verdict.chosen.to_doc() if extraction_verdict.chosen else None,
                    "chosen_model": extraction_verdict.chosen.model_id if extraction_verdict.chosen else "",
                    "scores": extraction_verdict.scores,
                    "outcome": extraction_verdict.outcome,
                }
                if extraction_verdict is not None
                else None
            ),
        }
        # The verdict publication itself is observed by the tracking agent.
        self.pool.publish(AGENTS_TOPIC, doc)
