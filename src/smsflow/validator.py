"""Cross-checking of language-model extractions against the parser agent.

The validator reads each S003 document of the extraction stage as the dict
it is and publishes the S004 document built from the parts its two stages
return.  Stage 1 compares each model's keyword lists with the parser's
claims, the lexicon and the literal SMS text, retrying once on disagreement
and gating extra stop keywords through a fuzzy risk score.  Stage 2 has each
model judge the other's complaint/request reading; sub-5 scores are
discarded.  A response becomes an ``LlmExtraction`` only to be handed to a
judge, the models' interface.

The validator applies the accepted keywords or asks the customer to confirm
a risky stop; it sends no other SMS.  A failed verdict is closed by the
router, which sends its contact-support SMS.
"""
from __future__ import annotations

import functools
import logging
from concurrent.futures import Executor
from dataclasses import dataclass
from typing import Callable

from .fuzzy import FuzzySystem, ZeroActivationError, defuzzify_cog
from .llm import MODEL_ERRORS, model_results
from .messages import (
    AGENTS_TOPIC,
    STEP_LLM_EXTRACTED,
    STEP_VALIDATED,
    LlmExtraction,
    restamped,
)
from .pool import Envelope, MessagePool
from .renewal import READING_MEMO_SIZE, KeywordLexicon, tokens_of
from .store import NOTE_RETRY, OutboundSmsGateway, PharmacyClient, RunStore

log = logging.getLogger(__name__)

OUTCOME_PROCESS = "process"
OUTCOME_RETRY = "retry"
OUTCOME_CONFIRM = "confirm-then-process"
OUTCOME_FAIL = "fail"

EXTRACTION_ROUTE = "route"
EXTRACTION_FAIL = "fail"

REASON_MISSING_RA = "missing-ra-keyword"
REASON_NOT_CANONICAL = "non-canonical-keyword"
REASON_FABRICATED = "fabricated-keyword"
REASON_FAILURE_MARKER = "failure-marker"

MIN_ACCEPTED_SCORE = 5

CONFIRM_STOP_TEXT = (
    "You asked to stop a medication we consider important for you. "
    "Please reply CONFIRM if you really want to stop it."
)


@dataclass(frozen=True)
class StopRiskInputs:
    criticality: float
    duration_months: float
    chronic: bool

    def __post_init__(self):
        if self.duration_months < 0:
            raise ValueError("duration must be nonnegative")


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


def keyword_risk(
    canonical: str,
    by_keyword: dict[str, StopRiskInputs],
    default: StopRiskInputs,
    threshold: float,
    system: FuzzySystem,
) -> tuple[float, bool]:
    """Stop risk of one keyword's medication fixture, the default one when it has none."""
    return assess_stop_risk(by_keyword.get(canonical, default), threshold, system)


@dataclass
class StopRiskAssessor:
    """Binds the risk system to per-medication fixtures keyed by keyword.

    A keyword's risk depends on the fixed fixtures alone, so the assessor
    runs the rules once per distinct keyword while its cache holds at most
    ``READING_MEMO_SIZE`` keywords.
    """

    system: FuzzySystem
    threshold: float
    by_keyword: dict[str, StopRiskInputs]
    default: StopRiskInputs

    def __post_init__(self):
        # Canonical keyword -> (crisp risk, over the threshold); see keyword_risk.
        self.assess_keyword = functools.lru_cache(maxsize=READING_MEMO_SIZE)(
            functools.partial(
                keyword_risk, by_keyword=self.by_keyword, default=self.default,
                threshold=self.threshold, system=self.system,
            )
        )


def validate_keywords(
    ra: dict,
    a: dict,
    b: dict,
    original_text: str,
    attempt: int,
    lexicon: KeywordLexicon,
    stop_risk: Callable[[str], tuple[float, bool]],
) -> tuple[dict, float | None]:
    """Stage-1 verdict on the S003 responses ``a`` and ``b`` of one message,
    whose parsed (S001 or S002) document is ``ra``.

    Returns the S004 document's ``keywords`` part and the highest stop risk
    of the accepted stop keywords the parser did not claim (``None`` when
    there are none).  A response is discarded when it is a failure marker,
    misses a parser-claimed keyword, claims a keyword that is not a lexicon
    canonical of the polarity it is claimed under, or claims one with no
    verbatim whole-token occurrence in the original text.  Survivor
    disagreement retries once, then fails.  Accepted stop keywords beyond
    the parser's claims are risk-gated.
    """
    if attempt not in (1, 2):
        raise ValueError(f"attempt must be 1 or 2, got {attempt}")
    text_tokens = tokens_of(original_text, lexicon)
    polarities = lexicon.polarities
    ra_renew, ra_stop = set(ra["renew"]), set(ra["stop"])

    discarded: list[dict] = []
    survivors: list[dict] = []
    for response in (a, b):
        renew, stop = response.get("renew", ()), response.get("stop", ())
        if response.get("failed"):
            reason = REASON_FAILURE_MARKER
        elif not (ra_renew <= set(renew) and ra_stop <= set(stop)):
            reason = REASON_MISSING_RA
        elif any(polarities.get(kw) != p for p, kws in (("renew", renew), ("stop", stop)) for kw in kws):
            reason = REASON_NOT_CANONICAL
        elif any(kw.lower() not in text_tokens for kw in (*renew, *stop)):
            reason = REASON_FABRICATED
        else:
            survivors.append(response)
            continue
        discarded.append({"model_id": response["model_id"], "reason": reason})

    def verdict(accepted: dict | None, outcome: str) -> dict:
        return {"accepted": accepted, "discarded": discarded, "outcome": outcome, "attempt": attempt}

    if not survivors:
        return verdict(None, OUTCOME_FAIL), None
    first = survivors[0]
    if len({(frozenset(r["renew"]), frozenset(r["stop"])) for r in survivors}) > 1:  # survivors disagree
        return verdict(None, OUTCOME_RETRY if attempt == 1 else OUTCOME_FAIL), None

    risk: float | None = None
    outcome = OUTCOME_PROCESS
    for keyword in first["stop"]:
        if keyword not in ra_stop:
            crisp, over = stop_risk(keyword)
            risk = crisp if risk is None else max(risk, crisp)
            if over:
                outcome = OUTCOME_CONFIRM
    return verdict({"renew": first["renew"], "stop": first["stop"]}, outcome), risk


def validate_extraction(
    original_text: str,
    a: dict,
    b: dict,
    models_by_id: dict,
    lexicon: KeywordLexicon,
    executor: Executor | None = None,
) -> dict:
    """Stage-2 cross-judging of the S003 responses ``a`` and ``b``: each model
    scores the other's reading.  Returns the S004 document's ``extraction`` part.

    Failure markers (and judge failures) count as score 1.  Scores below 5
    discard the extraction; among the rest the highest score wins, with ties
    going to ``a``, which the stage document lists first because it comes
    from the first configured model.  ``executor`` overlaps the two judge
    calls.
    """
    def cross_score(pair: tuple[dict, str]) -> int:
        target, judge_model_id = pair
        extraction = LlmExtraction.from_doc(target)
        return models_by_id[judge_model_id].judge(original_text, extraction, lexicon)

    scores = {a["model_id"]: 1, b["model_id"]: 1}
    pairs = [(t, j["model_id"]) for t, j in ((a, b), (b, a)) if not t.get("failed")]
    for (target, judge_model_id), score in model_results(cross_score, pairs, executor):
        if isinstance(score, MODEL_ERRORS):
            log.warning("judge %s failed on %s: %s", judge_model_id, target["model_id"], score)
        else:
            scores[target["model_id"]] = score
    candidates = [t for t, _ in pairs if scores[t["model_id"]] >= MIN_ACCEPTED_SCORE]
    if not candidates:
        return {"chosen": None, "chosen_model": "", "scores": scores, "outcome": EXTRACTION_FAIL}
    chosen = max(candidates, key=lambda r: scores[r["model_id"]])  # the first of equals
    return {
        "chosen": {key: value for key, value in chosen.items() if key != "model_id"},
        "chosen_model": chosen["model_id"],
        "scores": scores,
        "outcome": EXTRACTION_ROUTE,
    }


class ValidatorAgent:
    """Issues the final verdicts, one per S003 document of the extraction stage.

    Each document carries all an event's verdict needs (the parsed claims,
    the attempt and both model responses), so the agent keeps no per-event
    state between calls.
    """

    qualifier = "ValidatorAgent"

    def __init__(
        self,
        models: list,
        lexicon: KeywordLexicon,
        risk: StopRiskAssessor,
        store: RunStore,
        pool: MessagePool,
        pharmacy: PharmacyClient,
        outbound: OutboundSmsGateway,
        executor: Executor | None = None,
    ):
        self.models_by_id = {m.model_id: m for m in models}
        self.lexicon = lexicon
        self.risk = risk
        self.store = store
        self.pool = pool
        self.pharmacy = pharmacy
        self.outbound = outbound
        self.executor = executor

    def handle(self, envelope: Envelope) -> None:
        """Decide the event of an S003 document."""
        doc = envelope.payload
        event_id = doc["metadata"]["eventId"]
        original = self.store.fetch_original(event_id)  # MissingOriginalError is fatal by design
        parsed = doc["parsed"]
        a, b = doc["responses"]

        keywords, risk = validate_keywords(
            parsed, a, b, original, doc["attempt"], lexicon=self.lexicon, stop_risk=self.risk.assess_keyword,
        )
        for discard in keywords["discarded"]:
            model_id, reason = discard["model_id"], discard["reason"]
            self.store.record_step(
                event_id, STEP_LLM_EXTRACTED, self.qualifier, f"discarded:{model_id}:{reason}",
                model_id=model_id, reason=reason,
            )

        outcome = keywords["outcome"]
        if outcome == OUTCOME_RETRY:
            self.store.record_step(event_id, STEP_LLM_EXTRACTED, self.qualifier, NOTE_RETRY)
            self.pool.publish(AGENTS_TOPIC, {**parsed, "attempt": doc["attempt"] + 1})
            return

        customer_id = parsed["metadata"]["customerId"]
        if outcome == OUTCOME_PROCESS:
            applied = self.pharmacy.apply_keywords(event_id, customer_id, **keywords["accepted"])
            self.store.record_step(
                event_id, STEP_VALIDATED, self.qualifier, "pharmacy-applied", applied=applied
            )
        elif outcome == OUTCOME_CONFIRM:
            self.outbound.send_sms(customer_id, CONFIRM_STOP_TEXT, "confirm-stop", event_id)
            self.store.record_step(
                event_id, STEP_VALIDATED, self.qualifier, "confirmation-requested", risk=risk
            )
        extraction = None
        if outcome != OUTCOME_FAIL:
            extraction = validate_extraction(original, a, b, self.models_by_id, self.lexicon, self.executor)

        # The router closes the event, failed or not, and records the verdict.
        self.pool.publish(AGENTS_TOPIC, {
            "metadata": restamped(parsed["metadata"], STEP_VALIDATED, self.store.clock.now_iso()),
            "keywords": keywords,
            "extraction": extraction,
        })
