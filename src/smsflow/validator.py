"""Cross-checking of language-model extractions against the parser agent.

The validator reads each S003 document of the extraction stage as the dict
it is and publishes the S004 document built from the parts its two stages
return.  Stage 1 compares each model's keyword lists with the parser's
claims, the lexicon and the literal SMS text, retrying once on disagreement
and gating extra stop keywords through a fuzzy risk score.  It reads the
text as the set of lexicon canonicals among its tokens, which the agent
computes once per distinct text while its cache holds at most
``READING_MEMO_SIZE`` texts.  Stage 2 has each model judge the other's
complaint/request reading; sub-5 scores are discarded.  A response becomes
an ``LlmExtraction`` on its own lists only to be handed to a judge, the
models' interface.

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


def canonicals_in(text: str, lexicon: KeywordLexicon) -> frozenset[str]:
    """The lowercased lexicon canonicals that occur as whole tokens of ``text``.

    For a canonical keyword ``kw``, ``kw.lower()`` is in this set exactly
    when it is in ``tokens_of(text, lexicon)``, which is all the verbatim
    check of :func:`validate_keywords` asks once a keyword has passed the
    canonical check.
    """
    return frozenset(tokens_of(text, lexicon).intersection(map(str.lower, lexicon.polarities)))


def _discard_reason(
    response: dict, ra: dict, polarities: dict[str, str], in_text: frozenset[str]
) -> str | None:
    """Why stage 1 discards one S003 response, in the order the reasons are checked; None keeps it."""
    if response.get("failed"):
        return REASON_FAILURE_MARKER
    renew, stop = response["renew"], response["stop"]
    for keyword in ra["renew"]:
        if keyword not in renew:
            return REASON_MISSING_RA
    for keyword in ra["stop"]:
        if keyword not in stop:
            return REASON_MISSING_RA
    for keyword in renew:
        if polarities.get(keyword) != "renew":
            return REASON_NOT_CANONICAL
    for keyword in stop:
        if polarities.get(keyword) != "stop":
            return REASON_NOT_CANONICAL
    # Every claim is a canonical now, so in_text answers for the text's tokens.
    for keyword in renew:
        if keyword.lower() not in in_text:
            return REASON_FABRICATED
    for keyword in stop:
        if keyword.lower() not in in_text:
            return REASON_FABRICATED
    return None


def _same_claims(mine: list[str], theirs: list[str]) -> bool:
    """Whether two survivors claim the same keywords of one polarity, in any order."""
    return mine == theirs or set(mine) == set(theirs)


def validate_keywords(
    ra: dict,
    a: dict,
    b: dict,
    in_text: frozenset[str],
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
    the parser's claims are risk-gated.  ``in_text`` is
    :func:`canonicals_in` of the original text on this lexicon.
    """
    if attempt not in (1, 2):
        raise ValueError(f"attempt must be 1 or 2, got {attempt}")
    polarities = lexicon.polarities

    discarded: list[dict] = []
    first = second = None
    for response in (a, b):
        reason = _discard_reason(response, ra, polarities, in_text)
        if reason is not None:
            discarded.append({"model_id": response["model_id"], "reason": reason})
        elif first is None:
            first = response
        else:
            second = response

    accepted = risk = None
    if first is None:
        outcome = OUTCOME_FAIL
    elif second is not None and not (
        _same_claims(first["renew"], second["renew"]) and _same_claims(first["stop"], second["stop"])
    ):
        outcome = OUTCOME_RETRY if attempt == 1 else OUTCOME_FAIL
    else:
        outcome = OUTCOME_PROCESS
        ra_stop = ra["stop"]
        for keyword in first["stop"]:
            if keyword not in ra_stop:
                crisp, over = stop_risk(keyword)
                risk = crisp if risk is None else max(risk, crisp)
                if over:
                    outcome = OUTCOME_CONFIRM
        accepted = {"renew": first["renew"], "stop": first["stop"]}
    return {"accepted": accepted, "discarded": discarded, "outcome": outcome, "attempt": attempt}, risk


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
        # Judges only read the lists, so the extraction shares the response's own.
        extraction = LlmExtraction(complaint=target["complaint"], request=target["request"])
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
        # SMS text -> the lowercased canonicals among its tokens; see canonicals_in.
        self.canonicals_of = functools.lru_cache(maxsize=READING_MEMO_SIZE)(
            functools.partial(canonicals_in, lexicon=lexicon)
        )

    def handle(self, envelope: Envelope) -> None:
        """Decide the event of an S003 document."""
        doc = envelope.payload
        event_id = doc["metadata"]["eventId"]
        original = self.store.fetch_original(event_id)  # MissingOriginalError is fatal by design
        parsed = doc["parsed"]
        a, b = doc["responses"]

        keywords, risk = validate_keywords(
            parsed, a, b, self.canonicals_of(original), doc["attempt"], self.lexicon,
            self.risk.assess_keyword,
        )
        for discard in keywords["discarded"]:
            model_id, reason = discard["model_id"], discard["reason"]
            self.store.record_step(
                event_id, STEP_LLM_EXTRACTED, self.qualifier, f"discarded:{model_id}:{reason}",
                model_id=model_id, reason=reason,
            )

        outcome = keywords["outcome"]
        if outcome == OUTCOME_RETRY:
            next_attempt = doc["attempt"] + 1
            self.store.record_step(
                event_id, STEP_LLM_EXTRACTED, self.qualifier, NOTE_RETRY, next_attempt=next_attempt
            )
            self.pool.publish(AGENTS_TOPIC, {**parsed, "attempt": next_attempt})
            return

        customer_id = parsed["metadata"]["customerId"]
        if outcome == OUTCOME_PROCESS:
            applied = self.pharmacy.apply_keywords(event_id, customer_id, **keywords["accepted"])
            self.store.record_step(
                event_id, STEP_VALIDATED, self.qualifier, "pharmacy-applied", applied=applied
            )
        elif outcome == OUTCOME_CONFIRM:
            self.outbound.send_sms(customer_id, CONFIRM_STOP_TEXT, "confirm-stop", event_id, STEP_VALIDATED)
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
