"""Arbitration of parsed renewal messages.

A fully understood message goes straight to the pharmacy endpoint.  For
anything else, customer importance (from tenure and yearly purchases) and
the parser's degree of confidence feed a rule block that decides between
forwarding to the language-model stage and failing the message toward
customer support.
"""
from __future__ import annotations

import functools
import logging
from dataclasses import dataclass, field, replace

from .fuzzy import FuzzySystem
from .messages import (
    AGENTS_TOPIC,
    STEP_LLM_REQUESTED,
    STEP_PARSED,
    DegreeOfConfidence,
    restamped,
)
from .pool import Envelope, MessagePool
from .renewal import READING_MEMO_SIZE
from .store import TERMINAL_PROCESSED, OutboundSmsGateway, PharmacyClient, RunStore

log = logging.getLogger(__name__)

ACTION_PROCESS_DIRECT = "processDirect"
ACTION_FORWARD = "forwardToLLM"
ACTION_FAIL = "fail"


@dataclass(frozen=True)
class CustomerProfile:
    customer_id: str
    tenure_years: float
    purchases_12mo: float

    def __post_init__(self):
        if self.tenure_years < 0 or self.purchases_12mo < 0:
            raise ValueError("profile fields must be nonnegative")


@dataclass(slots=True)
class ArbitrationDecision:
    action: str
    activations: dict[str, float] = field(default_factory=dict)
    importance: dict[str, float] = field(default_factory=dict)


def compute_importance(
    tenure_years: float, purchases_12mo: float, system: FuzzySystem
) -> dict[str, float]:
    """Per-label customer-importance activations from the profile numbers."""
    return system.run({"tenureYears": tenure_years, "purchases12mo": purchases_12mo}).activations


def action_activations(
    importance: tuple[tuple[str, float], ...],
    confidence: tuple[tuple[str, float], ...],
    system: FuzzySystem,
) -> dict[str, float]:
    """Per-action activations of the rule block, from (label, degree) pairs of its two inputs."""
    return system.infer(
        {"customerImportance": dict(importance), "degreeOfConfidence": dict(confidence)}
    ).activations


class EvaluatorAgent:
    """Decides each parsed message and carries out the decision.

    Customer importance depends on the profile numbers alone, and the rule
    block's activations on the importance and confidence degrees alone, so
    the agent runs each once per distinct input while its caches hold at
    most ``READING_MEMO_SIZE`` inputs each; each decision gets its own copies.
    """

    qualifier = "EvaluatorAgent"

    def __init__(
        self,
        profiles: dict[str, CustomerProfile],
        default_profile: CustomerProfile,
        importance_system: FuzzySystem,
        action_system: FuzzySystem,
        store: RunStore,
        pool: MessagePool,
        pharmacy: PharmacyClient,
        outbound: OutboundSmsGateway,
    ):
        self.profiles = profiles
        self.default_profile = default_profile
        self.store = store
        self.pool = pool
        self.pharmacy = pharmacy
        self.outbound = outbound
        # (tenure, purchases) -> importance activations; see compute_importance.
        self.importance = functools.lru_cache(maxsize=READING_MEMO_SIZE)(
            functools.partial(compute_importance, system=importance_system)
        )
        # (importance, confidence) degree pairs -> action activations; see action_activations.
        self.activations = functools.lru_cache(maxsize=READING_MEMO_SIZE)(
            functools.partial(action_activations, system=action_system)
        )

    def profile_for(self, customer_id: str, event_id: str) -> CustomerProfile:
        """The customer's profile; an unknown customer gets the lowest-importance
        default and a recorded data-quality warning."""
        profile = self.profiles.get(customer_id)
        if profile is not None:
            return profile
        log.warning("no profile for customer %s; using lowest-importance default", customer_id)
        # The customer-relationship lookup records under its own agent name.
        self.store.record_step(
            event_id, STEP_PARSED, "CustomerRelationshipAgent",
            f"data-quality: missing profile for {customer_id}",
        )
        return replace(self.default_profile, customer_id=customer_id)

    def decide(self, doc: dict, profile: CustomerProfile) -> ArbitrationDecision:
        """The decision on one parsed document alone, without side effects:
        processDirect on a full match, else run the rules.

        The action is the label with the highest aggregated activation; a tie
        or an all-zero outcome falls back to the conservative fail branch.
        """
        if doc.get("fullMatch"):
            return ArbitrationDecision(action=ACTION_PROCESS_DIRECT)

        importance = self.importance(profile.tenure_years, profile.purchases_12mo)
        activations = self.activations(
            tuple(importance.items()),
            tuple(DegreeOfConfidence.degrees_of(doc["degreeOfConfidence"]).items()),
        )
        forward = activations.get(ACTION_FORWARD, 0.0)
        fail = activations.get(ACTION_FAIL, 0.0)
        if forward > fail:
            action = ACTION_FORWARD
        else:
            action = ACTION_FAIL
        return ArbitrationDecision(
            action=action, activations=dict(activations), importance=dict(importance)
        )

    def evaluate(self, doc: dict, profile: CustomerProfile) -> ArbitrationDecision:
        """Decide and carry out the side effects for one parsed (S001) document."""
        metadata = doc["metadata"]
        if metadata["stepId"] != STEP_PARSED:
            raise ValueError(f"evaluator expects {STEP_PARSED} messages, got {metadata['stepId']}")
        decision = self.decide(doc, profile)
        event_id = metadata["eventId"]
        customer_id = metadata["customerId"]
        store = self.store

        store.record_step(
            event_id, STEP_PARSED, self.qualifier, f"decision:{decision.action}",
            activations=decision.activations, importance=decision.importance,
            ra={"renew": doc["renew"], "stop": doc["stop"], "confidence": doc["degreeOfConfidence"]},
        )
        if decision.action == ACTION_PROCESS_DIRECT:
            self.pharmacy.apply_keywords(event_id, customer_id, doc["renew"], doc["stop"])
            # The verdict fields of the router's terminal record, for the same fold.
            store.record_step(
                event_id, STEP_PARSED, self.qualifier, TERMINAL_PROCESSED, terminal=True,
                keyword_outcome="direct", accepted={"renew": doc["renew"], "stop": doc["stop"]}, scores=None,
            )
        elif decision.action == ACTION_FORWARD:
            self.pool.publish(AGENTS_TOPIC, {
                **doc, "metadata": restamped(metadata, STEP_LLM_REQUESTED, store.clock.now_iso()),
            })
        else:
            self.outbound.close_failed(customer_id, event_id, STEP_PARSED, self.qualifier)
        return decision

    def handle(self, envelope: Envelope) -> None:
        doc = envelope.payload
        meta = doc["metadata"]
        self.evaluate(doc, self.profile_for(meta["customerId"], meta["eventId"]))
