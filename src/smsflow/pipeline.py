"""Wiring of the full pipeline: broker, stores, agents and dispatchers.

The scheduler is a deterministic round-robin over the stage
subscriptions, which makes whole runs replayable.

When a model waits on an HTTP backend, the two model calls of one stage
(the two extractions, then the two cross-judgements) overlap on the
pipeline's executor, so a forwarded message waits for two round trips
instead of four.  Results are still consumed in model order on the
scheduler thread, which alone records steps and publishes, so runs stay
replayable.  Scripted models stay serial: they are pure Python, which the
interpreter lock runs one thread at a time, and overlapping them cost the
in-memory campaign benchmark 19% of its throughput.
"""
from __future__ import annotations

import logging
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field
from pathlib import Path

from .arbitration import CustomerRelationshipAgent, EvaluatorAgent
from .config import PipelineConfig
from .dispatch import AgentRegistry, Dispatcher
from .experts import AvailabilityStore, RouterAgent
from .llm import ChatCompletionModel, FaultPlan, LlmAgent
from .messages import (
    AGENTS_TOPIC,
    INCOMING_TOPIC,
    STEP_PARSED,
    STEP_VALIDATED,
    get_path,
)
from .pool import MessagePool, MetadataFilter
from .renewal import RenewalAgent
from .store import (
    IncomingSmsGateway,
    LogicalClock,
    OutboundSmsGateway,
    PharmacyClient,
    RunStore,
)
from .validator import StopRiskAssessor, ValidatorAgent

log = logging.getLogger(__name__)


class MessageTrackingAgent:
    """Always-on recorder of every message the arbitration stage sees."""

    qualifier = "MessageTrackingAgent"

    def __init__(self, store: RunStore):
        self.store = store

    def handle(self, envelope) -> None:
        doc = envelope.payload
        event_id = get_path(doc, "metadata.eventId") or ""
        step = get_path(doc, "metadata.stepId") or ""
        self.store.record_step(event_id, step, self.qualifier, "observed", payload=doc)


class Scheduler:
    """Round-robin over message sources until nothing makes progress."""

    def __init__(self, sources: list):
        self.sources = sources

    def step(self) -> bool:
        progressed = False
        for source in self.sources:
            if source.drain_one():
                progressed = True
        return progressed

    def run(self, budget: int) -> bool:
        """True when quiescent within ``budget`` passes."""
        for _ in range(budget):
            if not self.step():
                return True
        return not self.step()


@dataclass
class Pipeline:
    pool: MessagePool
    store: RunStore
    gateway: IncomingSmsGateway
    scheduler: Scheduler
    parsed_sub: object
    verdict_sub: object
    ingested: list = field(default_factory=list)
    executor: ThreadPoolExecutor | None = None

    def ingest(self, phone: str, text: str):
        event = self.gateway.ingest_sms(phone, text)
        if event is not None:
            self.ingested.append(event)
        return event

    def default_budget(self) -> int:
        return 200 + 20 * max(1, len(self.ingested))

    def run_to_quiescence(self, budget: int | None = None) -> bool:
        return self.scheduler.run(budget or self.default_budget())

    def pending_events(self) -> list[str]:
        """Ingested events that never reached a terminal step."""
        return [
            e.metadata.event_id
            for e in self.ingested
            if self.store.terminal_of(e.metadata.event_id) is None
        ]

    def close(self) -> None:
        """Wait for model calls in flight, stop the model executor and close the logs."""
        if self.executor is not None:
            self.executor.shutdown(wait=True)
        self.store.close()


def build_pipeline(
    config: PipelineConfig,
    seed: int = 0,
    add_keyword_rate: float = 0.0,
    drop_keyword_rate: float = 0.0,
    run_dir: Path | str | None = None,
) -> Pipeline:
    clock = LogicalClock()
    store = RunStore(run_dir, clock=clock)
    pool = MessagePool(clock=clock)

    gateway = IncomingSmsGateway(config.auth, store, pool)
    outbound = OutboundSmsGateway(store, pool)
    pharmacy = PharmacyClient(store)

    models = config.build_models()
    executor = None
    if len(models) > 1 and any(isinstance(m, ChatCompletionModel) for m in models):
        # Its workers start with the first model call, not here.
        executor = ThreadPoolExecutor(len(models) - 1, thread_name_prefix="smsflow-model")
    model_order = [spec.model_id for spec in config.model_specs]
    faults = FaultPlan(
        seed=seed, add_keyword_rate=add_keyword_rate, drop_keyword_rate=drop_keyword_rate
    )
    relationship = CustomerRelationshipAgent(config.profiles, config.default_profile, store)
    risk = StopRiskAssessor(
        system=config.risk_system,
        threshold=config.risk_threshold,
        by_keyword=config.medication_by_keyword,
        default=config.medication_default,
    )

    agents = {
        "RenewalAgent": RenewalAgent(config.lexicon, config.confidence_var, store, pool),
        "EvaluatorAgent": EvaluatorAgent(
            relationship, config.importance_system, config.action_system,
            store, pool, pharmacy, outbound,
        ),
        "LlmAgent": LlmAgent(models, config.lexicon, faults, store, pool, executor),
        "ValidatorAgent": ValidatorAgent(
            models, model_order, config.lexicon, risk, store, pool, pharmacy, outbound, executor
        ),
        "RouterAgent": RouterAgent(
            config.experts, config.documents, AvailabilityStore(config.availability),
            store, outbound,
        ),
        "MessageTrackingAgent": MessageTrackingAgent(store),
    }

    # Report-side subscriptions are created before any traffic exists so the
    # harness can read back every parsed document and final verdict.
    parsed_sub = pool.subscribe(
        AGENTS_TOPIC, MetadataFilter((("metadata.stepId", STEP_PARSED),))
    )
    verdict_sub = pool.subscribe(
        AGENTS_TOPIC, MetadataFilter((("metadata.stepId", STEP_VALIDATED),))
    )

    orchestration = Dispatcher(
        "OrchestrationDispatcher",
        config.orchestration_rules,
        AgentRegistry({q: agents[q] for q in agents}, always_on=()),
        pool.subscribe(INCOMING_TOPIC),
        store,
    )
    arbitration = Dispatcher(
        "ArbitrationDispatcher",
        config.arbitration_rules,
        AgentRegistry({q: agents[q] for q in agents}, always_on=config.always_on),
        pool.subscribe(AGENTS_TOPIC),
        store,
    )
    scheduler = Scheduler([orchestration, arbitration])

    return Pipeline(
        pool=pool,
        store=store,
        gateway=gateway,
        scheduler=scheduler,
        parsed_sub=parsed_sub,
        verdict_sub=verdict_sub,
        executor=executor,
    )
