"""Wiring of the full pipeline: broker, stores, agents and dispatchers.

Each scheduler pass moves one envelope, from the most downstream dispatcher
(each is the one consumer of its topic) that has one.  So an event reaches
its terminal step before the next reply is parsed, and no document waits in
a queue long enough to age through garbage collections and go cold in the
CPU cache.  Runs are replayable.  Each agent records its hop in the step
log; nothing else reads the topics.

When a model waits on an HTTP backend, the two model calls of one stage
(the two extractions, then the two cross-judgements) overlap on the
pipeline's executor, so a forwarded message waits for two round trips
instead of four.  Results are still consumed in model order on the
scheduler thread, which alone records steps and publishes, so runs stay
replayable.  Scripted models stay serial: they are pure Python, which the
interpreter lock runs one thread at a time, and overlapping them cost the
in-memory campaign benchmark 19% of its throughput.

Pure work is done once per distinct key, in caches that the parser, each
scripted model, the evaluator, the stop-risk assessor, the validator and
the router own (README lists them with their hit shares).  Each is owned by
one agent or model of one pipeline, holds at most ``READING_MEMO_SIZE``
entries, and goes when the pipeline goes; what it hands out is immutable or
copied first.
Replies from an HTTP model are never cached.
"""
from __future__ import annotations

import logging
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field
from pathlib import Path

from .arbitration import EvaluatorAgent
from .config import PipelineConfig
from .dispatch import AgentRegistry, Dispatcher
from .experts import AvailabilityStore, RouterAgent
from .llm import ChatCompletionModel, FaultPlan, LlmAgent
from .messages import AGENTS_TOPIC, INCOMING_TOPIC
from .pool import MessagePool
from .renewal import RenewalAgent
from .store import IncomingSmsGateway, OutboundSmsGateway, PharmacyClient, RunStore
from .validator import StopRiskAssessor, ValidatorAgent

log = logging.getLogger(__name__)


class Scheduler:
    """Finishes started work first; ``sources`` are ordered upstream to downstream."""

    def __init__(self, sources: list):
        self.sources = sources

    def step(self) -> bool:
        for source in reversed(self.sources):
            if source.drain_one():
                return True
        return False

    def run(self, budget: int) -> bool:
        """True when quiescent within ``budget`` passes.

        After the last pass, quiescence is read from the sources' queues: a
        pass that found them all empty would do nothing.
        """
        for _ in range(budget):
            if not self.step():
                return True
        return not any(len(source.subscription) for source in self.sources)


@dataclass
class Pipeline:
    pool: MessagePool
    store: RunStore
    gateway: IncomingSmsGateway
    scheduler: Scheduler
    ingested: list = field(default_factory=list)
    executor: ThreadPoolExecutor | None = None

    def ingest(self, phone: str, text: str):
        event = self.gateway.ingest_sms(phone, text)
        if event is not None:
            self.ingested.append(event)
        return event

    def run_to_quiescence(self, budget: int | None = None) -> bool:
        """True when quiescent within ``budget`` passes; ``None`` allows 200 + 20 per ingested event."""
        if budget is None:
            budget = 200 + 20 * max(1, len(self.ingested))
        return self.scheduler.run(budget)

    def pending_events(self) -> list[str]:
        """Ingested events that never reached a terminal step."""
        return [
            e.metadata.event_id
            for e in self.ingested
            if not any(r["terminal"] for r in self.store.steps_of(e.metadata.event_id))
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
    store = RunStore(run_dir)
    pool = MessagePool()

    gateway = IncomingSmsGateway(config.auth, store, pool)
    outbound = OutboundSmsGateway(store)
    pharmacy = PharmacyClient(store)

    models = config.build_models()
    executor = None
    if len(models) > 1 and any(isinstance(m, ChatCompletionModel) for m in models):
        # Its workers start with the first model call, not here.
        executor = ThreadPoolExecutor(len(models) - 1, thread_name_prefix="smsflow-model")
    faults = FaultPlan(
        seed=seed, add_keyword_rate=add_keyword_rate, drop_keyword_rate=drop_keyword_rate
    )
    risk = StopRiskAssessor(
        system=config.risk_system,
        threshold=config.risk_threshold,
        by_keyword=config.medication_by_keyword,
        default=config.medication_default,
    )

    agents = {
        "RenewalAgent": RenewalAgent(config.lexicon, config.confidence_var, store, pool),
        "EvaluatorAgent": EvaluatorAgent(
            config.profiles, config.default_profile, config.importance_system, config.action_system,
            store, pool, pharmacy, outbound,
        ),
        "LlmAgent": LlmAgent(models, config.lexicon, faults, store, pool, executor),
        "ValidatorAgent": ValidatorAgent(
            models, config.lexicon, risk, store, pool, pharmacy, outbound, executor
        ),
        "RouterAgent": RouterAgent(
            config.experts, config.documents, AvailabilityStore(config.availability),
            store, outbound,
        ),
    }
    registry = AgentRegistry(agents)

    orchestration = Dispatcher("OrchestrationDispatcher", registry, pool.subscribe(INCOMING_TOPIC), store)
    arbitration = Dispatcher("ArbitrationDispatcher", registry, pool.subscribe(AGENTS_TOPIC), store)
    scheduler = Scheduler([orchestration, arbitration])

    return Pipeline(
        pool=pool,
        store=store,
        gateway=gateway,
        scheduler=scheduler,
        executor=executor,
    )
