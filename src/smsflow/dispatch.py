"""Event dispatch: the one place metadata is matched, by step.

The pipeline's hops are fixed, so a document goes to the worker agent that
:data:`STEP_AGENTS` names for its ``metadata.stepId``: a plain message
router, with no rules to load or order.  A dispatcher is the one consumer
of its topic: it polls the envelopes published there one at a time, in
publish order, and invokes each one's step worker alone.  No agent watches
a topic: each worker records its own hop in the step log.

Agents and the dispatcher's methods are looked up at each call, never bound
ahead, so a wrapper set on an instance after the pipeline is built sees
every call.
"""
from __future__ import annotations

import logging
from dataclasses import dataclass
from typing import Any

from .messages import (
    STEP_INGESTED,
    STEP_LLM_EXTRACTED,
    STEP_LLM_REQUESTED,
    STEP_PARSED,
    STEP_VALIDATED,
    event_and_step,
)
from .pool import Envelope, Subscription
from .store import RunStore, TERMINAL_UNROUTED

log = logging.getLogger(__name__)

# The worker of each step, by qualifier.
STEP_AGENTS = {
    STEP_INGESTED: "RenewalAgent",
    STEP_PARSED: "EvaluatorAgent",
    STEP_LLM_REQUESTED: "LlmAgent",
    STEP_LLM_EXTRACTED: "ValidatorAgent",
    STEP_VALIDATED: "RouterAgent",
}


@dataclass
class AgentRegistry:
    """Agents by qualifier."""

    agents: dict[str, Any]


class Dispatcher:
    """Routes each envelope of one subscription to its step's worker agent."""

    def __init__(
        self,
        name: str,
        registry: AgentRegistry,
        subscription: Subscription,
        store: RunStore,
    ):
        missing = sorted(set(STEP_AGENTS.values()) - registry.agents.keys())
        if missing:
            raise ValueError(f"{name}: no agent registered as {', '.join(missing)}")
        self.name = name
        self.registry = registry
        self.subscription = subscription
        self.store = store

    def dispatch(self, envelope: Envelope) -> None:
        """Invoke the step's worker, if it has one.

        A failing worker is captured and recorded.  An event whose step has
        no worker ends ``unrouted``.
        """
        event_id, step = event_and_step(envelope.payload)
        worker = STEP_AGENTS.get(step) if isinstance(step, str) else None
        if worker is None:
            if event_id:
                self.store.record_step(event_id, step, self.name, TERMINAL_UNROUTED, terminal=True)
            return
        try:
            self.registry.agents[worker].handle(envelope)
        except Exception as exc:  # noqa: BLE001 - per-agent fault isolation
            log.exception("%s: agent %s failed on event %s", self.name, worker, event_id)
            self.store.record_step(event_id, step, worker, f"agent-failure: {exc}")

    def drain_one(self) -> bool:
        envelope = self.subscription.poll()
        if envelope is None:
            return False
        self.dispatch(envelope)
        return True
