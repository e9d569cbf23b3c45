"""Event dispatch: the one place metadata is matched, by step.

The pipeline's hops are fixed, so a document goes to the worker agent that
:data:`STEP_AGENTS` names for its ``metadata.stepId``: a plain message
router, with no rules to load or order.  A dispatcher owns one topic
subscription, which hands it every envelope published there, and invokes
its registry's always-on agents (at the arbitration stage, the tracking
agent) for every message it sees, before the step's worker.

Agents and the dispatcher's methods are looked up at each call, never bound
ahead, so a wrapper set on an instance after the pipeline is built sees
every call.  Only the qualifiers each step invokes are fixed when the
dispatcher is built: one tuple per step of :data:`STEP_AGENTS`, the
registry's always-on agents first, and those agents alone for any other step.
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
    """Agents by qualifier, and those invoked for every message a dispatcher sees."""

    agents: dict[str, Any]
    always_on: tuple[str, ...] = ()


class Dispatcher:
    """Routes each envelope of one subscription to its step's worker agent."""

    def __init__(
        self,
        name: str,
        registry: AgentRegistry,
        subscription: Subscription,
        store: RunStore,
    ):
        missing = sorted({*STEP_AGENTS.values(), *registry.always_on} - registry.agents.keys())
        if missing:
            raise ValueError(f"{name}: no agent registered as {', '.join(missing)}")
        self.name = name
        self.registry = registry
        self.subscription = subscription
        self.store = store
        # What each step invokes, in order; see the module docstring.
        self._always_on = tuple(registry.always_on)
        self._invoked = {step: (*self._always_on, worker) for step, worker in STEP_AGENTS.items()}

    def dispatch(self, envelope: Envelope) -> set[str]:
        """Invoke the always-on agents, then the step's worker; returns the set invoked.

        A failing agent is captured and recorded; the others still run.  An
        event whose step has no worker ends ``unrouted``.
        """
        event_id, step = event_and_step(envelope.payload)
        invoked = self._invoked.get(step) if isinstance(step, str) else None
        routed = invoked is not None
        if not routed:
            invoked = self._always_on

        agents = self.registry.agents
        for qualifier in invoked:
            try:
                agents[qualifier].handle(envelope)
            except Exception as exc:  # noqa: BLE001 - per-agent fault isolation
                log.exception("%s: agent %s failed on event %s", self.name, qualifier, event_id)
                self.store.record_step(event_id, step, qualifier, f"agent-failure: {exc}")

        if not routed and event_id:
            self.store.record_step(
                event_id, step, self.name, TERMINAL_UNROUTED, terminal=True
            )
        return set(invoked)

    def drain_one(self) -> bool:
        batch = self.subscription.poll(1)
        if not batch:
            return False
        self.dispatch(batch[0])
        return True
