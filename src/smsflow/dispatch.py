"""Configuration-driven event dispatch.

Each rule in the services configuration forwards matching envelopes to a
named worker agent.  A dispatcher owns one topic subscription plus the rule
set for its stage, and invokes its registry's always-on set (at the
arbitration stage, the tracking agent) for every message it sees.
"""
from __future__ import annotations

import logging
from dataclasses import dataclass
from typing import Protocol

import yaml

from .messages import get_path
from .pool import Envelope, MetadataFilter, Subscription
from .store import RunStore, TERMINAL_UNROUTED

log = logging.getLogger(__name__)


class DispatchConfigError(ValueError):
    """Malformed services configuration."""


@dataclass(frozen=True)
class ServiceRule:
    name: str
    qualifier: str
    conditions: tuple[tuple[str, str], ...]


class Agent(Protocol):
    qualifier: str

    def handle(self, envelope: Envelope) -> None: ...


@dataclass
class AgentRegistry:
    agents: dict[str, Agent]
    always_on: tuple[str, ...] = ()

    def resolve(self, qualifier: str) -> Agent:
        return self.agents[qualifier]

    def validate_against(self, rules: list[ServiceRule]) -> None:
        needed = {r.qualifier for r in rules} | set(self.always_on)
        missing = sorted(needed - set(self.agents))
        if missing:
            raise DispatchConfigError(f"unresolved agent qualifiers: {', '.join(missing)}")


def load_rules(config_text: str) -> list[ServiceRule]:
    """Parse the services YAML (``services.rules[*]``) into rule objects."""
    try:
        data = yaml.safe_load(config_text)
    except yaml.YAMLError as exc:
        raise DispatchConfigError(f"invalid YAML: {exc}") from exc
    if not isinstance(data, dict) or "services" not in data:
        raise DispatchConfigError("missing top-level 'services' section")
    return load_rules_from_data(data["services"])


def load_rules_from_data(services: dict) -> list[ServiceRule]:
    if not isinstance(services, dict) or "rules" not in services:
        raise DispatchConfigError("missing 'rules' list under services")
    entries = services["rules"] or []
    rules: list[ServiceRule] = []
    seen = set()
    for i, entry in enumerate(entries):
        where = f"services.rules[{i}]"
        if not isinstance(entry, dict):
            raise DispatchConfigError(f"{where}: expected a mapping")
        name = entry.get("name")
        qualifier = entry.get("qualifier")
        if not name:
            raise DispatchConfigError(f"{where}: missing rule name")
        if not qualifier:
            raise DispatchConfigError(f"{where}: rule {name!r} has no qualifier")
        if name in seen:
            raise DispatchConfigError(f"{where}: duplicate rule name {name!r}")
        seen.add(name)
        raw_conditions = entry.get("conditions") or []
        conditions = []
        for j, cond in enumerate(raw_conditions):
            if not isinstance(cond, dict) or "key" not in cond or "value" not in cond:
                raise DispatchConfigError(f"{where}.conditions[{j}]: expected key/value mapping")
            conditions.append((str(cond["key"]), str(cond["value"])))
        if not conditions:
            raise DispatchConfigError(f"{where}: rule {name!r} has no conditions")
        rules.append(ServiceRule(name=name, qualifier=qualifier, conditions=tuple(conditions)))
    return rules


class Dispatcher:
    """Routes envelopes from one subscription to matching worker agents."""

    def __init__(
        self,
        name: str,
        rules: list[ServiceRule],
        registry: AgentRegistry,
        subscription: Subscription,
        store: RunStore,
    ):
        registry.validate_against(rules)
        self.name = name
        self.registry = registry
        self.routes = [(MetadataFilter(rule.conditions), rule.qualifier) for rule in rules]
        self.subscription = subscription
        self.store = store

    def dispatch(self, envelope: Envelope) -> set[str]:
        """Invoke every matching agent (plus always-on); returns the set invoked.

        A failing agent is captured and recorded; the other matching agents
        still run.
        """
        doc = envelope.payload
        # Workers run in rule-declaration order (the invoked *set* is the
        # contract; the order is what makes scheduler runs reproducible).
        matched: list[str] = []
        for condition, qualifier in self.routes:
            if condition.matches(doc) and qualifier not in matched:
                matched.append(qualifier)
        always = sorted(set(self.registry.always_on))
        workers = [q for q in matched if q not in always]
        invoked = always + workers

        event_id = get_path(doc, "metadata.eventId") or ""
        step = get_path(doc, "metadata.stepId") or ""
        for qualifier in invoked:
            agent = self.registry.resolve(qualifier)
            try:
                agent.handle(envelope)
            except Exception as exc:  # noqa: BLE001 - per-agent fault isolation
                log.exception("%s: agent %s failed on event %s", self.name, qualifier, event_id)
                self.store.record_step(event_id, step, qualifier, f"agent-failure: {exc}")

        if not matched and event_id:
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
