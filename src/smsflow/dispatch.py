"""Configuration-driven event dispatch: the one place metadata is matched.

Each rule in the services configuration forwards matching envelopes to a
named worker agent; its conditions are string-equality tests on dotted
payload paths, looked up in an index built once per dispatcher.  A
dispatcher owns one topic subscription, which hands it every envelope
published there, plus the rule set for its stage, and invokes its registry's
always-on set (at the arbitration stage, the tracking agent) for every
message it sees.

Agents and the dispatcher's methods are looked up at each call, never bound
ahead, so a wrapper set on an instance after the pipeline is built sees
every call.
"""
from __future__ import annotations

import logging
from dataclasses import dataclass, field
from typing import Any, Protocol

from .messages import event_and_step
from .pool import Envelope, Subscription
from .store import RunStore, TERMINAL_UNROUTED

log = logging.getLogger(__name__)


class DispatchConfigError(ValueError):
    """Malformed services configuration."""


@dataclass(frozen=True)
class MetadataFilter:
    """Conjunction of string-equality tests on dotted payload paths.

    Each path is split once, at construction.  A missing hop or a non-dict
    node along a path reads as None, so that test fails.
    """

    conditions: tuple[tuple[str, str], ...]
    _tests: tuple[tuple[tuple[str, ...], str], ...] = field(
        init=False, repr=False, compare=False
    )

    def __post_init__(self):
        object.__setattr__(
            self, "_tests", tuple((tuple(key.split(".")), value) for key, value in self.conditions)
        )

    def matches(self, payload: Any) -> bool:
        for parts, value in self._tests:
            node = payload
            for part in parts:
                node = node.get(part) if isinstance(node, dict) else None
            if node != value:
                return False
        return True


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

    def validate_against(self, rules: list[ServiceRule]) -> None:
        needed = {r.qualifier for r in rules} | set(self.always_on)
        missing = sorted(needed - set(self.agents))
        if missing:
            raise DispatchConfigError(f"unresolved agent qualifiers: {', '.join(missing)}")


def load_rules_from_data(services: dict) -> list[ServiceRule]:
    """Rule objects from one stage's parsed ``services`` mapping (its ``rules`` list)."""
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
    """Routes envelopes from one subscription to matching worker agents.

    Rules are indexed at construction by the path and value of their first
    condition, each value's rules in declaration order; so the shipped rule
    sets cost one path walk and one dict lookup per envelope, and only rules
    with other conditions test them, with a :class:`MetadataFilter`.
    """

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
        index: dict[tuple[str, ...], dict[Any, list]] = {}
        for position, rule in enumerate(rules):
            if not rule.conditions:
                raise DispatchConfigError(f"rule {rule.name!r} has no conditions")
            (key, value), rest = rule.conditions[0], rule.conditions[1:]
            index.setdefault(tuple(key.split(".")), {}).setdefault(value, []).append(
                (position, MetadataFilter(rest) if rest else None, rule.qualifier)
            )
        # (path parts, value -> (declaration position, other conditions, qualifier)).
        self._index = tuple(
            (parts, {value: tuple(hits) for value, hits in table.items()})
            for parts, table in index.items()
        )
        self.always_on = sorted(set(registry.always_on))
        self.subscription = subscription
        self.store = store

    def dispatch(self, envelope: Envelope) -> set[str]:
        """Invoke every matching agent (plus always-on); returns the set invoked.

        A failing agent is captured and recorded; the other matching agents
        still run.
        """
        doc = envelope.payload
        hits = ()
        for parts, table in self._index:
            node = doc
            for part in parts:
                node = node.get(part) if isinstance(node, dict) else None
            try:
                found = table.get(node)
            except TypeError:  # unhashable, so equal to no condition value
                continue
            if found:
                # Declaration positions are distinct, so hits sort by them alone.
                hits = sorted([*hits, *found]) if hits else found
        # Always-on agents, then workers in rule-declaration order (the invoked
        # *set* is the contract; the order is what makes runs reproducible).
        invoked = list(self.always_on)
        routed = False
        for _, rest, qualifier in hits:
            if rest is None or rest.matches(doc):
                routed = True
                if qualifier not in invoked:
                    invoked.append(qualifier)

        event_id, step = event_and_step(doc)
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
