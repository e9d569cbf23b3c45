from __future__ import annotations

import logging
import random
from pathlib import Path

import pytest

from smsflow.config import default_config_path, load_config
from smsflow.fuzzy import LinguisticVariable, MembershipFunction

TESTS_DIR = Path(__file__).parent


def pytest_collection_modifyitems(config, items):
    """A file or socket a test leaves for the finalizers fails that test."""
    for item in items:
        if TESTS_DIR in item.path.parents:
            item.add_marker(pytest.mark.filterwarnings("error::ResourceWarning"))
            item.add_marker(
                pytest.mark.filterwarnings("error::pytest.PytestUnraisableExceptionWarning")
            )


@pytest.fixture(autouse=True)
def smsflow_records_reach_caplog(monkeypatch):
    """``caplog`` sees smsflow's log records also after a module loaded earlier
    in the session (the benchmark runner) stopped them propagating."""
    monkeypatch.setattr(logging.getLogger("smsflow"), "propagate", True)


@pytest.fixture(scope="session")
def default_config():
    return load_config(default_config_path())


@pytest.fixture()
def lexicon(default_config):
    return default_config.lexicon


@pytest.fixture()
def confidence_var(default_config):
    return default_config.confidence_var


def triangle(a: float, b: float, c: float) -> MembershipFunction:
    return MembershipFunction(((a, 0.0), (b, 1.0), (c, 0.0)))


def random_output_variable(rng: random.Random, name: str = "out") -> LinguisticVariable:
    """Random piecewise-linear variable for oracle comparisons."""
    lo = rng.uniform(-5.0, 5.0)
    hi = lo + rng.uniform(1.0, 10.0)
    labels = {}
    for i in range(rng.randint(2, 4)):
        while True:
            xs = sorted({round(rng.uniform(lo, hi), 6) for _ in range(rng.randint(2, 5))})
            if len(xs) >= 2:
                break
        vertices = tuple((x, rng.random()) for x in xs)
        labels[f"label{i}"] = MembershipFunction(vertices)
    return LinguisticVariable(name=name, universe=(lo, hi), labels=labels)


def quadrature_cog(var: LinguisticVariable, activations: dict[str, float], samples: int = 100_000):
    """Independent centroid oracle: dense fixed-step trapezoid quadrature."""
    import numpy as np

    lo, hi = var.universe
    xs = np.linspace(lo, hi, samples + 1)
    env = np.zeros_like(xs)
    for label, mf in var.labels.items():
        xp = [v[0] for v in mf.vertices]
        fp = [v[1] for v in mf.vertices]
        mu = np.interp(xs, xp, fp)
        env = np.maximum(env, np.minimum(activations.get(label, 0.0), mu))
    area = np.trapezoid(env, xs)
    if area == 0.0:
        return None
    return float(np.trapezoid(env * xs, xs) / area)


def brute_force_activations(block, inputs, output_var) -> dict[str, float]:
    """Explicit-loop rule evaluator, independent of the inference module."""
    from smsflow.fuzzy import canonical_label

    degrees = {
        var: {canonical_label(l): d for l, d in dd.items()} for var, dd in inputs.items()
    }
    activations = {label: 0.0 for label in output_var.labels}
    for rule in block.rules:
        strength = None
        for var, label in rule.antecedents:
            d = degrees[var].get(label, 0.0)
            strength = d if strength is None else min(strength, d)
        out_label = rule.consequent[1]
        if strength is not None and strength > activations[out_label]:
            activations[out_label] = strength
    return activations


def remaining_bookings(availability, slots) -> int:
    """Bookings an availability store still grants over ``slots``, found by
    booking each slot until the store refuses it (which uses them up)."""
    granted = 0
    for slot in slots:
        while availability.book(slot):
            granted += 1
    return granted


def terminal_notes(store, event_id: str) -> list[str]:
    """The notes of an event's terminal step records, in record order."""
    return [r["note"] for r in store.steps_of(event_id) if r["terminal"]]


def drained(sub) -> list:
    """The payloads waiting in a subscription, oldest first, polled out of it."""
    return [envelope.payload for envelope in iter(sub.poll, None)]
