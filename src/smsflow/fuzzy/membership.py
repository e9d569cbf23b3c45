"""Piecewise-linear membership curves and linguistic variables."""
from __future__ import annotations

import math
from dataclasses import dataclass

# The confidence vector is written with an "intermediate" middle label on the
# wire, while rule text calls the same label "medium".  Variables and rule
# blocks store the canonical name; ``DegreeOfConfidence`` maps the wire one.
LABEL_ALIASES = {"intermediate": "medium"}


def canonical_label(name: str) -> str:
    return LABEL_ALIASES.get(name, name)


class MembershipDefinitionError(ValueError):
    """Raised for malformed membership curves or variable definitions."""


@dataclass(frozen=True)
class MembershipFunction:
    """A membership curve given as ordered (x, degree) vertices.

    Between vertices the degree is linearly interpolated; outside the vertex
    span it is the nearest endpoint degree.
    """

    vertices: tuple[tuple[float, float], ...]

    def __post_init__(self):
        if not self.vertices:
            raise MembershipDefinitionError("membership curve needs at least one vertex")
        xs = [v[0] for v in self.vertices]
        for a, b in zip(xs, xs[1:]):
            if not a < b:
                raise MembershipDefinitionError(f"vertex x values must be strictly increasing, got {a} then {b}")
        for x, d in self.vertices:
            if not (math.isfinite(x) and math.isfinite(d)):
                raise MembershipDefinitionError(f"non-finite vertex ({x}, {d})")
            if not 0.0 <= d <= 1.0:
                raise MembershipDefinitionError(f"degree {d} at x={x} outside [0, 1]")

    @property
    def span(self) -> tuple[float, float]:
        return self.vertices[0][0], self.vertices[-1][0]

    def evaluate(self, x: float) -> float:
        vs = self.vertices
        if x <= vs[0][0]:
            return vs[0][1]
        if x >= vs[-1][0]:
            return vs[-1][1]
        for (x0, y0), (x1, y1) in zip(vs, vs[1:]):
            if x0 <= x <= x1:
                t = (x - x0) / (x1 - x0)
                # Clamp away one-ulp excursions outside the degree interval.
                return min(1.0, max(0.0, y0 + (y1 - y0) * t))
        raise AssertionError("unreachable: x inside span not bracketed")


@dataclass(frozen=True)
class LinguisticVariable:
    """A named variable with one membership curve per label."""

    name: str
    universe: tuple[float, float]
    labels: dict[str, MembershipFunction]

    def __post_init__(self):
        lo, hi = self.universe
        if not (math.isfinite(lo) and math.isfinite(hi) and lo < hi):
            raise MembershipDefinitionError(f"variable {self.name!r}: bad universe {self.universe}")
        if not self.labels:
            raise MembershipDefinitionError(f"variable {self.name!r} needs at least one label")
        canonical = {}
        for label, mf in self.labels.items():
            canonical[canonical_label(label)] = mf
            left, right = mf.span
            if left < lo or right > hi:
                raise MembershipDefinitionError(
                    f"variable {self.name!r} label {label!r}: vertices outside universe {self.universe}"
                )
        object.__setattr__(self, "labels", canonical)

    def clamp(self, x: float) -> float:
        lo, hi = self.universe
        return min(max(x, lo), hi)

    def fuzzify(self, crisp: float) -> dict[str, float]:
        if not math.isfinite(crisp):
            raise ValueError(f"crisp input for {self.name!r} must be finite, got {crisp}")
        x = self.clamp(crisp)
        return {label: mf.evaluate(x) for label, mf in self.labels.items()}
