"""Mamdani inference (MIN conjunction, MIN activation, MAX accumulation)
and exact center-of-gravity defuzzification.

Inference yields the rule strengths only.  The aggregated output curve is
built when a centroid is asked for, as a piecewise-linear envelope whose
centroid integrals are evaluated in closed form per segment, not sampled.
"""
from __future__ import annotations

from dataclasses import dataclass

from .membership import LinguisticVariable, MembershipFunction
from .ruleblock import RuleBlock


class MissingInputError(KeyError):
    def __init__(self, variable: str):
        super().__init__(f"no input degrees supplied for variable {variable!r}")
        self.variable = variable


class ZeroActivationError(ArithmeticError):
    """Aggregated output curve has zero area; there is no centroid."""


class FuzzyDefinitionError(ValueError):
    """A rule references a variable or label that the system does not define."""


@dataclass(slots=True)
class FuzzyOutput:
    """Per-label activations of one output variable."""

    variable: LinguisticVariable
    activations: dict[str, float]


def infer(
    block: RuleBlock,
    inputs: dict[str, dict[str, float]],
    output_var: LinguisticVariable,
) -> FuzzyOutput:
    """Run every rule of ``block`` against fuzzified ``inputs``.

    A rule's firing strength is the MIN over its antecedent degrees; each
    output label's activation is the MAX over the strengths of rules that
    conclude it.  Labels missing from an input map count as degree 0; a
    missing *variable* is an error.

    Precondition (checked once by :class:`FuzzySystem`): every rule concludes
    a label of ``output_var``.  Input labels must be canonical ("medium", not
    "intermediate"), as :meth:`LinguisticVariable.fuzzify` returns them.
    """
    activations = {label: 0.0 for label in output_var.labels}
    for rule in block.rules:
        strength = 1.0
        for var, label in rule.antecedents:
            if var not in inputs:
                raise MissingInputError(var)
            strength = min(strength, inputs[var].get(label, 0.0))
        out_label = rule.consequent[1]
        activations[out_label] = max(activations[out_label], strength)
    return FuzzyOutput(variable=output_var, activations=activations)


def aggregate(var: LinguisticVariable, activations: dict[str, float]) -> MembershipFunction:
    """Upper envelope max_l min(activation_l, mu_l(x)) as an explicit curve.

    Breakpoints are the universe ends, every label vertex, every point where
    a curve crosses its activation clip, and every pairwise crossing of the
    clipped curves, so the envelope is exactly linear between consecutive
    breakpoints.
    """
    lo, hi = var.universe
    clipped = [(activations.get(label, 0.0), mf) for label, mf in var.labels.items()]

    xs = {lo, hi}
    for act, mf in clipped:
        prev = None
        for x, d in mf.vertices:
            if lo < x < hi:
                xs.add(x)
            if prev is not None:
                x0, y0 = prev
                x1, y1 = x, d
                # Where the raw curve crosses the clip level.
                if (y0 - act) * (y1 - act) < 0:
                    t = (act - y0) / (y1 - y0)
                    cx = x0 + t * (x1 - x0)
                    if lo < cx < hi:
                        xs.add(cx)
            prev = (x, d)

    base = sorted(xs)

    def clipped_value(act: float, mf: MembershipFunction, x: float) -> float:
        return min(act, mf.evaluate(x))

    # Between two base points every clipped curve is linear; add crossings of
    # distinct curves so the max is linear on each refined interval.
    refined = set(base)
    for x0, x1 in zip(base, base[1:]):
        vals0 = [clipped_value(a, m, x0) for a, m in clipped]
        vals1 = [clipped_value(a, m, x1) for a, m in clipped]
        n = len(clipped)
        for i in range(n):
            for j in range(i + 1, n):
                d0 = vals0[i] - vals0[j]
                d1 = vals1[i] - vals1[j]
                if d0 * d1 < 0:
                    cx = x0 + (x1 - x0) * d0 / (d0 - d1)
                    if x0 < cx < x1:
                        refined.add(cx)

    points = sorted(refined)
    vertices = tuple(
        (x, max(clipped_value(a, m, x) for a, m in clipped) if clipped else 0.0)
        for x in points
    )
    return MembershipFunction(vertices=vertices)


def defuzzify_cog(out: FuzzyOutput) -> float:
    """Centroid of the aggregated curve, integrated exactly per segment.

    Raises :class:`ZeroActivationError` when nothing is activated; callers
    decide what the conservative fallback is.
    """
    area = 0.0
    moment = 0.0
    vs = aggregate(out.variable, out.activations).vertices
    for (x0, y0), (x1, y1) in zip(vs, vs[1:]):
        dx = x1 - x0
        area += dx * (y0 + y1) / 2.0
        moment += dx * (x0 * (2.0 * y0 + y1) + x1 * (y0 + 2.0 * y1)) / 6.0
    if area == 0.0:
        raise ZeroActivationError("aggregated curve has zero area")
    return moment / area


@dataclass
class FuzzySystem:
    """A rule block bound to the variables it mentions.

    Building one checks every rule reference once, so :func:`infer` does not.
    Antecedent variables may be fed either with crisp numbers (``run``) or
    with ready-made label degrees (``infer``).
    """

    variables: dict[str, LinguisticVariable]
    block: RuleBlock
    output: str

    def __post_init__(self):
        if self.output not in self.variables:
            raise FuzzyDefinitionError(f"output variable {self.output!r} is not defined")
        for rule in self.block.rules:
            for var, label in rule.antecedents:
                if var not in self.variables:
                    raise FuzzyDefinitionError(f"rule {rule.index} uses unknown variable {var!r}")
                if label not in self.variables[var].labels:
                    raise FuzzyDefinitionError(
                        f"rule {rule.index} uses unknown label {label!r} of {var!r}"
                    )
            out_var, out_label = rule.consequent
            if out_var != self.output:
                raise FuzzyDefinitionError(
                    f"rule {rule.index} concludes {out_var!r}, expected {self.output!r}"
                )
            if out_label not in self.variables[self.output].labels:
                raise FuzzyDefinitionError(
                    f"rule {rule.index} concludes unknown label {out_label!r}"
                )

    @property
    def output_variable(self) -> LinguisticVariable:
        return self.variables[self.output]

    def infer(self, inputs: dict[str, dict[str, float]]) -> FuzzyOutput:
        return infer(self.block, inputs, self.output_variable)

    def run(self, crisp_inputs: dict[str, float]) -> FuzzyOutput:
        fuzzified = {
            var: self.variables[var].fuzzify(value) for var, value in crisp_inputs.items()
        }
        return self.infer(fuzzified)
