import random

import pytest

from smsflow.fuzzy import (
    FuzzyDefinitionError,
    FuzzySystem,
    LinguisticVariable,
    MembershipFunction,
    MissingInputError,
    ZeroActivationError,
    defuzzify_cog,
    infer,
    parse_ruleblock,
)
from smsflow.fuzzy.inference import aggregate

from conftest import brute_force_activations, quadrature_cog, random_output_variable, triangle
from test_fuzzy_ruleblock import ACTION_BLOCK

ACTION_VAR = LinguisticVariable(
    "action",
    (0.0, 2.0),
    {"forwardToLLM": triangle(0.0, 0.5, 1.0), "fail": triangle(1.0, 1.5, 2.0)},
)


def _one_hot(label):
    return {l: (1.0 if l == label else 0.0) for l in ("high", "medium", "low")}


def test_high_importance_low_confidence_forwards():
    block = parse_ruleblock(ACTION_BLOCK)
    out = infer(
        block,
        {"customerImportance": _one_hot("high"), "degreeOfConfidence": _one_hot("low")},
        ACTION_VAR,
    )
    assert out.activations == {"forwardToLLM": 1.0, "fail": 0.0}


def test_all_zero_inputs_activate_nothing():
    block = parse_ruleblock(ACTION_BLOCK)
    zeros = {l: 0.0 for l in ("high", "medium", "low")}
    out = infer(block, {"customerImportance": zeros, "degreeOfConfidence": zeros}, ACTION_VAR)
    assert set(out.activations.values()) == {0.0}


def test_min_conjunction_drives_rule_12():
    block = parse_ruleblock(ACTION_BLOCK)
    out = infer(
        block,
        {
            "customerImportance": {"high": 0.0, "medium": 0.0, "low": 0.6},
            "degreeOfConfidence": {"high": 0.0, "medium": 0.0, "low": 0.4},
        },
        ACTION_VAR,
    )
    assert out.activations["fail"] == pytest.approx(0.4)
    assert out.activations["forwardToLLM"] == 0.0


def test_missing_input_names_the_variable():
    block = parse_ruleblock(ACTION_BLOCK)
    with pytest.raises(MissingInputError) as err:
        infer(block, {"customerImportance": _one_hot("high")}, ACTION_VAR)
    assert "degreeOfConfidence" in str(err.value)


def test_cog_of_symmetric_triangle_is_its_center():
    var = LinguisticVariable("out", (0.0, 1.0), {"mid": triangle(0.0, 0.5, 1.0)})
    out = infer(
        parse_ruleblock("RULEBLOCK b\nRULE 1 : IF x IS on THEN out IS mid;\nEND_RULEBLOCK\n"),
        {"x": {"on": 1.0}},
        var,
    )
    assert defuzzify_cog(out) == pytest.approx(0.5, abs=1e-12)


def test_cog_of_two_equal_plateaus_is_midpoint():
    left = MembershipFunction(((0.1, 0.0), (0.15, 1.0), (0.25, 1.0), (0.3, 0.0)))
    right = MembershipFunction(((0.7, 0.0), (0.75, 1.0), (0.85, 1.0), (0.9, 0.0)))
    var = LinguisticVariable("out", (0.0, 1.0), {"l": left, "r": right})
    block = parse_ruleblock(
        "RULEBLOCK b\nRULE 1 : IF x IS on THEN out IS l;\nRULE 2 : IF x IS on THEN out IS r;\nEND_RULEBLOCK\n"
    )
    out = infer(block, {"x": {"on": 1.0}}, var)
    assert defuzzify_cog(out) == pytest.approx(0.5, abs=1e-12)


def test_cog_of_partially_activated_action_output_matches_quadrature():
    activations = {"forwardToLLM": 0.4, "fail": 0.4}
    block = parse_ruleblock(
        "RULEBLOCK b\nRULE 1 : IF x IS a THEN action IS forwardToLLM;\n"
        "RULE 2 : IF x IS b THEN action IS fail;\nEND_RULEBLOCK\n"
    )
    out = infer(block, {"x": {"a": 0.4, "b": 0.4}}, ACTION_VAR)
    expected = quadrature_cog(ACTION_VAR, activations)
    got = defuzzify_cog(out)
    assert abs(got - expected) <= 1e-6 * abs(expected)


def test_zero_area_raises():
    var = LinguisticVariable("out", (0.0, 1.0), {"mid": triangle(0.0, 0.5, 1.0)})
    block = parse_ruleblock("RULEBLOCK b\nRULE 1 : IF x IS on THEN out IS mid;\nEND_RULEBLOCK\n")
    out = infer(block, {"x": {"on": 0.0}}, var)
    with pytest.raises(ZeroActivationError):
        defuzzify_cog(out)


def test_inference_is_pure():
    block = parse_ruleblock(ACTION_BLOCK)
    inputs = {
        "customerImportance": {"high": 0.3, "medium": 0.7, "low": 0.2},
        "degreeOfConfidence": {"high": 0.1, "medium": 0.5, "low": 0.9},
    }
    a = infer(block, inputs, ACTION_VAR)
    b = infer(block, inputs, ACTION_VAR)
    assert a.activations == b.activations
    assert aggregate(ACTION_VAR, a.activations) == aggregate(ACTION_VAR, b.activations)
    assert defuzzify_cog(a) == defuzzify_cog(b)


def test_aggregated_curve_equals_clipped_max_pointwise():
    rng = random.Random(5)
    for _ in range(20):
        var = random_output_variable(rng)
        activations = {label: rng.random() for label in var.labels}
        block_rules = "\n".join(
            f"RULE {i} : IF x IS l{i} THEN {var.name} IS {label};"
            for i, label in enumerate(var.labels)
        )
        block = parse_ruleblock(f"RULEBLOCK b\n{block_rules}\nEND_RULEBLOCK\n")
        inputs = {"x": {f"l{i}": activations[label] for i, label in enumerate(var.labels)}}
        out = infer(block, inputs, var)
        lo, hi = var.universe
        for k in range(101):
            x = lo + (hi - lo) * k / 100
            expected = max(
                min(activations[label], mf.evaluate(x)) for label, mf in var.labels.items()
            )
            assert aggregate(var, out.activations).evaluate(x) == pytest.approx(expected, abs=1e-9)


def test_activations_match_brute_force_and_stay_in_unit_interval():
    rng = random.Random(11)
    block = parse_ruleblock(ACTION_BLOCK)
    for _ in range(50):
        inputs = {
            "customerImportance": {l: rng.random() for l in ("high", "medium", "low")},
            "degreeOfConfidence": {l: rng.random() for l in ("high", "medium", "low")},
        }
        out = infer(block, inputs, ACTION_VAR)
        assert out.activations == brute_force_activations(block, inputs, ACTION_VAR)
        assert all(0.0 <= a <= 1.0 for a in out.activations.values())


def test_raising_an_input_degree_never_lowers_activations():
    rng = random.Random(23)
    block = parse_ruleblock(ACTION_BLOCK)
    for _ in range(100):
        inputs = {
            "customerImportance": {l: rng.random() for l in ("high", "medium", "low")},
            "degreeOfConfidence": {l: rng.random() for l in ("high", "medium", "low")},
        }
        before = infer(block, inputs, ACTION_VAR).activations
        var = rng.choice(["customerImportance", "degreeOfConfidence"])
        label = rng.choice(["high", "medium", "low"])
        bumped = {v: dict(d) for v, d in inputs.items()}
        bumped[var][label] = min(1.0, bumped[var][label] + rng.random())
        after = infer(block, bumped, ACTION_VAR).activations
        for out_label in before:
            assert after[out_label] >= before[out_label] - 1e-12


def test_cog_lies_within_the_activated_region():
    rng = random.Random(31)
    from smsflow.fuzzy.inference import FuzzyOutput, aggregate

    for _ in range(50):
        var = random_output_variable(rng)
        activations = {label: rng.random() for label in var.labels}
        agg = aggregate(var, activations)
        # Closure of {x : envelope(x) > 0}: segments with a positive endpoint.
        pairs = list(zip(agg.vertices, agg.vertices[1:]))
        active = [(p, q) for p, q in pairs if p[1] > 0 or q[1] > 0]
        if not active:
            continue
        region_min = min(p[0] for p, _ in active)
        region_max = max(q[0] for _, q in active)
        out = FuzzyOutput(variable=var, activations=activations)
        cog = defuzzify_cog(out)
        assert region_min <= cog <= region_max


def test_full_inference_path_matches_the_brute_force_oracle():
    # Random rule blocks over random variables: rule loops plus dense
    # sampling on one side, the inference module on the other.
    from conftest import quadrature_cog

    rng = random.Random(77)
    checked = 0
    while checked < 100:
        out_var = random_output_variable(rng, name="out")
        out_labels = list(out_var.labels)
        in_labels = [f"deg{i}" for i in range(rng.randint(1, 3))]
        rules = []
        for i in range(rng.randint(1, 6)):
            n_ant = rng.randint(1, 3)
            conds = " AND ".join(
                f"invar{rng.randrange(2)} IS {rng.choice(in_labels)}" for _ in range(n_ant)
            )
            rules.append(f"RULE {i} : IF {conds} THEN out IS {rng.choice(out_labels)};")
        block = parse_ruleblock("RULEBLOCK r\n" + "\n".join(rules) + "\nEND_RULEBLOCK\n")
        inputs = {
            f"invar{v}": {label: rng.random() for label in in_labels} for v in range(2)
        }
        out = infer(block, inputs, out_var)
        assert out.activations == brute_force_activations(block, inputs, out_var)
        expected = quadrature_cog(out_var, out.activations)
        if expected is None:
            continue
        got = defuzzify_cog(out)
        assert abs(got - expected) <= 1e-6 * max(abs(expected), 1e-12)
        checked += 1


def test_system_validates_rule_references():
    var = LinguisticVariable("out", (0.0, 1.0), {"mid": triangle(0.0, 0.5, 1.0)})
    block = parse_ruleblock("RULEBLOCK b\nRULE 1 : IF x IS on THEN out IS mid;\nEND_RULEBLOCK\n")
    with pytest.raises(FuzzyDefinitionError):
        FuzzySystem(variables={"out": var}, block=block, output="out")  # x undeclared
    bad_label = parse_ruleblock("RULEBLOCK b\nRULE 1 : IF out IS nope THEN out IS mid;\nEND_RULEBLOCK\n")
    with pytest.raises(FuzzyDefinitionError):
        FuzzySystem(variables={"out": var}, block=bad_label, output="out")
    with pytest.raises(FuzzyDefinitionError):
        FuzzySystem(variables={"out": var}, block=block, output="missing")


def test_infer_rejects_rules_for_other_outputs():
    # The consequent check lives in FuzzySystem, the only way to reach
    # inference with a checked rule block.
    block = parse_ruleblock("RULEBLOCK b\nRULE 1 : IF x IS on THEN other IS mid;\nEND_RULEBLOCK\n")
    var = LinguisticVariable("out", (0.0, 1.0), {"mid": triangle(0.0, 0.5, 1.0)})
    x = LinguisticVariable("x", (0.0, 1.0), {"on": triangle(0.0, 0.5, 1.0)})
    with pytest.raises(FuzzyDefinitionError, match="concludes 'other'"):
        FuzzySystem(variables={"out": var, "x": x}, block=block, output="out")
