"""Self-contained Mamdani fuzzy-inference engine.

Piecewise-linear membership curves, a rule-block text parser with fixed
MIN/MIN/MAX operators, and exact center-of-gravity defuzzification.
"""

from .membership import (
    LABEL_ALIASES,
    LinguisticVariable,
    MembershipDefinitionError,
    MembershipFunction,
    canonical_label,
)
from .ruleblock import (
    Rule,
    RuleBlock,
    RuleSyntaxError,
    UnsupportedOperatorError,
    parse_ruleblock,
)
from .inference import (
    FuzzyDefinitionError,
    FuzzyOutput,
    FuzzySystem,
    MissingInputError,
    ZeroActivationError,
    defuzzify_cog,
    infer,
)

__all__ = [
    "LABEL_ALIASES",
    "LinguisticVariable",
    "MembershipDefinitionError",
    "MembershipFunction",
    "canonical_label",
    "Rule",
    "RuleBlock",
    "RuleSyntaxError",
    "UnsupportedOperatorError",
    "parse_ruleblock",
    "FuzzyDefinitionError",
    "FuzzyOutput",
    "FuzzySystem",
    "MissingInputError",
    "ZeroActivationError",
    "defuzzify_cog",
    "infer",
]
