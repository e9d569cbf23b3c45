"""Loading and validation of the pipeline configuration bundle.

One YAML file declares everything an operator can change, in eight
sections (``SECTIONS``): the keyword lexicon, every fuzzy variable and rule
block, the customer fixtures, the medication risk fixtures, model backends,
expert registrations, the store Q&A documents, and appointment availability.
Which agent works each step is fixed (``dispatch.STEP_AGENTS``), not
configured.  Any other top-level key is refused, as is a value of the wrong
kind or range, by a ``ConfigError`` that begins with the value's path
(``llm.models[0].timeout``), so a bundle error never loads unnoticed.
"""
from __future__ import annotations

import math
import os
from dataclasses import dataclass, field
from importlib import resources
from pathlib import Path

import yaml

from .arbitration import CustomerProfile
from .experts import ExpertRegistration, SlotCandidate, StoreDocument
from .fuzzy import FuzzySystem, LinguisticVariable, MembershipFunction, parse_ruleblock
from .llm import ChatCompletionModel, CueConfig, ScriptedModel
from .renewal import KeywordLexicon, LexiconEntry
from .store import CustomerAuthTable
from .validator import StopRiskInputs


class ConfigError(ValueError):
    """Invalid or incomplete configuration bundle."""


# libyaml parses the bundle about seven times faster than PyYAML's pure-Python
# parser; PyYAML built without libyaml has only the latter.
YAML_LOADER = getattr(yaml, "CSafeLoader", yaml.SafeLoader)

DEFAULT_CONFIG_RESOURCE = "default_config.yaml"
DEFAULT_CORPUS_RESOURCE = "corpus_ten.jsonl"

SECTIONS = ("lexicon", "fuzzy", "customers", "medications", "llm", "experts", "documents", "availability")
BACKENDS = ("scripted", "http")


def default_config_path() -> Path:
    return Path(str(resources.files("smsflow") / "data" / DEFAULT_CONFIG_RESOURCE))


def default_corpus_path() -> Path:
    return Path(str(resources.files("smsflow") / "data" / DEFAULT_CORPUS_RESOURCE))


@dataclass(frozen=True)
class ModelSpec:
    model_id: str
    backend: str  # one of BACKENDS
    endpoint: str = ""
    model_name: str = ""
    api_key_env: str = ""
    timeout: float = 30.0


@dataclass
class PipelineConfig:
    lexicon: KeywordLexicon
    confidence_var: LinguisticVariable
    importance_system: FuzzySystem
    action_system: FuzzySystem
    risk_system: FuzzySystem
    risk_threshold: float
    auth: CustomerAuthTable
    profiles: dict[str, CustomerProfile]
    default_profile: CustomerProfile
    medication_default: StopRiskInputs
    medication_by_keyword: dict[str, StopRiskInputs]
    model_specs: list[ModelSpec]
    cues: CueConfig
    experts: list[ExpertRegistration]
    documents: list[StoreDocument]
    availability: dict[SlotCandidate, int] = field(default_factory=dict)

    def build_models(self) -> list:
        """One model per spec; the loader has refused any backend but the two below."""
        models = []
        for spec in self.model_specs:
            if spec.backend == "scripted":
                models.append(ScriptedModel(spec.model_id, self.cues))
            else:
                models.append(
                    ChatCompletionModel(
                        spec.model_id,
                        endpoint=spec.endpoint,
                        model_name=spec.model_name,
                        api_key=os.environ.get(spec.api_key_env, "") if spec.api_key_env else "",
                        timeout=spec.timeout,
                    )
                )
        return models


@dataclass(slots=True)
class _Node:
    """A bundle value with the mapping key or list index it sits under.

    Each accessor returns a checked value or a child node, or refuses the
    value with a ``ConfigError`` that begins with the node's path
    (``llm.models[0].timeout``), which is spelled only then.
    """

    value: object
    parent: _Node | None = None
    key: object = None

    def refuse(self, message) -> ConfigError:
        return ConfigError(f"{self._path() or 'bundle'}: {message}")

    def _path(self) -> str:
        if self.parent is None:
            return ""
        prefix = self.parent._path()
        if isinstance(self.parent.value, list):
            return f"{prefix}[{self.key}]"
        return f"{prefix}.{self.key}" if prefix else str(self.key)

    def mapping(self) -> dict:
        if not isinstance(self.value, dict):
            raise self.refuse(f"expected a mapping, got {self.value!r}")
        return self.value

    def __getitem__(self, key: str) -> _Node:
        if key not in self.mapping():
            raise self.refuse(f"missing {key!r}")
        return _Node(self.value[key], self, key)

    def get(self, key: str, default) -> _Node:
        return _Node(self.mapping().get(key, default), self, key)

    def items(self) -> list[tuple[object, _Node]]:
        return [(key, _Node(value, self, key)) for key, value in self.mapping().items()]

    def elements(self) -> list[_Node]:
        if not isinstance(self.value, list):
            raise self.refuse(f"expected a list, got {self.value!r}")
        return [_Node(value, self, i) for i, value in enumerate(self.value)]

    def strings(self) -> tuple[str, ...]:
        """A list of texts; a scalar would otherwise read as its characters."""
        return tuple(node.text() for node in self.elements())

    def text(self, what: str = "text", types: tuple = (str, int, float)) -> str:
        """A string or number as text; str() would read null as 'None' and a list as its repr."""
        if isinstance(self.value, bool) or not isinstance(self.value, types):
            raise self.refuse(f"expected {what}, got {self.value!r}")
        return str(self.value)

    def number(self) -> float:
        """A finite real value; float() alone would read true as 1.0, pass .nan and .inf,
        and raise a TypeError on a list."""
        if isinstance(self.value, bool) or not isinstance(self.value, (int, float)):
            raise self.refuse(f"expected a number, got {self.value!r}")
        if not math.isfinite(self.value):
            raise self.refuse(f"expected a finite number, got {self.value!r}")
        return float(self.value)

    def nonnegative(self) -> float:
        if self.number() < 0:
            raise self.refuse(f"expected a non-negative number, got {self.value!r}")
        return float(self.value)

    def integer(self) -> int:
        """An integer value; int() alone would read 2.7 as 2 and true as 1."""
        try:
            number = int(self.value)
        except (TypeError, ValueError, OverflowError) as exc:
            raise self.refuse(exc) from exc
        if isinstance(self.value, bool) or number != self.value:
            raise self.refuse(f"expected an integer, got {self.value!r}")
        return number

    def pair(self, what: str) -> tuple[float, float]:
        """A two-number list such as a universe or a membership vertex."""
        if not isinstance(self.value, list) or len(self.value) != 2:
            raise self.refuse(f"expected {what} pair, got {self.value!r}")
        x, y = self.value
        # A finite float pair (most vertices) is taken as it is: a node per coordinate adds a fifth to a load.
        if type(x) is float and type(y) is float and math.isfinite(x) and math.isfinite(y):
            return x, y
        return tuple(node.number() for node in self.elements())

    def build(self, constructor, *args, **kwargs):
        """``constructor(*args, **kwargs)``; the error of a domain check it fails is refused here."""
        try:
            return constructor(*args, **kwargs)
        except (ValueError, OverflowError) as exc:
            raise self.refuse(exc) from exc


def _variable(node: _Node, name: str) -> LinguisticVariable:
    universe = node["universe"].pair("a [low, high]")
    labels = {}
    for label, vertices in node["labels"].items():
        points = tuple(vertex.pair("an [x, degree]") for vertex in vertices.elements())
        labels[label] = vertices.build(MembershipFunction, points)
    return node.build(LinguisticVariable, name=name, universe=universe, labels=labels)


def _system(node: _Node, output: str, variables: dict[str, LinguisticVariable]) -> FuzzySystem:
    ruleblock = node["ruleblock"]
    block = ruleblock.build(parse_ruleblock, ruleblock.text("the rule block text", (str,)))
    return node.build(FuzzySystem, variables=variables, block=block, output=output)


def load_config(path: Path | str) -> PipelineConfig:
    text = Path(path).read_text(encoding="utf-8")
    return load_config_text(text)


def load_config_text(text: str) -> PipelineConfig:
    try:
        data = yaml.load(text, Loader=YAML_LOADER)
    except yaml.YAMLError as exc:
        raise ConfigError(f"invalid YAML: {exc}") from exc
    return load_config_data(data)


def load_config_data(data) -> PipelineConfig:
    """The configuration of an already-parsed bundle, which is left unchanged."""
    bundle = _Node(data)
    unknown = [str(key) for key in bundle.mapping() if key not in SECTIONS]
    if unknown:
        raise bundle.refuse(f"unknown sections {', '.join(unknown)}; expected {', '.join(SECTIONS)}")

    lex = bundle["lexicon"]
    keywords = lex["keywords"]
    lexicon = keywords.build(
        KeywordLexicon,
        entries=tuple(
            node.build(LexiconEntry, *(node[key].text() for key in ("pattern", "canonical", "polarity")))
            for node in keywords.elements()
        ),
        politeness=lex.get("politeness", []).strings(),
    )

    fuzzy = bundle["fuzzy"]
    confidence_var = _variable(fuzzy["confidence"], "degreeOfConfidence")
    importance_system, risk_system = (
        _system(
            node,
            node["output"].text("a variable name", (str,)),
            {name: _variable(variable, name) for name, variable in node["variables"].items()},
        )
        for node in (fuzzy["importance"], fuzzy["risk"])
    )
    action = fuzzy["action"]
    action_system = _system(action, "action", {
        "customerImportance": importance_system.output_variable,
        "degreeOfConfidence": confidence_var,
        "action": _variable(action["output"], "action"),
    })
    threshold = fuzzy["risk"]["threshold"]
    risk_threshold = threshold.number()
    low, high = risk_system.output_variable.universe
    if not low <= risk_threshold <= high:
        raise threshold.refuse(f"{threshold.value!r} outside the output universe [{low}, {high}]")

    customers = bundle["customers"]
    phones = customers["auth"]
    auth = CustomerAuthTable(phones={})
    for phone, node in phones.items():
        if not isinstance(phone, str):  # YAML reads +15550001 and 0123 as numbers
            raise phones.refuse(f"phone {phone!r} is not a string; quote it")
        auth.phones[phone] = node.text()

    def profile(customer_id: str, node: _Node) -> CustomerProfile:
        fields = (node[key].nonnegative() for key in ("tenure_years", "purchases_12mo"))
        return CustomerProfile(customer_id, *fields)

    profiles = {str(customer_id): profile(str(customer_id), node)
                for customer_id, node in customers.get("profiles", {}).items()}
    default_profile = profile("", customers.get("default_profile", {"tenure_years": 0, "purchases_12mo": 0}))

    def risk_inputs(node: _Node) -> StopRiskInputs:
        chronic = node["chronic"]
        if not isinstance(chronic.value, bool):  # bool("false") is True
            raise chronic.refuse(f"expected true or false, got {chronic.value!r}")
        return StopRiskInputs(
            node["criticality"].number(), node["duration_months"].nonnegative(), chronic.value
        )

    medications = bundle.get("medications", {})
    medication_default = risk_inputs(
        medications.get("default", {"criticality": 8, "duration_months": 24, "chronic": True})
    )
    # Only a stop keyword is risk-assessed, by its canonical; any other key would never be read.
    medication_by_keyword = {}
    for keyword, node in medications.get("by_keyword", {}).items():
        if lexicon.polarities.get(str(keyword)) != "stop":
            raise node.refuse("not a stop canonical of the lexicon")
        medication_by_keyword[str(keyword)] = risk_inputs(node)

    llm = bundle["llm"]
    models = llm["models"]
    model_specs = []
    for node in models.elements():
        backend, timeout = node.get("backend", "scripted"), node.get("timeout", 30.0)
        if backend.value not in BACKENDS:
            raise backend.refuse(f"expected one of {', '.join(BACKENDS)}, got {backend.value!r}")
        if timeout.number() <= 0:
            raise timeout.refuse(f"expected a positive number, got {timeout.value!r}")
        names = (node.get(key, "").text() for key in ("endpoint", "model_name", "api_key_env"))
        model_specs.append(ModelSpec(node["id"].text(), backend.value, *names, timeout.number()))
    # Both model stages call each model once and the validator keys their documents by id.
    if len({spec.model_id for spec in model_specs}) != 2 or len(model_specs) != 2:
        raise models.refuse("need exactly two models with distinct ids")
    cue_lists = llm.get("cues", {})
    cues = CueConfig(**{
        name: cue_lists.get(name, list(getattr(CueConfig, name))).strings()
        for name in ("complaint", "request", "mood_positive", "mood_negative")
    })

    registrations = bundle["experts"]
    experts = []
    for node in registrations.elements():
        qualifier = node["qualifier"]
        expert = ExpertRegistration(
            qualifier.text(), node.get("cues", []).strings(), node.get("queue", "").text()
        )
        if expert.qualifier in {e.qualifier for e in experts}:
            raise qualifier.refuse(f"duplicate qualifier {expert.qualifier!r}")
        experts.append(expert)
    if not experts:
        raise registrations.refuse("at least one expert registration is required")

    documents = [
        StoreDocument(question=node["question"].text(), answer=node["answer"].text())
        for node in bundle.get("documents", []).elements()
    ]

    availability = {}
    for node in bundle.get("availability", []).elements():
        slot = node.build(SlotCandidate, *(node[key].integer() for key in ("year", "month", "day", "hours")))
        capacity = node.get("capacity", 1)
        if capacity.integer() < 0:
            raise capacity.refuse(f"expected a non-negative integer, got {capacity.value!r}")
        if slot in availability:
            raise node.refuse(f"slot {slot.line()} is listed twice")
        availability[slot] = capacity.integer()

    return PipelineConfig(
        lexicon=lexicon,
        confidence_var=confidence_var,
        importance_system=importance_system,
        action_system=action_system,
        risk_system=risk_system,
        risk_threshold=risk_threshold,
        auth=auth,
        profiles=profiles,
        default_profile=default_profile,
        medication_default=medication_default,
        medication_by_keyword=medication_by_keyword,
        model_specs=model_specs,
        cues=cues,
        experts=experts,
        documents=documents,
        availability=availability,
    )
