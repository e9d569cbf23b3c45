"""Loading and validation of the pipeline configuration bundle.

One YAML file declares everything an operator can change, in eight
sections (``SECTIONS``): the keyword lexicon, every fuzzy variable and rule
block, the customer fixtures, the medication risk fixtures, model backends,
expert registrations, the store Q&A documents, and appointment availability.
Which agent works each step is fixed (``dispatch.STEP_AGENTS``), not
configured.  Any other top-level key is refused, so a misspelled section
never falls back to defaults unnoticed.
"""
from __future__ import annotations

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


def _require(data, key: str, where: str):
    if key not in _mapping(data, where):
        raise ConfigError(f"{where}: missing {key!r}")
    return data[key]


def _mapping(value, where: str) -> dict:
    if not isinstance(value, dict):
        raise ConfigError(f"{where}: expected a mapping, got {value!r}")
    return value


def _mappings(entries, where: str) -> list[dict]:
    """A bundle list whose every entry is a mapping."""
    if not isinstance(entries, list):
        raise ConfigError(f"{where}: expected a list, got {entries!r}")
    return [_mapping(entry, f"{where}[{i}]") for i, entry in enumerate(entries)]


def _strings(value, where: str) -> tuple[str, ...]:
    """A bundle list of strings; a scalar would otherwise read as its characters."""
    if not isinstance(value, (list, tuple)):
        raise ConfigError(f"{where}: expected a list, got {value!r}")
    return tuple(str(x) for x in value)


def _membership(vertices, where: str) -> MembershipFunction:
    if not isinstance(vertices, list):
        raise ConfigError(f"{where}: expected a list of [x, degree] pairs, got {vertices!r}")
    points = []
    for i, vertex in enumerate(vertices):
        if not isinstance(vertex, list) or len(vertex) != 2:
            raise ConfigError(f"{where}[{i}]: expected an [x, degree] pair, got {vertex!r}")
        points.append(tuple(_number(value, f"{where}[{i}][{j}]") for j, value in enumerate(vertex)))
    try:
        return MembershipFunction(tuple(points))
    except ValueError as exc:
        raise ConfigError(f"{where}: {exc}") from exc


def _variable(name: str, data: dict, where: str) -> LinguisticVariable:
    universe = _require(data, "universe", where)
    if not isinstance(universe, list) or len(universe) != 2:
        raise ConfigError(f"{where}.universe: expected a [low, high] pair, got {universe!r}")
    low, high = (_number(bound, f"{where}.universe") for bound in universe)
    labels = {
        label: _membership(vertices, f"{where}.labels.{label}")
        for label, vertices in _mapping(_require(data, "labels", where), f"{where}.labels").items()
    }
    try:
        return LinguisticVariable(name=name, universe=(low, high), labels=labels)
    except ValueError as exc:
        raise ConfigError(f"{where}: {exc}") from exc


def _system(variables: dict[str, LinguisticVariable], output: str, block_text, where: str) -> FuzzySystem:
    if not isinstance(block_text, str):
        raise ConfigError(f"{where}.ruleblock: expected the rule block text, got {block_text!r}")
    try:
        return FuzzySystem(variables=variables, block=parse_ruleblock(block_text), output=output)
    except ValueError as exc:
        raise ConfigError(f"{where}: {exc}") from exc


def _block_system(section, where: str) -> FuzzySystem:
    """The fuzzy system of a section holding its own variables, output and rule block."""
    variables = {
        name: _variable(name, vd, f"{where}.variables.{name}")
        for name, vd in _mapping(_require(section, "variables", where), f"{where}.variables").items()
    }
    output = _require(section, "output", where)
    if not isinstance(output, str):
        raise ConfigError(f"{where}.output: expected a variable name, got {output!r}")
    return _system(variables, output, _require(section, "ruleblock", where), where)


def _number(value, where: str) -> float:
    """A real bundle value; float() alone would read true as 1.0 and raise a TypeError on a list."""
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise ConfigError(f"{where}: expected a number, got {value!r}")
    return float(value)


def _nonnegative(value, where: str) -> float:
    number = _number(value, where)
    if number < 0:
        raise ConfigError(f"{where}: expected a non-negative number, got {value!r}")
    return number


def _integer(value, where: str) -> int:
    """An integer bundle value; int() alone would read 2.7 as 2 and true as 1."""
    try:
        number = int(value)
    except (TypeError, ValueError, OverflowError) as exc:
        raise ConfigError(f"{where}: {exc}") from exc
    if isinstance(value, bool) or number != value:
        raise ConfigError(f"{where}: expected an integer, got {value!r}")
    return number


def load_config(path: Path | str) -> PipelineConfig:
    text = Path(path).read_text(encoding="utf-8")
    return load_config_text(text)


def load_config_text(text: str) -> PipelineConfig:
    try:
        data = yaml.load(text, Loader=YAML_LOADER)
    except yaml.YAMLError as exc:
        raise ConfigError(f"invalid YAML: {exc}") from exc
    if not isinstance(data, dict):
        raise ConfigError("configuration bundle must be a mapping")

    unknown = [str(key) for key in data if key not in SECTIONS]
    if unknown:
        raise ConfigError(f"bundle: unknown sections {', '.join(unknown)}; expected {', '.join(SECTIONS)}")

    lex = _require(data, "lexicon", "bundle")
    keywords = _mappings(_require(lex, "keywords", "lexicon"), "lexicon.keywords")
    politeness = _strings(lex.get("politeness", ()), "lexicon.politeness")
    try:
        lexicon = KeywordLexicon(
            entries=tuple(
                LexiconEntry(
                    pattern=str(e["pattern"]),
                    canonical=str(e["canonical"]),
                    polarity=str(e["polarity"]),
                )
                for e in keywords
            ),
            politeness=politeness,
        )
    except (KeyError, ValueError) as exc:
        raise ConfigError(f"lexicon: {exc}") from exc

    fuzzy = _require(data, "fuzzy", "bundle")
    confidence_var = _variable(
        "degreeOfConfidence", _require(fuzzy, "confidence", "fuzzy"), "fuzzy.confidence"
    )

    importance_system = _block_system(_require(fuzzy, "importance", "fuzzy"), "fuzzy.importance")

    action = _require(fuzzy, "action", "fuzzy")
    action_var = _variable("action", _require(action, "output", "fuzzy.action"), "fuzzy.action.output")
    action_system = _system(
        {
            "customerImportance": importance_system.output_variable,
            "degreeOfConfidence": confidence_var,
            "action": action_var,
        },
        "action",
        _require(action, "ruleblock", "fuzzy.action"),
        "fuzzy.action",
    )

    risk = _require(fuzzy, "risk", "fuzzy")
    risk_system = _block_system(risk, "fuzzy.risk")
    threshold = _require(risk, "threshold", "fuzzy.risk")
    risk_threshold = _number(threshold, "fuzzy.risk.threshold")
    low, high = risk_system.output_variable.universe
    if not low <= risk_threshold <= high:
        raise ConfigError(f"fuzzy.risk.threshold: {threshold!r} outside the output universe [{low}, {high}]")

    customers = _require(data, "customers", "bundle")
    phones = _require(customers, "auth", "customers")
    if not isinstance(phones, dict):
        raise ConfigError("customers.auth: must map phone numbers to customer ids")
    for phone in phones:
        if not isinstance(phone, str):  # YAML reads +15550001 and 0123 as numbers
            raise ConfigError(f"customers.auth: phone {phone!r} is not a string; quote it")
    auth = CustomerAuthTable(phones={str(k): str(v) for k, v in phones.items()})

    def _profile(customer_id: str, pd: dict, where: str) -> CustomerProfile:
        return CustomerProfile(
            customer_id=customer_id,
            tenure_years=_nonnegative(_require(pd, "tenure_years", where), f"{where}.tenure_years"),
            purchases_12mo=_nonnegative(_require(pd, "purchases_12mo", where), f"{where}.purchases_12mo"),
        )

    profiles = {
        str(customer_id): _profile(str(customer_id), pd, f"customers.profiles.{customer_id}")
        for customer_id, pd in _mapping(customers.get("profiles", {}), "customers.profiles").items()
    }
    default_profile = _profile(
        "",
        customers.get("default_profile", {"tenure_years": 0, "purchases_12mo": 0}),
        "customers.default_profile",
    )

    def _risk_inputs(rd: dict, where: str) -> StopRiskInputs:
        chronic = _require(rd, "chronic", where)
        if not isinstance(chronic, bool):  # bool("false") is True
            raise ConfigError(f"{where}.chronic: expected true or false, got {chronic!r}")
        return StopRiskInputs(
            criticality=_number(_require(rd, "criticality", where), f"{where}.criticality"),
            duration_months=_nonnegative(_require(rd, "duration_months", where), f"{where}.duration_months"),
            chronic=chronic,
        )

    medications = _mapping(data.get("medications", {}), "medications")
    medication_default = _risk_inputs(
        medications.get("default", {"criticality": 8, "duration_months": 24, "chronic": True}),
        "medications.default",
    )
    medication_by_keyword = {
        str(k): _risk_inputs(v, f"medications.by_keyword.{k}")
        for k, v in _mapping(medications.get("by_keyword", {}), "medications.by_keyword").items()
    }

    llm = _require(data, "llm", "bundle")
    models = _mappings(_require(llm, "models", "llm"), "llm.models")
    for i, m in enumerate(models):
        backend = m.get("backend", "scripted")
        if backend not in BACKENDS:
            raise ConfigError(f"llm.models[{i}].backend: expected one of {', '.join(BACKENDS)}, got {backend!r}")
    model_specs = [
        ModelSpec(
            model_id=str(_require(m, "id", "llm.models")),
            backend=m.get("backend", "scripted"),
            endpoint=str(m.get("endpoint", "")),
            model_name=str(m.get("model_name", "")),
            api_key_env=str(m.get("api_key_env", "")),
            timeout=_number(m.get("timeout", 30.0), f"llm.models[{i}].timeout"),
        )
        for i, m in enumerate(models)
    ]
    cue_data = _mapping(llm.get("cues", {}), "llm.cues")
    cues = CueConfig(**{
        name: _strings(cue_data.get(name, getattr(CueConfig, name)), f"llm.cues.{name}")
        for name in ("complaint", "request", "mood_positive", "mood_negative")
    })

    try:
        experts = [
            ExpertRegistration(
                qualifier=str(e["qualifier"]),
                cues=_strings(e.get("cues", ()), "experts.cues"),
                queue=str(e.get("queue", "")),
            )
            for e in _mappings(_require(data, "experts", "bundle"), "experts")
        ]
    except KeyError as exc:
        raise ConfigError(f"experts: missing {exc}") from exc
    if not experts:
        raise ConfigError("experts: at least one expert registration is required")
    if len({e.qualifier for e in experts}) != len(experts):
        raise ConfigError("experts: duplicate qualifiers")
    # Both model stages call each model once and the validator keys their documents by id.
    if len({spec.model_id for spec in model_specs}) != 2 or len(model_specs) != 2:
        raise ConfigError("llm.models: need exactly two models with distinct ids")

    try:
        documents = [
            StoreDocument(question=str(d["question"]), answer=str(d["answer"]))
            for d in _mappings(data.get("documents", []), "documents")
        ]
    except KeyError as exc:
        raise ConfigError(f"documents: missing {exc}") from exc

    availability = {}
    for i, s in enumerate(_mappings(data.get("availability", []), "availability")):
        where = f"availability[{i}]"
        fields = [
            _integer(_require(s, key, where), f"{where}.{key}") for key in ("year", "month", "day", "hours")
        ]
        capacity = _integer(s.get("capacity", 1), f"{where}.capacity")
        if capacity < 0:
            raise ConfigError(f"{where}.capacity: expected a non-negative integer, got {capacity}")
        try:
            slot = SlotCandidate(*fields)
        except (ValueError, OverflowError) as exc:
            raise ConfigError(f"{where}: {exc}") from exc
        availability[slot] = capacity

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
