"""Loading and validation of the pipeline configuration bundle.

One YAML file declares everything an operator can change: dispatch rules for
both stages, the keyword lexicon, every fuzzy variable and rule block, the
customer fixtures, model backends, expert registrations, the store Q&A
documents, and appointment availability.
"""
from __future__ import annotations

import os
from dataclasses import dataclass, field
from importlib import resources
from pathlib import Path

import yaml

from .arbitration import CustomerProfile
from .dispatch import ServiceRule, load_rules_from_data
from .experts import ExpertRegistration, SlotCandidate, StoreDocument
from .fuzzy import FuzzySystem, LinguisticVariable, MembershipFunction, parse_ruleblock
from .llm import ChatCompletionModel, CueConfig, ScriptedModel
from .renewal import KeywordLexicon, LexiconEntry
from .store import CustomerAuthTable
from .validator import StopRiskInputs


class ConfigError(ValueError):
    """Invalid or incomplete configuration bundle."""


DEFAULT_CONFIG_RESOURCE = "default_config.yaml"
DEFAULT_CORPUS_RESOURCE = "corpus_ten.jsonl"


def default_config_path() -> Path:
    return Path(str(resources.files("smsflow") / "data" / DEFAULT_CONFIG_RESOURCE))


def default_corpus_path() -> Path:
    return Path(str(resources.files("smsflow") / "data" / DEFAULT_CORPUS_RESOURCE))


@dataclass(frozen=True)
class ModelSpec:
    model_id: str
    backend: str  # "scripted" | "http"
    endpoint: str = ""
    model_name: str = ""
    api_key_env: str = ""
    timeout: float = 30.0


@dataclass
class PipelineConfig:
    orchestration_rules: list[ServiceRule]
    arbitration_rules: list[ServiceRule]
    always_on: tuple[str, ...]
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
        models = []
        for spec in self.model_specs:
            if spec.backend == "scripted":
                models.append(ScriptedModel(spec.model_id, self.cues))
            elif spec.backend == "http":
                models.append(
                    ChatCompletionModel(
                        spec.model_id,
                        endpoint=spec.endpoint,
                        model_name=spec.model_name,
                        api_key=os.environ.get(spec.api_key_env, "") if spec.api_key_env else "",
                        timeout=spec.timeout,
                    )
                )
            else:
                raise ConfigError(f"unknown model backend {spec.backend!r}")
        return models


def _require(data: dict, key: str, where: str):
    if key not in data:
        raise ConfigError(f"{where}: missing {key!r}")
    return data[key]


def _membership(vertices, where: str) -> MembershipFunction:
    try:
        return MembershipFunction(tuple((float(x), float(d)) for x, d in vertices))
    except (TypeError, ValueError) as exc:
        raise ConfigError(f"{where}: {exc}") from exc


def _variable(name: str, data: dict, where: str) -> LinguisticVariable:
    universe = _require(data, "universe", where)
    labels = _require(data, "labels", where)
    try:
        return LinguisticVariable(
            name=name,
            universe=(float(universe[0]), float(universe[1])),
            labels={
                label: _membership(vertices, f"{where}.labels.{label}")
                for label, vertices in labels.items()
            },
        )
    except ValueError as exc:
        raise ConfigError(f"{where}: {exc}") from exc


def _system(variables: dict[str, LinguisticVariable], output: str, block_text: str, where: str) -> FuzzySystem:
    try:
        return FuzzySystem(variables=variables, block=parse_ruleblock(block_text), output=output)
    except ValueError as exc:
        raise ConfigError(f"{where}: {exc}") from exc


def load_config(path: Path | str) -> PipelineConfig:
    text = Path(path).read_text(encoding="utf-8")
    return load_config_text(text)


def load_config_text(text: str) -> PipelineConfig:
    try:
        data = yaml.safe_load(text)
    except yaml.YAMLError as exc:
        raise ConfigError(f"invalid YAML: {exc}") from exc
    if not isinstance(data, dict):
        raise ConfigError("configuration bundle must be a mapping")

    orchestration = _require(data, "orchestration", "bundle")
    arbitration = _require(data, "arbitration", "bundle")
    try:
        orchestration_rules = load_rules_from_data(_require(orchestration, "services", "orchestration"))
        arbitration_rules = load_rules_from_data(_require(arbitration, "services", "arbitration"))
    except ValueError as exc:
        raise ConfigError(str(exc)) from exc
    always_on = tuple(arbitration.get("always_on", ()))

    lex = _require(data, "lexicon", "bundle")
    try:
        lexicon = KeywordLexicon(
            entries=tuple(
                LexiconEntry(
                    pattern=str(e["pattern"]),
                    canonical=str(e["canonical"]),
                    polarity=str(e["polarity"]),
                )
                for e in _require(lex, "keywords", "lexicon")
            ),
            politeness=tuple(str(p) for p in lex.get("politeness", ())),
        )
    except (KeyError, ValueError) as exc:
        raise ConfigError(f"lexicon: {exc}") from exc

    fuzzy = _require(data, "fuzzy", "bundle")
    confidence_var = _variable(
        "degreeOfConfidence", _require(fuzzy, "confidence", "fuzzy"), "fuzzy.confidence"
    )

    importance = _require(fuzzy, "importance", "fuzzy")
    importance_vars = {
        name: _variable(name, vd, f"fuzzy.importance.variables.{name}")
        for name, vd in _require(importance, "variables", "fuzzy.importance").items()
    }
    importance_system = _system(
        importance_vars,
        _require(importance, "output", "fuzzy.importance"),
        _require(importance, "ruleblock", "fuzzy.importance"),
        "fuzzy.importance",
    )

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
    risk_vars = {
        name: _variable(name, vd, f"fuzzy.risk.variables.{name}")
        for name, vd in _require(risk, "variables", "fuzzy.risk").items()
    }
    risk_system = _system(
        risk_vars,
        _require(risk, "output", "fuzzy.risk"),
        _require(risk, "ruleblock", "fuzzy.risk"),
        "fuzzy.risk",
    )
    risk_threshold = float(_require(risk, "threshold", "fuzzy.risk"))

    customers = _require(data, "customers", "bundle")
    auth = CustomerAuthTable(
        phones={str(k): str(v) for k, v in _require(customers, "auth", "customers").items()},
        campaign_type=str(customers.get("campaign_type", "renewal")),
    )
    profiles = {}
    for customer_id, pd in customers.get("profiles", {}).items():
        try:
            profiles[str(customer_id)] = CustomerProfile(
                customer_id=str(customer_id),
                tenure_years=float(pd["tenure_years"]),
                purchases_12mo=float(pd["purchases_12mo"]),
            )
        except (KeyError, ValueError) as exc:
            raise ConfigError(f"customers.profiles.{customer_id}: {exc}") from exc
    dp = customers.get("default_profile", {"tenure_years": 0, "purchases_12mo": 0})
    default_profile = CustomerProfile(
        customer_id="", tenure_years=float(dp["tenure_years"]), purchases_12mo=float(dp["purchases_12mo"])
    )

    def _risk_inputs(rd: dict, where: str) -> StopRiskInputs:
        try:
            return StopRiskInputs(
                criticality=float(rd["criticality"]),
                duration_months=float(rd["duration_months"]),
                chronic=bool(rd["chronic"]),
            )
        except (KeyError, ValueError) as exc:
            raise ConfigError(f"{where}: {exc}") from exc

    medications = data.get("medications", {})
    medication_default = _risk_inputs(
        medications.get("default", {"criticality": 8, "duration_months": 24, "chronic": True}),
        "medications.default",
    )
    medication_by_keyword = {
        str(k): _risk_inputs(v, f"medications.by_keyword.{k}")
        for k, v in medications.get("by_keyword", {}).items()
    }

    llm = _require(data, "llm", "bundle")
    model_specs = []
    for m in _require(llm, "models", "llm"):
        model_specs.append(
            ModelSpec(
                model_id=str(m["id"]),
                backend=str(m.get("backend", "scripted")),
                endpoint=str(m.get("endpoint", "")),
                model_name=str(m.get("model_name", "")),
                api_key_env=str(m.get("api_key_env", "")),
                timeout=float(m.get("timeout", 30.0)),
            )
        )
    cue_data = llm.get("cues", {})
    cues = CueConfig(
        complaint=tuple(cue_data.get("complaint", CueConfig.complaint)),
        request=tuple(cue_data.get("request", CueConfig.request)),
        mood_positive=tuple(cue_data.get("mood_positive", CueConfig.mood_positive)),
        mood_negative=tuple(cue_data.get("mood_negative", CueConfig.mood_negative)),
    )

    experts = [
        ExpertRegistration(
            qualifier=str(e["qualifier"]),
            expertise=str(e.get("expertise", "")),
            cues=tuple(str(c) for c in e.get("cues", ())),
            queue=str(e.get("queue", "")),
        )
        for e in data.get("experts", [])
    ]
    if len({e.qualifier for e in experts}) != len(experts):
        raise ConfigError("experts: duplicate qualifiers")
    # Both model stages call each model once and the validator keys their documents by id.
    if len({spec.model_id for spec in model_specs}) != 2 or len(model_specs) != 2:
        raise ConfigError("llm.models: need exactly two models with distinct ids")

    documents = [
        StoreDocument(question=str(d["question"]), answer=str(d["answer"]))
        for d in data.get("documents", [])
    ]

    availability = {}
    for s in data.get("availability", []):
        try:
            slot = SlotCandidate(int(s["year"]), int(s["month"]), int(s["day"]), int(s["hours"]))
        except (KeyError, ValueError) as exc:
            raise ConfigError(f"availability: {exc}") from exc
        availability[slot] = int(s.get("capacity", 1))

    return PipelineConfig(
        orchestration_rules=orchestration_rules,
        arbitration_rules=arbitration_rules,
        always_on=always_on,
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
