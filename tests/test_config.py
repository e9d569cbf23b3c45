import re

import pytest
import yaml

import smsflow.config as config
from smsflow.cli import main
from smsflow.config import ConfigError, default_config_path, load_config_data, load_config_text
from smsflow.pipeline import build_pipeline


def _default_bundle() -> dict:
    return yaml.safe_load(default_config_path().read_text(encoding="utf-8"))


def _drop_model_id(bundle):
    del bundle["llm"]["models"][0]["id"]


def _drop_expert_qualifier(bundle):
    del bundle["experts"][0]["qualifier"]


def _drop_document_answer(bundle):
    del bundle["documents"][0]["answer"]


def _auth_as_list(bundle):
    bundle["customers"]["auth"] = sorted(bundle["customers"]["auth"])


def _word_threshold(bundle):
    bundle["fuzzy"]["risk"]["threshold"] = "high"


def _drop_lexicon_keywords(bundle):
    del bundle["lexicon"]["keywords"]


# List entries given as scalars.
def _models_as_names(bundle):
    bundle["llm"]["models"] = ["alpha", "beta"]


def _experts_as_names(bundle):
    bundle["experts"] = ["Pharmacy"]


def _keywords_as_words(bundle):
    bundle["lexicon"]["keywords"] = ["renew"]


def _scalar_medication_default(bundle):
    bundle["medications"]["default"] = "critical"


def _availability_as_words(bundle):
    bundle["availability"] = ["x"]


def _scalar_profile(bundle):
    bundle["customers"]["profiles"]["C1001"] = "loyal"


def _scalar_politeness(bundle):
    bundle["lexicon"]["politeness"] = "thank you"


def _scalar_expert_cues(bundle):
    bundle["experts"][0]["cues"] = "medication"


def _scalar_llm_cue(bundle):
    bundle["llm"]["cues"]["complaint"] = "bad"


SCALAR_ENTRIES = [
    (_models_as_names, "llm.models[0]: expected a mapping"),
    (_experts_as_names, "experts[0]: expected a mapping"),
    (_keywords_as_words, "lexicon.keywords[0]: expected a mapping"),
    (_scalar_medication_default, "medications.default: expected a mapping"),
    (_availability_as_words, "availability[0]: expected a mapping"),
    (_scalar_profile, "customers.profiles.C1001: expected a mapping"),
    (_scalar_politeness, "lexicon.politeness: expected a list"),
    (_scalar_expert_cues, "experts[0].cues: expected a list"),
    (_scalar_llm_cue, "llm.cues.complaint: expected a list"),
]
SCALAR_IDS = ["models-as-names", "experts-as-names", "keywords-as-words",
              "scalar-medication-default", "availability-as-words", "scalar-profile",
              "scalar-politeness", "scalar-expert-cues", "scalar-llm-cue"]


# Whole sections given as scalars.
def _scalar_section(path):
    def edit(bundle):
        *parents, key = path.split(".")
        for parent in parents:
            bundle = bundle[parent]
        bundle[key] = 5
    return edit


SCALAR_SECTION_PATHS = ["llm", "fuzzy", "fuzzy.importance", "fuzzy.risk", "fuzzy.action", "customers",
                        "lexicon"]
SCALAR_SECTIONS = [
    (_scalar_section(path), re.escape(f"{path}: expected a mapping, got 5")) for path in SCALAR_SECTION_PATHS
]


@pytest.mark.parametrize(
    "edit, message",
    [
        (_drop_model_id, re.escape("llm.models[0]: missing 'id'")),
        (_drop_expert_qualifier, re.escape("experts[0]: missing 'qualifier'")),
        (_drop_document_answer, re.escape("documents[0]: missing 'answer'")),
        (_auth_as_list, "customers.auth: "),
        (_word_threshold, "fuzzy.risk.threshold: "),
        (_drop_lexicon_keywords, "lexicon: missing 'keywords'$"),
        *((edit, re.escape(prefix)) for edit, prefix in SCALAR_ENTRIES),
        *SCALAR_SECTIONS,
    ],
    ids=["model-without-id", "expert-without-qualifier", "document-without-answer",
         "auth-as-list", "word-threshold", "lexicon-without-keywords", *SCALAR_IDS,
         *(f"scalar-{path}" for path in SCALAR_SECTION_PATHS)],
)
def test_malformed_bundle_error_names_its_section(edit, message):
    bundle = _default_bundle()
    edit(bundle)
    with pytest.raises(ConfigError, match=f"^{message}"):
        load_config_text(yaml.safe_dump(bundle))


@pytest.mark.parametrize("entry, read_as", [("+15550001: C1001", "15550001"), ("0123: C1001", "83")])
def test_an_unquoted_phone_number_is_an_error_naming_it(entry, read_as):
    text = default_config_path().read_text(encoding="utf-8")
    assert '"+15550001": "C1001"' in text
    with pytest.raises(ConfigError, match=f"^customers.auth: phone {read_as} is not a string"):
        load_config_text(text.replace('"+15550001": "C1001"', entry))


def _run_cli(tmp_path, bundle) -> int:
    config_path = tmp_path / "config.yaml"
    config_path.write_text(yaml.safe_dump(bundle), encoding="utf-8")
    corpus_path = tmp_path / "corpus.jsonl"
    corpus_path.write_text('{"phone": "+15550001", "text": "1"}\n', encoding="utf-8")
    code = main(["run", "--config", str(config_path), "--corpus", str(corpus_path),
                 "--out", str(tmp_path / "out")])
    return code


def test_cli_reports_a_malformed_bundle_without_a_traceback(tmp_path, capsys):
    bundle = _default_bundle()
    _drop_model_id(bundle)
    code = _run_cli(tmp_path, bundle)
    err = capsys.readouterr().err
    assert code == 1
    assert err.startswith("error: llm.models[0]: missing 'id'")
    assert "Traceback" not in err


def test_cli_exits_one_on_a_scalar_section(tmp_path, capsys):
    bundle = _default_bundle()
    bundle["llm"] = 5
    code = _run_cli(tmp_path, bundle)
    err = capsys.readouterr().err
    assert code == 1
    assert err.startswith("error: llm: expected a mapping, got 5")
    assert "Traceback" not in err


@pytest.mark.parametrize("edit, message", SCALAR_ENTRIES, ids=SCALAR_IDS)
def test_cli_reports_a_scalar_list_entry_without_a_traceback(tmp_path, capsys, edit, message):
    bundle = _default_bundle()
    edit(bundle)
    code = _run_cli(tmp_path, bundle)
    err = capsys.readouterr().err
    assert code == 1
    assert err.startswith(f"error: {message}")
    assert "Traceback" not in err


# Malformed sections that must fail as a ConfigError naming the section, not
# as whatever exception the value happens to raise.
def _scalar_universe(bundle):
    bundle["fuzzy"]["confidence"]["universe"] = 1


def _labels_as_list(bundle):
    bundle["fuzzy"]["confidence"]["labels"] = ["low", "high"]


def _word_capacity(bundle):
    bundle["availability"][0]["capacity"] = "two"


def _slot_value(key, value):
    def edit(bundle):
        bundle["availability"][0][key] = value
    return edit


def _threshold_outside_the_universe(bundle):
    bundle["fuzzy"]["risk"]["threshold"] = 7.5  # the risk output universe is [0, 1]


def _renamed_section(old, new):
    def edit(bundle):
        bundle[new] = bundle.pop(old)
    return edit


def _stale_dispatch_rules(bundle):
    bundle["orchestration"] = {"services": {"rules": []}}


def _drop_experts(bundle):
    del bundle["experts"]


def _no_experts(bundle):
    bundle["experts"] = []


def _duplicate_slot(bundle):
    bundle["availability"].append({**bundle["availability"][0], "capacity": 5})


def _renamed_risk_fixture(old, new):
    def edit(bundle):
        by_keyword = bundle["medications"]["by_keyword"]
        by_keyword[new] = by_keyword.pop(old)
    return edit


def _value_at(path, value):
    """Set the bundle value at a dotted path; a numeric part indexes a list."""
    def edit(bundle):
        *parents, key = [int(p) if p.isdigit() else p for p in path.split(".")]
        for parent in parents:
            bundle = bundle[parent]
        bundle[key] = value
    return edit


MALFORMED_SECTIONS = [
    (_scalar_universe, "fuzzy.confidence.universe: expected a [low, high] pair"),
    (_labels_as_list, "fuzzy.confidence.labels: expected a mapping"),
    (_word_capacity, "availability[0].capacity: invalid literal for int"),
    (_slot_value("capacity", 2.7), "availability[0].capacity: expected an integer, got 2.7"),
    (_slot_value("capacity", True), "availability[0].capacity: expected an integer, got True"),
    (_slot_value("capacity", -1), "availability[0].capacity: expected a non-negative integer, got -1"),
    (_slot_value("year", 2025.5), "availability[0].year: expected an integer, got 2025.5"),
    (_slot_value("hours", True), "availability[0].hours: expected an integer, got True"),
    (_threshold_outside_the_universe, "fuzzy.risk.threshold: 7.5 outside the output universe [0.0, 1.0]"),
    # A misspelled, stale or missing section is refused, not read as defaults.
    (_renamed_section("experts", "expert"), "bundle: unknown sections expert; expected lexicon, "),
    (_renamed_section("medications", "medication"), "bundle: unknown sections medication; "),
    (_renamed_section("availability", "availabilty"), "bundle: unknown sections availabilty; "),
    (_stale_dispatch_rules, "bundle: unknown sections orchestration; "),
    (_drop_experts, "bundle: missing 'experts'"),
    (_no_experts, "experts: at least one expert registration is required"),
    # A real-valued field takes neither a YAML boolean nor a list.
    (_value_at("fuzzy.risk.threshold", True), "fuzzy.risk.threshold: expected a number, got True"),
    (_value_at("customers.profiles.C1001.tenure_years", True),
     "customers.profiles.C1001.tenure_years: expected a number, got True"),
    (_value_at("medications.default.duration_months", True),
     "medications.default.duration_months: expected a number, got True"),
    (_value_at("llm.models.0.timeout", True), "llm.models[0].timeout: expected a number, got True"),
    (_value_at("customers.profiles.C1001.tenure_years", [1]),
     "customers.profiles.C1001.tenure_years: expected a number, got [1]"),
    (_value_at("medications.by_keyword.stop.criticality", [9]),
     "medications.by_keyword.stop.criticality: expected a number, got [9]"),
    (_value_at("llm.models.0.timeout", [3]), "llm.models[0].timeout: expected a number, got [3]"),
    (_value_at("fuzzy.confidence.universe", [0.0, True]),
     "fuzzy.confidence.universe[1]: expected a number, got True"),
    (_value_at("fuzzy.confidence.labels.low", [[0.0, 1.0], [0.4, [1]]]),
     "fuzzy.confidence.labels.low[1][1]: expected a number, got [1]"),
    # Refused when the bundle loads, not later when the pipeline is built.
    (_value_at("llm.models.1.backend", "x"), "llm.models[1].backend: expected one of scripted, http, got 'x'"),
    # A profile or medication fixture is never negative.
    (_value_at("customers.profiles.C1001.tenure_years", -1),
     "customers.profiles.C1001.tenure_years: expected a non-negative number, got -1"),
    (_value_at("customers.default_profile.purchases_12mo", -0.5),
     "customers.default_profile.purchases_12mo: expected a non-negative number, got -0.5"),
    (_value_at("medications.by_keyword.stop.duration_months", -3),
     "medications.by_keyword.stop.duration_months: expected a non-negative number, got -3"),
    # A rule block is text and an output names a variable.
    (_value_at("fuzzy.risk.ruleblock", 5), "fuzzy.risk.ruleblock: expected the rule block text, got 5"),
    (_value_at("fuzzy.action.ruleblock", ["RULE 1"]),
     "fuzzy.action.ruleblock: expected the rule block text, got ['RULE 1']"),
    (_value_at("fuzzy.risk.output", ["stopRisk"]), "fuzzy.risk.output: expected a variable name, got ['stopRisk']"),
    (_value_at("fuzzy.importance.output", {"name": "customerImportance"}),
     "fuzzy.importance.output: expected a variable name, got {'name': 'customerImportance'}"),
    # An error inside a list names the element, and the field inside it.
    (_value_at("lexicon.keywords.3", None), "lexicon.keywords[3]: expected a mapping, got None"),
    (_value_at("experts.1", None), "experts[1]: expected a mapping, got None"),
    (_value_at("documents.0", "hours"), "documents[0]: expected a mapping, got 'hours'"),
    (_value_at("fuzzy.confidence.labels.low.1", 0.4),
     "fuzzy.confidence.labels.low[1]: expected an [x, degree] pair, got 0.4"),
    (_value_at("fuzzy.confidence.labels.low.0.0", None),
     "fuzzy.confidence.labels.low[0][0]: expected a number, got None"),
    (_value_at("availability.1.year", "x"),
     "availability[1].year: invalid literal for int() with base 10: 'x'"),
    # A name is text or a number, never null, a boolean, a list or a mapping read as its repr.
    (_value_at("customers.auth.+15550001", None), "customers.auth.+15550001: expected text, got None"),
    (_value_at("experts.0.qualifier", None), "experts[0].qualifier: expected text, got None"),
    (_value_at("experts.0.queue", ["pharmacist"]), "experts[0].queue: expected text, got ['pharmacist']"),
    (_value_at("llm.models.0.id", None), "llm.models[0].id: expected text, got None"),
    (_value_at("lexicon.keywords.1.pattern", True), "lexicon.keywords[1].pattern: expected text, got True"),
    (_value_at("lexicon.keywords.1.canonical", {}), "lexicon.keywords[1].canonical: expected text, got {}"),
    (_value_at("lexicon.keywords.1.polarity", None), "lexicon.keywords[1].polarity: expected text, got None"),
    (_value_at("documents.0.question", None), "documents[0].question: expected text, got None"),
    (_value_at("documents.0.answer", [1]), "documents[0].answer: expected text, got [1]"),
    # A timeout of zero or less fails every call of the model.
    (_value_at("llm.models.0.timeout", -1), "llm.models[0].timeout: expected a positive number, got -1"),
    (_value_at("llm.models.1.timeout", 0), "llm.models[1].timeout: expected a positive number, got 0"),
    # A second entry for a slot would replace the first one's capacity.
    (_duplicate_slot, "availability[2]: slot year: 2025, month: 3, day: 22, hours: 15 is listed twice"),
    (_value_at("experts.1.qualifier", "Pharmacy"), "experts[1].qualifier: duplicate qualifier 'Pharmacy'"),
    # Rule-block syntax is named at the block's text, a rule that does not fit the variables at its section.
    (_value_at("fuzzy.action.ruleblock", "RULEBLOCK No2\nRULE 7 : IF customerImportance IS high;\nEND_RULEBLOCK"),
     "fuzzy.action.ruleblock: line 2: malformed rule: 'RULE 7 : IF customerImportance IS high'"),
    (_value_at("fuzzy.action.ruleblock",
               "RULEBLOCK No2\nRULE 7 : IF customerImportance IS high THEN action IS maybe;\nEND_RULEBLOCK"),
     "fuzzy.action: rule 7 concludes unknown label 'maybe'"),
    # Only a stop canonical is risk-assessed, so any other key would never be read.
    (_renamed_risk_fixture("stop", "stopp"), "medications.by_keyword.stopp: not a stop canonical of the lexicon"),
    (_renamed_risk_fixture("stop", "renew"), "medications.by_keyword.renew: not a stop canonical of the lexicon"),
    # YAML's .nan and .inf are floats, but no field takes a non-finite number.
    (_value_at("customers.profiles.C1001.tenure_years", float("nan")),
     "customers.profiles.C1001.tenure_years: expected a finite number, got nan"),
    (_value_at("medications.default.criticality", float("nan")),
     "medications.default.criticality: expected a finite number, got nan"),
    (_value_at("llm.models.0.timeout", float("inf")), "llm.models[0].timeout: expected a finite number, got inf"),
]
MALFORMED_SECTION_IDS = ["scalar-universe", "labels-as-list", "word-capacity", "fractional-capacity",
                         "boolean-capacity", "negative-capacity", "fractional-year", "boolean-hours",
                         "threshold-outside-the-universe", "misspelled-experts", "misspelled-medications",
                         "misspelled-availability", "stale-orchestration", "missing-experts", "empty-experts",
                         "boolean-threshold", "boolean-tenure", "boolean-duration", "boolean-timeout",
                         "list-tenure", "list-criticality", "list-timeout", "boolean-universe-bound",
                         "list-membership-degree", "unknown-backend", "negative-tenure",
                         "negative-default-purchases", "negative-duration", "numeric-ruleblock",
                         "list-ruleblock", "list-output", "mapping-output", "null-keyword", "null-expert",
                         "scalar-document", "scalar-vertex", "null-vertex-coordinate", "word-year",
                         "null-customer-id", "null-qualifier", "list-queue", "null-model-id",
                         "boolean-pattern", "mapping-canonical", "null-polarity", "null-question",
                         "list-answer", "negative-timeout", "zero-timeout", "duplicate-slot",
                         "duplicate-qualifier", "malformed-rule", "rule-with-unknown-label",
                         "misspelled-risk-keyword", "renew-risk-keyword", "nan-tenure", "nan-criticality",
                         "infinite-timeout"]


@pytest.mark.parametrize("edit, message", MALFORMED_SECTIONS, ids=MALFORMED_SECTION_IDS)
def test_a_malformed_section_is_a_config_error_naming_it(edit, message):
    bundle = _default_bundle()
    edit(bundle)
    with pytest.raises(ConfigError, match="^" + re.escape(message)):
        load_config_text(yaml.safe_dump(bundle))


@pytest.mark.parametrize("edit, message", MALFORMED_SECTIONS, ids=MALFORMED_SECTION_IDS)
def test_cli_exits_one_on_a_malformed_section(tmp_path, capsys, edit, message):
    bundle = _default_bundle()
    edit(bundle)
    code = _run_cli(tmp_path, bundle)
    err = capsys.readouterr().err
    assert code == 1
    assert err.startswith(f"error: {message}")
    assert "Traceback" not in err


@pytest.mark.parametrize("where", ["default", "by_keyword.2"])
@pytest.mark.parametrize("quoted", ['"false"', '"true"', "0"])
def test_chronic_must_be_a_yaml_boolean(where, quoted):
    # bool("false") is True: a quoted boolean would read backwards.
    bundle = _default_bundle()
    entry = bundle["medications"]
    for key in where.split("."):
        entry = entry[key]
    entry["chronic"] = yaml.safe_load(quoted)
    with pytest.raises(ConfigError, match="^" + re.escape(f"medications.{where}.chronic: ")):
        load_config_text(yaml.safe_dump(bundle))


def test_chronic_reads_an_unquoted_boolean_as_it_is():
    bundle = _default_bundle()
    bundle["medications"]["default"]["chronic"] = False
    bundle["medications"]["by_keyword"]["2"]["chronic"] = True
    loaded = load_config_text(yaml.safe_dump(bundle))
    assert loaded.medication_default.chronic is False
    assert loaded.medication_by_keyword["2"].chronic is True


def test_a_number_is_read_as_the_text_of_a_name():
    bundle = _default_bundle()
    bundle["customers"]["auth"]["+15559999"] = 9999
    bundle["llm"]["models"] = [{"id": 1}, {"id": 2.5}]
    loaded = load_config_data(bundle)
    assert loaded.auth.phones["+15559999"] == "9999"
    assert [spec.model_id for spec in loaded.model_specs] == ["1", "2.5"]


SWEEP_VALUES = [None, True, -1, 0, 2.7, float("nan"), float("inf"), "x", [], {}, [1]]

# A refusal raised by the domain constructor of an entry (lexicon entry,
# membership curve, variable, fuzzy system, slot) names that entry.
ENTRY_PATH = re.compile(
    r"lexicon\.keywords\[\d+\]|fuzzy\.\w+|fuzzy\.\w+\.(output|variables\.\w+)|fuzzy\..+\.labels\.\w+"
    r"|availability\[\d+\]"
)


def _bundle_nodes(value, path=()):
    """The key path of every node under ``value``, ``value`` itself first."""
    yield path
    children = value.items() if isinstance(value, dict) else enumerate(value) if isinstance(value, list) else ()
    for key, child in children:
        yield from _bundle_nodes(child, (*path, key))


def _spelled(path) -> str:
    spelled = ""
    for key in path:
        spelled += f"[{key}]" if isinstance(key, int) else f".{key}" if spelled else key
    return spelled or "bundle"


def _refusal_names(node: str, refused_at: str) -> bool:
    if refused_at == node or refused_at.startswith((f"{node}[", f"{node}.")):
        return True  # the node, or an element of a list put in its place
    if node.startswith((f"{refused_at}[", f"{refused_at}.")) and ENTRY_PATH.fullmatch(refused_at):
        return True
    # A risk fixture keyed by a canonical the edit removed from the lexicon is named by its key.
    return node.startswith("lexicon.keywords") and refused_at.startswith("medications.by_keyword.")


def test_every_node_of_the_bundle_is_loaded_or_refused_by_its_path():
    holder = [_default_bundle()]  # so that the bundle itself has a parent to be replaced in
    unnamed = []
    for path in list(_bundle_nodes(holder[0])):
        *parents, key = (0, *path)
        parent = holder
        for step in parents:
            parent = parent[step]
        original = parent[key]
        for value in SWEEP_VALUES:
            parent[key] = value
            try:
                build_pipeline(load_config_data(holder[0])).close()
            except ConfigError as exc:
                refused_at = str(exc).split(": ", 1)[0]
                if not _refusal_names(_spelled(path), refused_at):
                    unnamed.append(f"{_spelled(path)} = {value!r}: {exc}")
            finally:
                parent[key] = original
    assert holder[0] == _default_bundle()
    assert not unnamed, "\n".join(unnamed)


def _edited_bundle_text() -> str:
    bundle = _default_bundle()
    bundle["customers"]["auth"]["+15559999"] = "C9999"
    bundle["customers"]["profiles"]["C9999"] = {"tenure_years": 2.5, "purchases_12mo": 7}
    bundle["lexicon"]["politeness"].append("kind regards")
    bundle["fuzzy"]["risk"]["threshold"] = 0.55
    return yaml.safe_dump(bundle)


# PyYAML built without libyaml has only yaml.SafeLoader, so both loaders stay tested.
@pytest.mark.parametrize("text", [
    pytest.param(default_config_path().read_text(encoding="utf-8"), id="default"),
    pytest.param(_edited_bundle_text(), id="edited"),
])
def test_both_loaders_read_a_bundle_alike(monkeypatch, text):
    assert yaml.load(text, Loader=config.YAML_LOADER) == yaml.load(text, Loader=yaml.SafeLoader)
    expected = load_config_text(text)
    monkeypatch.setattr(config, "YAML_LOADER", yaml.SafeLoader)
    assert load_config_text(text) == expected


@pytest.mark.parametrize("loader", [yaml.SafeLoader, config.YAML_LOADER], ids=["pure", "module"])
def test_malformed_yaml_is_a_config_error_under_both_loaders(monkeypatch, loader):
    monkeypatch.setattr(config, "YAML_LOADER", loader)
    with pytest.raises(ConfigError, match="^invalid YAML"):
        load_config_text("orchestration: [services\nlexicon: {")
