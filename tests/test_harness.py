import copy
import gc
import hashlib
import json
import os
import random
import shutil
import sys
import threading
import types
import warnings
from collections import Counter
from pathlib import Path

import pytest
import yaml
from fake_chat import FakeChat
from hypothesis import example, given, settings, strategies as st

import smsflow.fuzzy.inference as inference
import smsflow.validator as validator
from smsflow.cli import main
from smsflow.config import default_config_path, default_corpus_path, load_config
from smsflow.llm import ChatCompletionModel, ScriptedModel
from smsflow.messages import AGENTS_TOPIC, OUTBOUND_TOPIC
from smsflow.pipeline import build_pipeline
from smsflow.pool import Envelope
from smsflow.harness import (
    _empty_row,
    _fold,
    build_report,
    load_corpus,
    render_report_json,
    run_pipeline,
    soundness_violations,
    summarize_run,
    trace_lines,
)
from smsflow.renewal import KeywordLexicon, tokens_of
from smsflow.store import NOTE_RETRY, RunStore, read_jsonl


@pytest.fixture(scope="module")
def ten_message_run(tmp_path_factory):
    out = tmp_path_factory.mktemp("run")
    config = load_config(default_config_path())
    corpus = load_corpus(default_corpus_path())
    result = run_pipeline(config, corpus, run_dir=out)
    return result, out


def test_cli_run_trace_and_report_happy_path(tmp_path, capsys):
    out = tmp_path / "run"
    code = main(
        [
            "run",
            "--config", str(default_config_path()),
            "--corpus", str(default_corpus_path()),
            "--seed", "0",
            "--out", str(out),
        ]
    )
    assert code == 0
    printed = capsys.readouterr().out
    assert "A1001" in printed and "outcomes:" in printed
    assert (out / "report.json").exists() and (out / "report.txt").exists()

    assert main(["trace", "--run", str(out), "--event", "A1002"]) == 0
    trace_out = capsys.readouterr().out.strip().splitlines()
    # Ingested, the evaluator's direct decision, and its terminal record with what it accepted.
    assert len(trace_out) == 3 and "decision:processDirect" in trace_out[1]
    assert trace_out[-1].endswith(
        'processed  {"accepted":{"renew":["1"],"stop":["unenroll"]},"keyword_outcome":"direct","scores":null}'
    )

    assert main(["report", "--run", str(out)]) == 0
    report_out = capsys.readouterr().out
    summary_json = json.dumps(summarize_run(out), sort_keys=True, indent=2) + "\n"
    assert report_out == summary_json + "soundness: ok\n"


@pytest.mark.parametrize("option", ["--corpus", "--config", "--out"])
def test_cli_run_refuses_a_path_of_the_wrong_kind(tmp_path, capsys, option):
    # A directory where a file is read, or a file where the run directory goes.
    (tmp_path / "dir").mkdir()
    (tmp_path / "file").write_text("")
    paths = {"--corpus": str(default_corpus_path()), "--config": str(default_config_path()),
             "--out": str(tmp_path / "run")}
    paths[option] = str(tmp_path / ("file" if option == "--out" else "dir"))
    assert main(["run", *(arg for pair in paths.items() for arg in pair)]) == 1
    assert capsys.readouterr().err.startswith("error: ")


def test_cli_trace_unknown_event_exits_nonzero(ten_message_run):
    _, out = ten_message_run
    assert main(["trace", "--run", str(out), "--event", "A9999"]) == 1


def test_cli_report_missing_run_dir_exits_nonzero(tmp_path):
    assert main(["report", "--run", str(tmp_path / "nope")]) == 1


def test_cli_usage_error_exits_one():
    assert main(["run"]) == 1  # missing --corpus
    assert main(["frobnicate"]) == 1


def test_cli_missing_corpus_file_exits_one(tmp_path):
    code = main(["run", "--corpus", str(tmp_path / "absent.jsonl"), "--out", str(tmp_path / "o")])
    assert code == 1
    assert not (tmp_path / "o").exists()


def test_soundness_detector_catches_a_forced_unvalidated_write(tmp_path, capsys):
    out = tmp_path / "run"
    main(
        [
            "run",
            "--config", str(default_config_path()),
            "--corpus", str(default_corpus_path()),
            "--out", str(out),
        ]
    )
    capsys.readouterr()
    with (out / "pharmacy.jsonl").open("a", encoding="utf-8") as fh:
        fh.write(json.dumps({"eventId": "A1002", "customerId": "C1002",
                             "keyword": "fabricated", "action": "stop",
                             "applied_at": "2025-01-01T00:00:00Z"}) + "\n")
    assert main(["report", "--run", str(out)]) == 2
    violations = soundness_violations(out)
    assert len(violations) == 1 and violations[0]["keyword"] == "fabricated"


def test_exhausted_budget_reports_a_deadlock(tmp_path):
    out = tmp_path / "run"
    out.mkdir()
    code = main(
        [
            "run",
            "--config", str(default_config_path()),
            "--corpus", str(default_corpus_path()),
            "--out", str(out),
            "--budget", "1",
        ]
    )
    assert code == 3


@pytest.mark.parametrize("budget", ["0", "-5"])
def test_a_non_positive_budget_is_refused(tmp_path, capsys, budget):
    out = tmp_path / "run"
    code = main(
        [
            "run",
            "--config", str(default_config_path()),
            "--corpus", str(default_corpus_path()),
            "--out", str(out),
            "--budget", budget,
        ]
    )
    assert code == 1
    assert "--budget" in capsys.readouterr().err
    assert not out.exists()
    # Only a missing budget means the default one: a budget of 0 runs no pass.
    pipeline = build_pipeline(load_config(default_config_path()))
    pipeline.ingest(load_corpus(default_corpus_path())[0]["phone"], "1")
    assert pipeline.run_to_quiescence(0) is False
    assert pipeline.run_to_quiescence() is True
    pipeline.close()


def test_events_left_pending_exit_three_even_when_quiescent(tmp_path, monkeypatch, capsys):
    def extract(*args, **kwargs):
        raise TimeoutError("model did not answer")

    monkeypatch.setattr(ScriptedModel, "extract", extract)
    code = main(
        [
            "run",
            "--corpus", str(default_corpus_path()),
            "--out", str(tmp_path / "run"),
        ]
    )
    assert code == 3
    err = capsys.readouterr().err
    assert "events left pending:" in err and "A1001" in err and "A1002" not in err


def test_failed_event_trace_ends_with_the_support_note(tmp_path):
    bundle = yaml.safe_load(Path(default_config_path()).read_text())
    bundle["customers"]["profiles"]["C1006"] = {"tenure_years": 0, "purchases_12mo": 0}
    config_path = tmp_path / "config.yaml"
    config_path.write_text(yaml.safe_dump(bundle))
    corpus_path = tmp_path / "corpus.jsonl"
    corpus_path.write_text(json.dumps({"phone": "+15550006", "text": "Could you please do 1"}) + "\n")
    out = tmp_path / "run"
    out.mkdir()
    assert main(["run", "--config", str(config_path), "--corpus", str(corpus_path),
                 "--out", str(out)]) == 0
    lines = trace_lines(out, "A1001")
    assert [line.split()[-1] for line in lines[-2:]] == ["sms:contact-support", "failed"]


def test_empty_corpus_produces_an_empty_report(tmp_path):
    corpus_path = tmp_path / "corpus.jsonl"
    corpus_path.write_text("")
    config = load_config(default_config_path())
    result = run_pipeline(config, load_corpus(corpus_path), run_dir=tmp_path / "run")
    assert result.report["messages"] == []
    assert result.report["summary"]["outcomes"] == {}
    assert result.quiescent


def test_auth_rejected_lines_appear_as_rows(tmp_path):
    config = load_config(default_config_path())
    corpus = [{"phone": "+10000000", "text": "hello"}]
    result = run_pipeline(config, corpus)
    assert result.report["messages"][0]["outcome"] == "auth-rejected"
    assert result.report["messages"][0]["eventId"] is None


def test_report_json_is_deterministic_across_runs():
    config = load_config(default_config_path())
    corpus = load_corpus(default_corpus_path())
    a = run_pipeline(config, corpus, seed=5)
    b = run_pipeline(config, corpus, seed=5)
    assert render_report_json(a.report) == render_report_json(b.report)


# SHA-256 of render_report_json for the demo corpus at seed 1 with add/drop
# rates 0.1. Reports must stay byte-identical; change this only on purpose.
DEMO_REPORT_SHA256 = "666f4f5d00721d331f1f6addaad72041d5b3151f49264d520f18b4794453dd13"


def test_demo_report_bytes_are_pinned():
    config = load_config(default_config_path())
    corpus = load_corpus(default_corpus_path())
    result = run_pipeline(config, corpus, seed=1, add_keyword_rate=0.1, drop_keyword_rate=0.1)
    rendered = render_report_json(result.report).encode("utf-8")
    assert hashlib.sha256(rendered).hexdigest() == DEMO_REPORT_SHA256


def test_the_report_reads_no_note_but_a_terminal_one(monkeypatch):
    # Every note but a terminal one is rewritten as the step is recorded;
    # the rows and summary read typed fields only, so the report stays put.
    def demo():
        return run_pipeline(load_config(default_config_path()), load_corpus(default_corpus_path()),
                            seed=1, add_keyword_rate=0.1, drop_keyword_rate=0.1)

    plain = render_report_json(demo().report)
    rows = json.loads(plain)["messages"]
    # The demo has a direct decision and a retry, both named by notes.
    assert any(row["keyword_outcome"] == "direct" for row in rows)
    assert any(row["retries"] for row in rows)
    record_step = RunStore.record_step

    def renoted(self, event_id, step_id, agent, note, terminal=False, **fields):
        return record_step(self, event_id, step_id, agent, note if terminal else "x", terminal, **fields)

    monkeypatch.setattr(RunStore, "record_step", renoted)
    result = demo()
    assert {r["note"] for r in result.pipeline.store.steps.read_all() if not r["terminal"]} == {"x"}
    assert render_report_json(result.report) == plain


def test_building_the_report_twice_renders_equal_bytes_and_changes_no_history():
    # build_report folds the store's own step records, uncopied: the fold
    # must leave every record, and every value it holds, as it was.
    pipeline = build_pipeline(
        load_config(default_config_path()), seed=1, add_keyword_rate=0.1, drop_keyword_rate=0.1
    )
    try:
        entries = [(e, pipeline.ingest(e["phone"], e["text"])) for e in load_corpus(default_corpus_path())]
        quiescent = pipeline.run_to_quiescence()
        store = pipeline.store
        event_ids = [event.metadata.event_id for event in pipeline.ingested]
        histories = copy.deepcopy({event_id: store.get_history(event_id) for event_id in event_ids})
        first, second = (
            render_report_json(build_report(pipeline, entries, 1, 0.1, 0.1, quiescent)) for _ in range(2)
        )
    finally:
        pipeline.close()
    assert hashlib.sha256(first.encode("utf-8")).hexdigest() == DEMO_REPORT_SHA256
    assert second == first
    assert {event_id: store.get_history(event_id) for event_id in event_ids} == histories


# SHA-256 of every file run_pipeline writes for the demo corpus at seed 1
# with add/drop rates 0.1.  Run directories must stay byte-identical.
DEMO_RUN_DIR_SHA256 = {
    "answers.jsonl": "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855",
    "auth_failures.jsonl": "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855",
    "bookings.jsonl": "b85e78808d943ee334858e68b75fa6d4e4e10c8f61afca715823ea07ccbacde9",
    "originals.jsonl": "8fc21cbb85a8e3a3944343f9905a194a57d4eb8c2dd2d28f404cfdc37e262e14",
    "outbound_sms.jsonl": "3b96e2bba6ba5131846f50dcf7a229b3df7ef18e88ed4e0192858c1fca36c894",
    "pharmacy.jsonl": "ae77d2e69565d10c342c7ca3dfe2d368154f5b26ba717c30039813c90d79b916",
    "queues/pharmacist.jsonl": "e27007b1f68f38ff105c98376c8d236d10c4aa9f6cc3caaae00a18850c1ba920",
    "report.json": DEMO_REPORT_SHA256,
    "report.txt": "799139389a663a69bf2dd93ed0df78f36a7adb4c92109351840462bf001d35f6",
    "steps.jsonl": "f5a56bb7f0eb5c9320c1fcbfdaae1e91079a2f41fdc56310b76d9064bed51dc4",
}


def _demo_run(run_dir):
    config = load_config(default_config_path())
    corpus = load_corpus(default_corpus_path())
    return run_pipeline(
        config, corpus, seed=1, add_keyword_rate=0.1, drop_keyword_rate=0.1, run_dir=run_dir
    )


def _file_digests(root: Path) -> dict[str, str]:
    return {
        path.relative_to(root).as_posix(): hashlib.sha256(path.read_bytes()).hexdigest()
        for path in root.rglob("*")
        if path.is_file()
    }


def test_demo_run_directory_bytes_are_pinned(tmp_path):
    _demo_run(tmp_path)
    assert _file_digests(tmp_path) == DEMO_RUN_DIR_SHA256


def test_a_reused_run_directory_holds_only_the_last_run(tmp_path):
    # The demo queues an item for the pharmacist; a one-line run queues
    # nothing, so a reused directory must not keep the demo's queue log.
    _demo_run(tmp_path / "reused")
    assert (tmp_path / "reused" / "queues" / "pharmacist.jsonl").exists()
    config = load_config(default_config_path())
    for name in ("reused", "fresh"):
        run_pipeline(config, [{"phone": "+15550002", "text": "1"}], run_dir=tmp_path / name)
    assert _file_digests(tmp_path / "reused") == _file_digests(tmp_path / "fresh")


@pytest.fixture(scope="module")
def demo_run_dir(tmp_path_factory):
    out = tmp_path_factory.mktemp("demo")
    _demo_run(out)
    return out


def test_every_demo_step_record_names_its_step(demo_run_dir):
    # An SMS is recorded under the step of the agent that sent it, which for
    # every SMS of the demo is the step its event ends in.
    records = list(read_jsonl(demo_run_dir / "steps.jsonl"))
    assert all(r["stepId"] for r in records)
    terminal_step = {r["eventId"]: r["stepId"] for r in records if r["terminal"]}
    sms = [r for r in records if r["note"].startswith("sms:")]
    assert {r["note"] for r in sms} >= {"sms:generic", "sms:confirm-stop"}
    assert all(r["stepId"] == terminal_step[r["eventId"]] for r in sms)


def test_trace_shows_the_queue_entry_as_typed_fields(demo_run_dir, capsys):
    assert main(["trace", "--run", str(demo_run_dir), "--event", "A1001"]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert any(line.endswith('queued  {"entry":0,"queue":"pharmacist"}') for line in lines)


def test_soundness_reports_exactly_the_planted_non_verbatim_keywords(demo_run_dir, tmp_path):
    # Each event gets a verbatim keyword and a fabricated one after its own
    # records, so most planted lines hit an original tokenized earlier.
    assert soundness_violations(demo_run_dir) == []
    run = tmp_path / "run"
    shutil.copytree(demo_run_dir, run)
    planted = []
    with (run / "pharmacy.jsonl").open("a", encoding="utf-8") as fh:
        for record in read_jsonl(run / "originals.jsonl"):
            event_id = record["eventId"]
            verbatim = min(tokens_of(record["text"], KeywordLexicon(entries=())))
            for keyword in (verbatim, "fabricated"):
                fh.write(json.dumps({"eventId": event_id, "customerId": "C0", "keyword": keyword,
                                     "action": "stop", "applied_at": "2025-01-01T00:00:00Z"}) + "\n")
            planted.append({"eventId": event_id, "keyword": "fabricated",
                            "why": "keyword absent from original text"})
    assert len(planted) == 10
    assert soundness_violations(run) == planted


@pytest.mark.parametrize("budget", [3, None])
def test_report_rows_replay_from_the_run_directory_logs(tmp_path, budget):
    # Every row but an auth-rejected one is the fold of the event's step
    # records, SMS kinds and pharmacy actions as the logs hold them.  At
    # budget 3 some events are still pending: their rows show only what was
    # recorded, not documents published but never consumed.
    config = load_config(default_config_path())
    corpus = load_corpus(default_corpus_path())
    result = run_pipeline(config, corpus, seed=1, add_keyword_rate=0.1, drop_keyword_rate=0.1,
                          run_dir=tmp_path, budget=budget)
    steps, sms, pharmacy = {}, {}, {}
    for record in read_jsonl(tmp_path / "steps.jsonl"):
        steps.setdefault(record["eventId"], []).append(record)
    for record in read_jsonl(tmp_path / "outbound_sms.jsonl"):
        sms.setdefault(record["eventId"], []).append(record["kind"])
    for record in read_jsonl(tmp_path / "pharmacy.jsonl"):
        pharmacy.setdefault(record["eventId"], []).append(
            {"keyword": record["keyword"], "action": record["action"]})
    rows = [row for row in result.report["messages"] if row["outcome"] != "auth-rejected"]
    assert len(rows) == len(result.pipeline.ingested) > 0
    for row in rows:
        event_id = row["eventId"]
        replayed = _empty_row(sms.get(event_id, []), pharmacy.get(event_id, []))
        for record in steps[event_id]:
            _fold(replayed, record)
        assert {"eventId": event_id, "phone": row["phone"], "text": row["text"], **replayed} == row
    pending = [row for row in rows if row["outcome"] == "pending"]
    if budget is None:
        assert pending == []
    else:
        by_id = {row["eventId"]: row for row in pending}
        # Parsed but not evaluated: no recorded claims.
        assert by_id["A1003"]["ra"] is None
        # Verdict published but not routed: claims, but no recorded verdict.
        assert by_id["A1001"]["ra"] is not None
        assert (by_id["A1001"]["keyword_outcome"], by_id["A1001"]["accepted"]) == ("", None)


# Not full matches, although each one's confidence vector is the ratio-1
# literal: 9 of 10 tokens matched, no token at all, courtesy words only.
# Each reaches the model stage; the value is the validator's keyword outcome,
# the event's outcome and its SMS kinds.  A reply with nothing to apply and
# nothing to route gets the contact-support SMS.
NEAR_FULL_TEXTS = {
    "renew stop 1 2 enroll renew stop 1 2 call": (
        "confirm-then-process", "awaiting-confirmation", ["confirm-stop"]
    ),
    "": ("process", "failed", ["contact-support"]),
    "thank you": ("process", "failed", ["contact-support"]),
    "1 1 1 1 1 1 1 1 1 thank": ("process", "processed", []),
}


def test_near_full_and_empty_texts_reach_the_model_stage():
    config = load_config(default_config_path())
    corpus = [{"phone": "+15550001", "text": text} for text in NEAR_FULL_TEXTS]
    result = run_pipeline(config, corpus, seed=1)
    for row in result.report["messages"]:
        history = result.pipeline.store.get_history(row["eventId"])
        assert [r["attempt"] for r in history if r["agent"] == "LlmAgent"] == [1]
        assert (row["keyword_outcome"], row["outcome"], row["sms"]) == NEAR_FULL_TEXTS[row["text"]]


def test_demo_report_renders_without_the_pure_python_json_encoder(tmp_path, monkeypatch):
    # json.dumps(indent=2) would build its Python encoder here.
    def refuse(*args, **kwargs):
        raise AssertionError("json's pure-Python encoder was used")

    monkeypatch.setattr(json.encoder, "_make_iterencode", refuse)
    result = _demo_run(tmp_path)
    rendered = render_report_json(result.report).encode("utf-8")
    assert hashlib.sha256(rendered).hexdigest() == DEMO_REPORT_SHA256
    assert (tmp_path / "report.json").read_bytes() == rendered


_JSON_LEAVES = (
    st.none()
    | st.booleans()
    | st.integers()
    | st.integers(min_value=2**64, max_value=2**200)
    | st.integers(min_value=-(2**200), max_value=-(2**64))
    | st.floats()  # NaN, infinities and -0.0 included
    | st.text()  # non-ASCII and control characters included
)


_JSON_VALUES = st.recursive(
    _JSON_LEAVES,
    lambda inner: (
        st.lists(inner, max_size=4)
        | st.lists(inner, max_size=4).map(tuple)
        | st.dictionaries(st.text(), inner, max_size=4)
        | st.dictionaries(st.integers(), inner, max_size=4)
    ),
    max_leaves=25,
)


@settings(max_examples=200, deadline=None)
@example({"a": [], "b": {}, "c": [{}, [[]], ()], "d": ({"e": []},)})
@example([-0.0, float("nan"), float("inf"), float("-inf"), 10**40, -(10**40), 1e300, 5e-324])
@example({"\u00e9\u4e2d\U0001f600": "\x00\x1f\x7f\u2028\ud800", "": "\"\\/\b\f\n\r\t"})
@example({10: "ten", -1: "minus one", 2: {3: [True, False, None]}})
@given(_JSON_VALUES)
def test_render_report_json_matches_json_dumps(value):
    assert render_report_json(value) == json.dumps(value, sort_keys=True, indent=2) + "\n"


@pytest.mark.parametrize("value", [{1, 2}, b"bytes", [b"bytes"], {"k": {1}}, {(1, 2): 0}])
def test_render_report_json_raises_type_error_where_json_dumps_does(value):
    with pytest.raises(TypeError):
        json.dumps(value, sort_keys=True, indent=2)
    with pytest.raises(TypeError):
        render_report_json(value)


def test_demo_run_builds_an_output_curve_only_for_a_centroid(monkeypatch):
    calls = {"aggregate": 0, "defuzzify_cog": 0}

    def count(module, name):
        real = getattr(module, name)

        def counted(*args):
            calls[name] += 1
            return real(*args)

        monkeypatch.setattr(module, name, counted)

    count(inference, "aggregate")
    count(validator, "defuzzify_cog")
    _demo_run(None)
    assert calls == {"aggregate": 2, "defuzzify_cog": 2}


def test_demo_run_publishes_nothing_to_the_outbound_topic():
    pipeline = _demo_run(None).pipeline
    assert pipeline.store.outbound_sms.read_all()
    assert pipeline.pool.head(OUTBOUND_TOPIC) == -1


def test_pool_holds_no_envelope_once_the_run_is_quiescent():
    pipeline = _demo_run(None).pipeline
    pool = pipeline.pool
    subs = [source.subscription for source in pipeline.scheduler.sources]
    assert [pool.lag(sub) for sub in subs] == [0, 0]
    # Walk the pool's object graph and its subscriptions' (queues included),
    # without following classes, functions or modules into the rest of the heap.
    seen, todo, held = set(), [pool, *subs], 0
    while todo:
        obj = todo.pop()
        if id(obj) in seen or isinstance(obj, (type, types.FunctionType, types.ModuleType)):
            continue
        seen.add(id(obj))
        held += isinstance(obj, Envelope)
        todo.extend(gc.get_referents(obj))
    assert held == 0
    assert pool.head(AGENTS_TOPIC) > 0


@pytest.mark.skipif(not Path("/proc/self/fd").is_dir(), reason="needs /proc/self/fd")
def test_run_pipeline_leaves_no_file_open_in_the_run_directory(tmp_path):
    # The result keeps the pipeline alive, so only close() can have closed the logs.
    result = _demo_run(tmp_path)
    fd_dir = Path("/proc/self/fd")
    open_paths = []
    for fd in fd_dir.iterdir():
        try:
            open_paths.append(os.readlink(fd))
        except OSError:  # closed since the listing
            pass
    root = str(tmp_path.resolve())
    assert [p for p in open_paths if p == root or p.startswith(root + os.sep)] == []
    assert result.quiescent


def test_run_pipeline_leaves_no_file_for_the_finalizers(tmp_path, monkeypatch):
    gc.collect()
    unraisable = []
    monkeypatch.setattr(sys, "unraisablehook", unraisable.append)
    with warnings.catch_warnings():
        warnings.simplefilter("error", ResourceWarning)
        result = _demo_run(tmp_path)
        del result
        gc.collect()
    assert [str(u.exc_value) for u in unraisable] == []


@pytest.mark.parametrize("seed", [1, 5])
def test_report_rows_match_a_scan_of_the_logs(seed):
    config = load_config(default_config_path())
    corpus = load_corpus(default_corpus_path()) + [
        # Routed to two experts, so one event sends two SMS.
        {"phone": "+15550002", "text": "1. I want to know your holiday hours. I also want to "
                                       "book a vaccine appointment on Saturday 03/22/2025 afternoon"},
        {"phone": "+10000000", "text": "1"},
    ]
    result = run_pipeline(config, corpus, seed=seed, add_keyword_rate=0.1, drop_keyword_rate=0.1)
    store = result.pipeline.store
    pharmacy = store.pharmacy.read_all()
    sms = store.outbound_sms.read_all()
    *rows, rejected = result.report["messages"]
    assert len(rows) + 1 == len(corpus)
    assert rejected["outcome"] == "auth-rejected"
    for row in rows:
        event_id = row["eventId"]
        history = store.get_history(event_id)
        assert row["pharmacy"] == [
            {"keyword": r["keyword"], "action": r["action"]}
            for r in pharmacy
            if r["eventId"] == event_id
        ]
        assert row["sms"] == [r["kind"] for r in sms if r["eventId"] == event_id]
        assert row["retries"] == sum(1 for r in history if r["note"] == "retry-requested")
        terminals = [r["note"] for r in history if r["terminal"]]
        assert row["outcome"] == terminals[-1]
    assert sum(len(row["pharmacy"]) for row in rows) == len(pharmacy)
    assert any(len(row["pharmacy"]) > 1 for row in rows)  # a multi-keyword event
    assert any(row["retries"] > 0 for row in rows)  # a retried event
    assert any(len(row["sms"]) > 1 for row in rows)


def test_summary_counters_match_the_run(ten_message_run, tmp_path):
    result, out = ten_message_run
    summary = summarize_run(out)
    assert summary["outcomes"] == result.report["summary"]["outcomes"]
    assert summary["retries"] == 0
    assert summary["sms_kinds"].get("confirm-stop") == 1
    assert summary["pharmacy_actions"] == result.report["summary"]["pharmacy_actions"]

    # summarize_run equals the report's summary less auth-rejected, also when
    # a starved scheduler leaves events pending: three passes are three hops.
    config = load_config(default_config_path())
    corpus = load_corpus(default_corpus_path()) + [{"phone": "+10000000", "text": "1"}]
    for budget, pending in ((None, 0), (3, 10)):
        run_dir = tmp_path / f"budget-{budget}"
        result = run_pipeline(config, corpus, seed=1, add_keyword_rate=0.1,
                              drop_keyword_rate=0.1, run_dir=run_dir, budget=budget)
        expected = result.report["summary"]
        assert expected["outcomes"].pop("auth-rejected") == 1
        assert expected["outcomes"].get("pending", 0) == pending
        assert summarize_run(run_dir) == expected


def test_corpus_lines_require_phone_and_text(tmp_path, capsys):
    bad = tmp_path / "bad.jsonl"
    good = '{"phone": "+15550001", "text": "1"}\n'
    for line in ('{"phone": "+1"}', "123", '{"phone": "+15550001", "text": null}', "[1"):
        bad.write_text(good + line + "\n")
        with pytest.raises(ValueError, match="bad.jsonl:2: "):
            load_corpus(bad)
        assert main(["run", "--corpus", str(bad), "--out", str(tmp_path / "run")]) == 1
        assert "bad.jsonl:2: " in capsys.readouterr().err


def _dispatched(pipeline, topic) -> list:
    """The payloads that the pipeline's consumer of ``topic`` dispatches from now on.

    A topic has one consumer, so the test records what it dispatches instead
    of subscribing to the topic itself.
    """
    [dispatcher] = [d for d in pipeline.scheduler.sources if d.subscription.topic == topic]
    payloads = []
    dispatch = dispatcher.dispatch

    def recording(envelope):
        payloads.append(envelope.payload)
        dispatch(envelope)

    dispatcher.dispatch = recording
    return payloads


def test_llm_agent_records_one_attempt_per_extraction_document():
    # The demo corpus at seed 1 and fault rates 0.1 retries one event.
    pipeline = build_pipeline(
        load_config(default_config_path()), seed=1, add_keyword_rate=0.1, drop_keyword_rate=0.1
    )
    agents = _dispatched(pipeline, AGENTS_TOPIC)
    try:
        for entry in load_corpus(default_corpus_path()):
            pipeline.ingest(entry["phone"], entry["text"])
        assert pipeline.run_to_quiescence()
        documents = Counter(
            doc["metadata"]["eventId"] for doc in agents if doc["metadata"]["stepId"] == "S003"
        )
        attempts = {}
        for r in pipeline.store.steps.read_all():
            if r["agent"] == "LlmAgent" and r["stepId"] == "S002":
                attempts.setdefault(r["eventId"], []).append(r["attempt"])
    finally:
        pipeline.close()
    assert max(documents.values()) == 2
    assert attempts == {event_id: list(range(1, n + 1)) for event_id, n in documents.items()}


def test_trace_shows_the_typed_fields_of_each_record(ten_message_run):
    _, out = ten_message_run
    fields = {}
    for event_id in (f"A{1001 + i}" for i in range(10)):
        for line in trace_lines(out, event_id):
            head, _, typed = line.partition("  {")
            note = head.split()[-1]
            if typed:
                fields.setdefault(note, []).append(json.loads("{" + typed))
    assert {"attempt": 1} in fields["extracting"]
    assert {"keyword_outcome": "direct", "accepted": {"renew": ["1"], "stop": ["unenroll"]},
            "scores": None} in fields["processed"]
    assert {"applied": ["1"]} in fields["pharmacy-applied"]
    [confirmation] = fields["confirmation-requested"]
    assert confirmation.keys() == {"risk"} and 0.0 <= confirmation["risk"] <= 1.0


def test_every_routed_item_lands_in_exactly_one_intake(ten_message_run):
    result, out = ten_message_run
    store = result.pipeline.store
    routed = sum(len(r["routing"]) for r in result.report["messages"])
    intake = (
        sum(len(list(read_jsonl(path))) for path in (out / "queues").glob("*.jsonl"))
        + len(store.answers.read_all())
        + len(store.bookings.read_all())
    )
    assert routed == 5  # msg 1 x2, msg 7, msg 8, msg 9
    assert intake == routed


def test_retried_event_shows_two_extraction_rounds():
    # seed 13 at this drop rate fires on exactly one model at attempt 1 and
    # neither at attempt 2, forcing a survivor disagreement and one retry.
    pipeline = build_pipeline(load_config(default_config_path()), seed=13, drop_keyword_rate=0.45)
    agents = _dispatched(pipeline, AGENTS_TOPIC)
    try:
        entry = {"phone": "+15550006", "text": "Could you please do 1"}
        entries = [(entry, pipeline.ingest(entry["phone"], entry["text"]))]
        quiescent = pipeline.run_to_quiescence()
        row = build_report(pipeline, entries, 13, 0.0, 0.45, quiescent)["messages"][0]
        history = pipeline.store.get_history("A1001")
    finally:
        pipeline.close()
    assert row["retries"] == 1
    assert row["outcome"] == "processed"
    assert row["accepted"] == {"renew": ["1"], "stop": []}
    attempts = [r["attempt"] for r in history if r["agent"] == "LlmAgent" and r["stepId"] == "S002"]
    assert attempts == [1, 2]
    assert [r["note"] for r in history].count(NOTE_RETRY) == 1
    # The retry republishes the parsed claims unchanged, at the next attempt.
    first, second = [doc for doc in agents if doc["metadata"]["stepId"] == "S002"]
    assert "attempt" not in first  # the evaluator's S002 document: attempt 1
    assert second == {**first, "attempt": 2}


def test_store_and_scheduling_experts_end_to_end():
    config = load_config(default_config_path())
    corpus = [
        {"phone": "+15550001", "text": "1. I want to know your holiday hours"},
        {"phone": "+15550002",
         "text": "2. I want to book a vaccine appointment on Saturday 03/22/2025 afternoon"},
    ]
    result = run_pipeline(config, corpus)
    assert result.quiescent
    store = result.pipeline.store
    rows = {r["eventId"]: r for r in result.report["messages"]}

    assert rows["A1001"]["routing"] == ["StoreManagement"]
    answers = store.answers.read_all()
    assert len(answers) == 1
    assert answers[0]["answer"] == "On public holidays we are open 10am to 4pm."
    assert rows["A1001"]["sms"] == ["generic"]

    assert rows["A1002"]["routing"] == ["Scheduling"]
    bookings = store.bookings.read_all()
    assert len(bookings) == 1 and bookings[0]["booked"]
    assert bookings[0]["slot"] == "year: 2025, month: 3, day: 22, hours: 15"
    assert rows["A1002"]["sms"] == ["booking-confirmation"]
    assert [p["keyword"] for p in rows["A1002"]["pharmacy"]] == ["2"]


def _http_model_run(max_delay=0.0, salt=0):
    """Demo corpus through two HTTP models whose fake backends sleep up to ``max_delay``."""
    config = load_config(default_config_path())
    transports = []
    for spec in config.model_specs:
        rng = random.Random(f"{salt}:{spec.model_id}")  # each model's calls are serial
        transports.append(FakeChat(
            spec.model_id, config.lexicon, delay=lambda _prompt, rng=rng: rng.uniform(0, max_delay)
        ))
    models = [
        ChatCompletionModel(t.reader.model_id, "http://fake/v1", "fake", transport=t)
        for t in transports
    ]
    config.build_models = lambda: models
    result = run_pipeline(config, load_corpus(default_corpus_path()))
    assert result.quiescent and result.pending == []
    return result, transports


def test_http_model_reports_do_not_depend_on_backend_timing():
    result, _ = _http_model_run()
    expected = render_report_json(result.report)
    assert sum(row["scores"] is not None for row in result.report["messages"]) >= 3
    for salt in (1, 2, 3):
        jittered, _ = _http_model_run(max_delay=0.004, salt=salt)
        assert render_report_json(jittered.report) == expected


def test_model_worker_threads_end_with_the_run():
    _, transports = _http_model_run()
    workers = {t for fake in transports for t in fake.threads} - {threading.main_thread()}
    assert workers and all(t.name.startswith("smsflow-model") for t in workers)
    for thread in workers:
        thread.join(timeout=2)
        assert not thread.is_alive()


def test_scripted_models_run_serially_without_threads():
    before = set(threading.enumerate())
    pipeline = build_pipeline(load_config(default_config_path()), seed=0)
    assert pipeline.executor is None
    for entry in load_corpus(default_corpus_path()):
        pipeline.ingest(entry["phone"], entry["text"])
    assert pipeline.run_to_quiescence()
    assert pipeline.pending_events() == []
    assert set(threading.enumerate()) == before
