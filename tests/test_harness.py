import gc
import hashlib
import json
import os
import random
import sys
import threading
import warnings
from pathlib import Path

import pytest
import yaml
from fake_chat import FakeChat

from smsflow.cli import main
from smsflow.config import default_config_path, default_corpus_path, load_config
from smsflow.llm import ChatCompletionModel, ScriptedModel
from smsflow.harness import (
    OUTCOME_NAMES,
    load_corpus,
    render_report_json,
    run_pipeline,
    soundness_violations,
    summarize_run,
    trace_lines,
)


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
    assert len(trace_out) == 5 and trace_out[-1].endswith("done")

    assert main(["report", "--run", str(out)]) == 0
    report_out = capsys.readouterr().out
    assert "soundness: ok" in report_out


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
    assert lines[-1].endswith("contact-support SMS sent")


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


def test_demo_report_does_not_depend_on_the_validator_rule_order(tmp_path):
    bundle = yaml.safe_load(Path(default_config_path()).read_text())
    rules = bundle["arbitration"]["services"]["rules"]
    snapshot = next(r for r in rules if r["name"] == "ValidatorParsedSnapshot")
    rules.remove(snapshot)
    rules.insert(1 + next(i for i, r in enumerate(rules) if r["name"] == "LlmExtractionStage"), snapshot)
    names = [r["name"] for r in rules]
    assert names.index("ValidatorParsedSnapshot") == names.index("LlmExtractionStage") + 1
    config_path = tmp_path / "config.yaml"
    config_path.write_text(yaml.safe_dump(bundle))
    corpus = load_corpus(default_corpus_path())
    result = run_pipeline(
        load_config(config_path), corpus, seed=1, add_keyword_rate=0.1, drop_keyword_rate=0.1
    )
    rendered = render_report_json(result.report).encode("utf-8")
    assert hashlib.sha256(rendered).hexdigest() == DEMO_REPORT_SHA256


# SHA-256 of every file run_pipeline writes for the demo corpus at seed 1
# with add/drop rates 0.1.  Run directories must stay byte-identical.
DEMO_RUN_DIR_SHA256 = {
    "answers.jsonl": "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855",
    "auth_failures.jsonl": "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855",
    "bookings.jsonl": "b85e78808d943ee334858e68b75fa6d4e4e10c8f61afca715823ea07ccbacde9",
    "originals.jsonl": "8fc21cbb85a8e3a3944343f9905a194a57d4eb8c2dd2d28f404cfdc37e262e14",
    "outbound_sms.jsonl": "3b96e2bba6ba5131846f50dcf7a229b3df7ef18e88ed4e0192858c1fca36c894",
    "pharmacy.jsonl": "d069dbfe4bf33af1480e6bc63b5a65421a96ee47fa6b24488f0b24c19349f16e",
    "queues/pharmacist.jsonl": "e27007b1f68f38ff105c98376c8d236d10c4aa9f6cc3caaae00a18850c1ba920",
    "report.json": DEMO_REPORT_SHA256,
    "report.txt": "799139389a663a69bf2dd93ed0df78f36a7adb4c92109351840462bf001d35f6",
    "steps.jsonl": "41dfdd82608ec808226e7a59ffe99471d506610b43f74c2475a4447d8f8aee7e",
}


def _demo_run(run_dir):
    config = load_config(default_config_path())
    corpus = load_corpus(default_corpus_path())
    return run_pipeline(
        config, corpus, seed=1, add_keyword_rate=0.1, drop_keyword_rate=0.1, run_dir=run_dir
    )


def test_demo_run_directory_bytes_are_pinned(tmp_path):
    _demo_run(tmp_path)
    digests = {
        path.relative_to(tmp_path).as_posix(): hashlib.sha256(path.read_bytes()).hexdigest()
        for path in tmp_path.rglob("*")
        if path.is_file()
    }
    assert digests == DEMO_RUN_DIR_SHA256


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
        assert row["outcome"] == OUTCOME_NAMES[terminals[-1]]
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
    # a starved scheduler leaves events pending.
    config = load_config(default_config_path())
    corpus = load_corpus(default_corpus_path()) + [{"phone": "+10000000", "text": "1"}]
    for budget, pending in ((None, 0), (3, 9)):
        run_dir = tmp_path / f"budget-{budget}"
        result = run_pipeline(config, corpus, seed=1, add_keyword_rate=0.1,
                              drop_keyword_rate=0.1, run_dir=run_dir, budget=budget)
        expected = result.report["summary"]
        assert expected["outcomes"].pop("auth-rejected") == 1
        assert expected["outcomes"].get("pending", 0) == pending
        assert summarize_run(run_dir) == expected


def test_corpus_lines_require_phone_and_text(tmp_path):
    bad = tmp_path / "bad.jsonl"
    bad.write_text('{"phone": "+1"}\n')
    with pytest.raises(ValueError):
        load_corpus(bad)


def test_tracking_agent_observes_every_arbitration_message(ten_message_run):
    from smsflow.messages import AGENTS_TOPIC

    result, _ = ten_message_run
    pipeline = result.pipeline
    published = pipeline.pool.head(AGENTS_TOPIC) + 1
    observed = sum(
        1 for r in pipeline.store.steps.read_all()
        if r["agent"] == "MessageTrackingAgent" and r["note"] == "observed"
    )
    assert published > 0 and observed == published


def test_every_routed_item_lands_in_exactly_one_intake(ten_message_run):
    result, _ = ten_message_run
    store = result.pipeline.store
    routed = sum(len(r["routing"]) for r in result.report["messages"])
    intake = (
        sum(len(store.queue(q).read_all()) for q in store.queue_names())
        + len(store.answers.read_all())
        + len(store.bookings.read_all())
    )
    assert routed == 5  # msg 1 x2, msg 7, msg 8, msg 9
    assert intake == routed


def test_retried_event_shows_two_extraction_rounds():
    # seed 13 at this drop rate fires on exactly one model at attempt 1 and
    # neither at attempt 2, forcing a survivor disagreement and one retry.
    config = load_config(default_config_path())
    corpus = [{"phone": "+15550006", "text": "Could you please do 1"}]
    result = run_pipeline(config, corpus, seed=13, drop_keyword_rate=0.45)
    row = result.report["messages"][0]
    assert row["retries"] == 1
    assert row["outcome"] == "processed"
    assert row["accepted"] == {"renew": ["1"], "stop": []}
    history = result.pipeline.store.get_history("A1001")
    observed = [r["stepId"] for r in history if r["note"] == "observed"]
    assert observed.count("S002") == 2
    assert observed.count("S003") == 4


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
    from smsflow.pipeline import build_pipeline

    before = set(threading.enumerate())
    pipeline = build_pipeline(load_config(default_config_path()), seed=0)
    assert pipeline.executor is None
    for entry in load_corpus(default_corpus_path()):
        pipeline.ingest(entry["phone"], entry["text"])
    assert pipeline.run_to_quiescence()
    assert pipeline.pending_events() == []
    assert set(threading.enumerate()) == before
