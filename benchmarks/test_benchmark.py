"""Tests of the benchmark itself: seeded inputs, the fake model backend, the
correctness gate and the result line, on tiny workloads.

    PYTHONPATH=src python -m pytest -q benchmarks
"""
from __future__ import annotations

import io
import json
import shutil
import subprocess
import sys
from contextlib import redirect_stdout
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path[:0] = [str(ROOT / "src"), str(HERE)]

import bench_gen  # noqa: E402
import run as bench_run  # noqa: E402
from smsflow.config import default_config_path, load_config  # noqa: E402
from smsflow.llm import (  # noqa: E402
    BackendUnavailableError,
    ChatCompletionModel,
    LlmExtraction,
    MalformedOutputError,
)

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


@pytest.fixture()
def tiny(monkeypatch, tmp_path):
    """Shrink every workload so one run takes well under a second."""
    monkeypatch.setattr(bench_run, "CAMPAIGN_SIZE", 150)
    monkeypatch.setattr(bench_run, "DISK_CAMPAIGN_SIZE", 60)
    monkeypatch.setattr(bench_run, "LLM_DELAY_S", 0.0002)
    monkeypatch.setattr(bench_run, "SETUP_REPS", 1)
    monkeypatch.setattr(bench_run, "OUT", tmp_path / "out")


def run_bench(*args: str) -> tuple[int, list[str]]:
    out = io.StringIO()
    with redirect_stdout(out):
        code = bench_run.main(list(args))
    return code, out.getvalue().splitlines()


def digest_of(lines: list[str]) -> str:
    return next(line for line in lines if "report_digest=" in line).rsplit("report_digest=", 1)[1]


@pytest.fixture(scope="module")
def config():
    return load_config(default_config_path())


# -- generator ---------------------------------------------------------------------


@pytest.mark.parametrize("make", [bench_gen.campaign, bench_gen.llm_http])
def test_generator_is_deterministic_per_seed(make):
    assert make(7, 300) == make(7, 300)
    assert make(7, 300).corpus != make(8, 300).corpus


def test_campaign_mix_has_fixed_shares_and_repeats():
    wl = bench_gen.campaign(3, 1000)
    keyword = sum(e["text"] in bench_gen.KEYWORD_REPLIES for e in wl.corpus)
    assert wl.unknown == 20 and len(wl.corpus) == 1000
    assert keyword == 480 + wl.unknown  # unknown phones send keyword replies too
    assert len({e["text"] for e in wl.corpus}) < 300


def test_llm_http_texts_are_unique():
    wl = bench_gen.llm_http(5, 500)
    texts = [e["text"] for e in wl.corpus if e["text"] not in bench_gen.KEYWORD_REPLIES]
    assert len(texts) == len(set(texts)) > 480


# -- fake transport -------------------------------------------------------------------


def model_with(config, **rates) -> tuple[ChatCompletionModel, bench_gen.FakeChatTransport]:
    transport = bench_gen.FakeChatTransport(
        "alpha", config.lexicon, config.cues, seed=1, delay_s=0.0, **rates
    )
    model = ChatCompletionModel("alpha", endpoint="in-process", model_name="fake", transport=transport)
    return model, transport


def test_extraction_replies_parse_and_match_scripted_reading(config):
    model, transport = model_with(config)
    sms = "1, unenroll. The medication tastes bad. I want to know your holiday hours."
    prompt = model._extraction_prompt(sms, config.lexicon)
    reply = transport({"messages": [{"role": "user", "content": prompt}]})
    parsed = ChatCompletionModel._parse_extraction(reply)
    assert parsed.renew == ["1"] and parsed.stop == ["unenroll"]
    assert parsed.complaint == ["The medication tastes bad"]
    assert parsed.request == ["I want to know your holiday hours"]


def test_judge_replies_are_scores_from_1_to_10(config):
    model, _ = model_with(config)
    sms = "1. The medication tastes bad."
    good = LlmExtraction(complaint=["The medication tastes bad"])
    bad = LlmExtraction(request=["book a cruise", "sell my car", "call my aunt"])
    assert model.judge(sms, good, config.lexicon) == 10
    assert 1 <= model.judge(sms, bad, config.lexicon) < 5


def test_malformed_first_replies_are_reprompted(config):
    model, transport = model_with(config, malformed_rate=1.0)
    extraction = model.extract("1. The medication tastes bad.", config.lexicon)
    assert extraction.renew == ["1"]
    assert transport.calls == 2 and transport.reprompts == 1


def test_outages_raise_backend_unavailable(config):
    model, _ = model_with(config, unavailable_rate=1.0)
    with pytest.raises(BackendUnavailableError):
        model.extract("1", config.lexicon)
    with pytest.raises((BackendUnavailableError, MalformedOutputError)):
        model.judge("1. bad", LlmExtraction(), config.lexicon)


# -- metrics ------------------------------------------------------------------------------


def test_latency_groups_hold_whole_batches_of_at_least_1000_samples():
    def batch(n):
        b = bench_run.Batch(**{f: None for f in bench_run.Batch.__dataclass_fields__})
        b.latencies_ms = [1.0] * n
        return b

    sizes = [len(g) for g in bench_run.latency_groups([batch(980)] * 5)]
    assert sizes == [1960, 2940]
    assert [len(g) for g in bench_run.latency_groups([batch(7840)] * 2)] == [7840, 7840]
    assert [len(g) for g in bench_run.latency_groups([batch(300)])] == [300]


def test_span_reads_times_at_the_reference_speed():
    nominal = bench_run.REF_NOMINAL_S
    quiet = bench_run.Span(start=10.0)
    quiet.ticks = [(10.0 + 0.04 * k, nominal) for k in range(1, 51)]
    assert quiet.at_reference(11.0) == pytest.approx(1.0)
    assert quiet.scale == pytest.approx(1.0)

    # Twice as slow for the first second, then quiet: the first second of
    # clock counts as half a second, the next one in full.
    spell = bench_run.Span(start=0.0)
    spell.ticks = [(0.04 * k, 2 * nominal if k <= 25 else nominal) for k in range(1, 101)]
    assert spell.at_reference(0.5) == pytest.approx(0.25)
    assert spell.at_reference(4.0) - spell.at_reference(3.0) == pytest.approx(1.0)
    assert 0.5 < spell.at_reference(1.0) < 0.6

    assert bench_run.Span(start=2.0).at_reference(3.5) == 1.5  # no ticks: as measured


# -- smoke runs ------------------------------------------------------------------------


@pytest.mark.parametrize("workload", bench_run.WORKLOADS)
@pytest.mark.parametrize("trace", ["0", "1"])
def test_smoke_run_emits_every_metric_and_passes_the_gate(tiny, workload, trace):
    code, lines = run_bench("--workload", workload, "--seed", "2", "--seconds", "0.6",
                            "--trace", trace)
    result = json.loads(lines[-1])
    assert code == 0, lines
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["failed"] == 0 and result["attempted"] > 0
    declared = SPEC["per_layer" if trace == "1" else "end_to_end"]
    assert {k: v["unit"] for k, v in result["metrics"].items()} == {
        m["name"]: m["unit"] for m in declared
    }
    if trace == "0":
        assert all(v["value"] > 0 for v in result["metrics"].values())


@pytest.mark.parametrize("workload", bench_run.WORKLOADS)
def test_report_digest_repeats_per_seed(tiny, workload):
    args = ("--workload", workload, "--seconds", "0.4", "--trace", "0")
    first = digest_of(run_bench(*args, "--seed", "4")[1])
    assert digest_of(run_bench(*args, "--seed", "4")[1]) == first
    assert digest_of(run_bench(*args, "--seed", "5")[1]) != first


def test_gate_fails_the_command_when_an_agent_raises(tiny, monkeypatch):
    from smsflow.renewal import RenewalAgent

    handle = RenewalAgent.handle

    def flaky(self, envelope):
        if envelope.payload["metadata"]["eventId"].endswith("7"):
            raise RuntimeError("injected")
        return handle(self, envelope)

    monkeypatch.setattr(RenewalAgent, "handle", flaky)
    code, lines = run_bench("--workload", "campaign", "--seed", "1", "--seconds", "0.1")
    result = json.loads(lines[-1])
    assert code == 1 and result["correct"] is False and result["failed"] > 0
    assert any(line.startswith("gate:") for line in lines)


def test_llm_http_gate_fails_when_the_report_depends_on_timing(tiny, monkeypatch):
    call = bench_gen.FakeChatTransport.__call__

    def timing_dependent(self, body):
        if self.delay_s == 0:
            raise BackendUnavailableError("only when the round trip is instant")
        return call(self, body)

    monkeypatch.setattr(bench_gen.FakeChatTransport, "__call__", timing_dependent)
    code, lines = run_bench("--workload", "llm-http", "--seed", "1", "--seconds", "0.6")
    assert code == 1 and json.loads(lines[-1])["correct"] is False
    assert any("digests differ" in line for line in lines)


def test_exits_nonzero_without_a_result_when_sources_are_missing(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "benchmarks", ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [sys.executable, "benchmarks/run.py", "--workload", "campaign", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode not in (0, None) and proc.stdout == ""
