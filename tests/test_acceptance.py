"""Acceptance suite: one test per release criterion.

Run with ``pytest tests/test_acceptance.py -v -s`` to see one PASS line per
criterion; each test pins its tolerances inline.
"""
import random
import time
from concurrent.futures import ThreadPoolExecutor
from datetime import date

import pytest

from smsflow.config import default_config_path, default_corpus_path, load_config
from smsflow.experts import (
    AvailabilityStore,
    ScriptedSchedulerModel,
    SlotCandidate,
    book_first,
    parse_proposal,
)
from smsflow.fuzzy import defuzzify_cog
from smsflow.fuzzy.inference import FuzzyOutput
from smsflow.harness import load_corpus, render_report_json, run_pipeline
from smsflow.llm import LlmExtraction, ScriptedModel
from smsflow.renewal import segment, strip_politeness
from smsflow.validator import validate_extraction

from conftest import remaining_bookings, terminal_notes

MSG1 = (
    "1, unenroll. Thank you for your great service. I just want to know if it is "
    "normal for the medication to taste so bad? I also noticed that my blood "
    "pressure medication has no renewal left. Do I need to call my doctor or can "
    "you renew it for me?"
)

# Seed chosen so the 0.02-rate schedule fires exactly once across the
# 50-message corpus (asserted below, not assumed).
FIFTY_REPEAT_SEED = 2
FIFTY_REPEAT_ADD_RATE = 0.02


@pytest.fixture(scope="module")
def config():
    return load_config(default_config_path())


@pytest.fixture(scope="module")
def corpus():
    return load_corpus(default_corpus_path())


def _pass(n, message):
    print(f"PASS criterion {n}: {message}")


def test_criterion_1_ten_message_corpus(config, corpus):
    started = time.monotonic()
    result = run_pipeline(config, corpus, seed=0)
    elapsed = time.monotonic() - started
    assert result.quiescent
    rows = {r["eventId"]: r for r in result.report["messages"]}

    def pharm(row):
        return [(p["action"], p["keyword"]) for p in row["pharmacy"]]

    # Messages 2..6: direct or validated processing with exactly the keyword
    # sets derivable from the text under the pinned lexicon.
    assert rows["A1002"]["outcome"] == "processed"
    assert rows["A1002"]["keyword_outcome"] == "direct"
    assert pharm(rows["A1002"]) == [("renew", "1"), ("stop", "unenroll")]

    assert rows["A1003"]["outcome"] == "processed"
    assert rows["A1003"]["accepted"] == {"renew": ["1"], "stop": []}
    assert pharm(rows["A1003"]) == [("renew", "1")]

    assert rows["A1004"]["outcome"] == "processed"
    assert rows["A1004"]["accepted"] == {"renew": ["1", "renew"], "stop": []}
    assert pharm(rows["A1004"]) == [("renew", "1"), ("renew", "renew")]

    assert rows["A1005"]["outcome"] == "processed"
    assert rows["A1005"]["ra"]["renew"] == [] and rows["A1005"]["ra"]["stop"] == []
    assert rows["A1005"]["accepted"] == {"renew": [], "stop": ["2"]}
    assert pharm(rows["A1005"]) == [("stop", "2")]

    assert rows["A1006"]["outcome"] == "processed"
    assert rows["A1006"]["accepted"] == {"renew": ["1"], "stop": []}

    # Message 9 processes "enroll" and never claims the false hit "renew".
    assert rows["A1009"]["accepted"] == {"renew": ["enroll"], "stop": []}
    assert pharm(rows["A1009"]) == [("renew", "enroll")]

    # Message 10: no parser keywords, model-extracted "stop", confirm-stop
    # SMS under the chronic-critical fixture; nothing reaches the pharmacy.
    assert rows["A1010"]["ra"]["renew"] == [] and rows["A1010"]["ra"]["stop"] == []
    assert rows["A1010"]["accepted"] == {"renew": [], "stop": ["stop"]}
    assert rows["A1010"]["outcome"] == "awaiting-confirmation"
    assert rows["A1010"]["sms"] == ["confirm-stop"]
    assert pharm(rows["A1010"]) == []

    # Message 1: complaint and request both route to Pharmacy; the pharmacist
    # queue receives the rephrased items in the routing-decision shape.
    assert rows["A1001"]["outcome"] == "routed"
    assert pharm(rows["A1001"]) == [("renew", "1"), ("stop", "unenroll")]
    assert rows["A1001"]["routing"] == ["Pharmacy", "Pharmacy"]
    queue = [
        r for r in result.pipeline.store.queue("pharmacist").read_all()
        if r["eventId"] == "A1001"
    ]
    assert len(queue) == 2
    for entry in queue:
        assert set(entry) >= {"destination", "next_inputs"}
        assert entry["destination"] == "Pharmacy"
    assert queue[0]["next_inputs"].startswith("I have a complaint about")
    assert queue[1]["next_inputs"].startswith("I would like to")

    assert elapsed < 5.0
    _pass(1, f"ten-message outcome table reproduced in {elapsed:.2f}s")


def test_criterion_2_fifty_repeat_hallucination(config):
    corpus = [{"phone": "+15550001", "text": MSG1}] * 50
    result = run_pipeline(
        config, corpus, seed=FIFTY_REPEAT_SEED, add_keyword_rate=FIFTY_REPEAT_ADD_RATE
    )
    assert result.quiescent
    rows = result.report["messages"]
    assert len(rows) == 50
    assert all(r["accepted"] == {"renew": ["1"], "stop": ["unenroll"]} for r in rows)

    discards = [d for r in rows for d in r["discarded"]]
    assert len(discards) == 1
    assert discards[0]["reason"] == "fabricated-keyword"
    assert result.report["summary"]["retries"] == 0
    _pass(2, "one fabricated response discarded, 50/50 keyword sets correct, zero retries")


def test_criterion_3_cog_matches_quadrature_oracle():
    from conftest import quadrature_cog, random_output_variable

    rng = random.Random(2024)
    started = time.monotonic()
    checked = 0
    while checked < 100:
        var = random_output_variable(rng)
        activations = {label: rng.random() for label in var.labels}
        expected = quadrature_cog(var, activations, samples=100_000)
        if expected is None:
            continue
        got = defuzzify_cog(FuzzyOutput(variable=var, activations=activations))
        assert abs(got - expected) <= 1e-6 * max(abs(expected), 1e-12)
        checked += 1
    elapsed = time.monotonic() - started
    assert elapsed < 10.0
    _pass(3, f"analytic centroid matched 1e5-sample quadrature on 100 systems in {elapsed:.2f}s")


def test_criterion_4_rule_block_truth_table(config):
    system = config.action_system
    one_hot = lambda label: {l: (1.0 if l == label else 0.0) for l in ("high", "medium", "low")}
    expected = {
        ("high", "high"): "forwardToLLM",
        ("high", "medium"): "forwardToLLM",
        ("high", "low"): "forwardToLLM",
        ("medium", "high"): "forwardToLLM",
        ("medium", "medium"): "forwardToLLM",
        ("medium", "low"): "fail",
        ("low", "high"): "forwardToLLM",
        ("low", "medium"): "fail",
        ("low", "low"): "fail",
    }
    for (importance, confidence), want in expected.items():
        out = system.infer(
            {"customerImportance": one_hot(importance), "degreeOfConfidence": one_hot(confidence)}
        )
        forward, fail = out.activations["forwardToLLM"], out.activations["fail"]
        action = "forwardToLLM" if forward > fail else "fail"
        assert action == want, (importance, confidence, out.activations)
    _pass(4, "all 9 one-hot combinations decide exactly as declared")


def _fuzzed_corpus(n, seed):
    rng = random.Random(seed)
    keywords = ["1", "2", "renew", "enroll", "unenroll", "stop"]
    politeness = ["please", "thank you", "thanks"]
    free = ["the", "service", "my", "medication", "want", "need", "great", "bad",
            "vaccine", "doctor", "blood", "pressure", "text", "messages", "call",
            "know", "normal", "taste", "this", "time", "week", "also", "left",
            "book", "store", "hours", "holiday", "sky", "water"]
    corpus = []
    for _ in range(n):
        text = ""
        for _ in range(rng.randint(1, 4)):
            words = [
                rng.choice(keywords if rng.random() < 0.45 else (politeness if rng.random() < 0.2 else free))
                for _ in range(rng.randint(1, 6))
            ]
            text += (", " if rng.random() < 0.3 else " ").join(words)
            text += rng.choice([". ", "! ", "? ", ". "])
        corpus.append({"phone": f"+15550{rng.randint(1, 10):03d}", "text": text.strip()})
    return corpus


@pytest.fixture(scope="module")
def fuzzed_run(config):
    corpus = _fuzzed_corpus(1000, seed=424242)
    result = run_pipeline(config, corpus, seed=31337, add_keyword_rate=0.5, drop_keyword_rate=0.5)
    assert result.quiescent
    return result


def test_criterion_5_soundness_under_heavy_faults(config, fuzzed_run):
    store = fuzzed_run.pipeline.store
    originals = {e.metadata.event_id: e.body for e in fuzzed_run.pipeline.ingested}

    def tokens(text):
        return {t.lower() for seg in segment(text, config.lexicon) for t in seg}

    pharmacy = store.pharmacy.read_all()
    assert pharmacy, "fault corpus should still process plenty of messages"
    violations = [
        r for r in pharmacy if r["keyword"].lower() not in tokens(originals[r["eventId"]])
    ]
    assert violations == []

    # Completeness: every parser-claimed keyword of a processed message was
    # applied to the pharmacy endpoint.
    applied = {}
    for record in pharmacy:
        applied.setdefault(record["eventId"], set()).add(record["keyword"])
    for row in fuzzed_run.report["messages"]:
        if row["keyword_outcome"] in ("direct", "process"):
            ra_claims = set(row["ra"]["renew"]) | set(row["ra"]["stop"])
            assert ra_claims <= applied.get(row["eventId"], set())

    # Structural invariants along the way: exactly one terminal per event, at
    # most one retry, and at most one SMS per (event, kind).
    for row in fuzzed_run.report["messages"]:
        history = store.get_history(row["eventId"])
        assert sum(1 for r in history if r["terminal"]) == 1
        assert row["retries"] <= 1
    sms_keys = [(r["eventId"], r["kind"]) for r in store.outbound_sms.read_all()]
    assert len(sms_keys) == len(set(sms_keys))
    routed = sum(len(r["routing"]) for r in fuzzed_run.report["messages"])
    # A routed item lands in its expert's queue, else in one named after the expert.
    # A closed store opens no new queue, so only the queues the steps name are read.
    queues = {e.queue or e.qualifier.lower() for e in config.experts}
    used = {r["queue"] for r in store.steps.read_all() if "queue" in r}
    assert used <= queues
    intakes = (
        sum(len(store.queue(q).read_all()) for q in used)
        + len(store.answers.read_all())
        + len(store.bookings.read_all())
    )
    assert intakes == routed
    _pass(5, f"zero soundness violations across {len(pharmacy)} pharmacy actions, 1000 fuzzed messages")


def test_criterion_6_full_match_bypass(config, fuzzed_run):
    store = fuzzed_run.pipeline.store
    bypassed = 0
    for event in fuzzed_run.pipeline.ingested:
        stripped = strip_politeness(event.body, config.lexicon)
        segments = segment(stripped, config.lexicon)
        all_match = bool(segments) and all(
            config.lexicon.match_token(t) for seg in segments for t in seg
        )
        history = store.get_history(event.metadata.event_id)
        seen_forward = any(r["stepId"] == "S002" for r in history)
        if all_match:
            bypassed += 1
            assert terminal_notes(store, event.metadata.event_id) == ["processed"]
            assert not seen_forward
        else:
            # Conversely a partial message must never ride the direct path.
            row = next(
                r for r in fuzzed_run.report["messages"]
                if r["eventId"] == event.metadata.event_id
            )
            assert row["keyword_outcome"] != "direct"
    assert bypassed > 0
    _pass(6, f"{bypassed} full-match messages processed directly, none reached the model stage")


def test_criterion_7_stage_two_judging(config):
    lexicon = config.lexicon
    alpha, beta = ScriptedModel("alpha", config.cues), ScriptedModel("beta", config.cues)

    # Scripted-judge score table.
    original = "1. I want to book a flu shot"
    perfect = LlmExtraction(request=["I want to book a flu shot"])
    assert beta.judge(original, perfect, lexicon) == 10
    fabricated = LlmExtraction(
        request=["I want to book a flu shot"], complaint=["the clerk was rude"]
    )
    assert beta.judge(original, fabricated, lexicon) == 7
    empty = LlmExtraction()
    assert beta.judge("I want a refill. I need my results", empty, lexicon) == 6

    # Discard-below-5 plus highest-score selection.
    class FixedJudge:
        def __init__(self, model_id, by_judge):
            self.model_id = model_id
            self.by_judge = by_judge

        def judge(self, original, extraction, lexicon):
            return self.by_judge[self.model_id]

    def verdict(table):
        """Cross-judge with ``table`` giving each model's reading its score."""
        a = {"model_id": "alpha", **LlmExtraction(complaint=["x"]).to_doc()}
        b = {"model_id": "beta", **LlmExtraction(complaint=["y"]).to_doc()}
        # Each model judges the other's reading.
        by_judge = {"alpha": table["beta"], "beta": table["alpha"]}
        models = {"alpha": FixedJudge("alpha", by_judge), "beta": FixedJudge("beta", by_judge)}
        return validate_extraction("text", a, b, models, lexicon)

    assert verdict({"alpha": 7, "beta": 3})["chosen_model"] == "alpha"
    assert verdict({"alpha": 6, "beta": 9})["chosen_model"] == "beta"
    assert verdict({"alpha": 8, "beta": 8})["chosen_model"] == "alpha"
    assert verdict({"alpha": 2, "beta": 4})["outcome"] == "fail"

    # Both readings judged below 5 in the pipeline: exactly one support SMS.
    corpus = [{"phone": "+15550001", "text": "1. The sky is blue. Trees are green. Water is wet."}]
    result = run_pipeline(config, corpus)
    assert result.quiescent
    row = result.report["messages"][0]
    assert row["scores"] == {"alpha": 4, "beta": 4}
    assert row["outcome"] == "failed"
    assert row["sms"] == ["contact-support"]
    assert [p["keyword"] for p in row["pharmacy"]] == ["1"]  # stage 1 had agreed
    _pass(7, "judge table reproduced; sub-5 discard, top-score selection and double-discard SMS verified")


def test_criterion_8_replay_determinism(config, corpus):
    first = run_pipeline(config, corpus, seed=7, add_keyword_rate=0.1, drop_keyword_rate=0.05)
    second = run_pipeline(config, corpus, seed=7, add_keyword_rate=0.1, drop_keyword_rate=0.05)
    a, b = render_report_json(first.report), render_report_json(second.report)
    assert a == b
    _pass(8, f"two identically configured runs produced byte-identical {len(a)}-byte reports")


def test_criterion_9_scheduling_grounding():
    rng = random.Random(90210)
    model = ScriptedSchedulerModel()
    for _ in range(100):
        clauses = []
        for _ in range(rng.randint(1, 3)):
            month, day = rng.randint(1, 12), rng.randint(1, 28)
            part = rng.choice(["morning", "afternoon", ""])
            clauses.append(f"{month:02d}/{day:02d}/2025 {part}".strip())
        request = "I want an appointment on " + " or ".join(clauses)
        slots = {
            SlotCandidate(2025, rng.randint(1, 12), rng.randint(1, 28), rng.randint(8, 18)): rng.randint(0, 2)
            for _ in range(rng.randint(0, 8))
        }
        availability = AvailabilityStore(dict(slots))
        before = sum(slots.values())
        result = book_first(parse_proposal(request, model, date(2025, 1, 1)), availability)
        if result.booked is not None:
            assert result.booked in result.candidates
            assert remaining_bookings(availability, slots) == before - 1
        else:
            assert remaining_bookings(availability, slots) == before

    slot = SlotCandidate(2025, 6, 29, 10)
    availability = AvailabilityStore({slot: 1})
    with ThreadPoolExecutor(max_workers=12) as pool:
        outcomes = list(pool.map(lambda _: availability.book(slot), range(48)))
    assert sum(outcomes) == 1
    _pass(9, "100 randomized bookings grounded in proposed candidates; capacity-1 race booked once")
