"""Run the pipeline over an SMS corpus and report per-message outcomes.

Runs are deterministic: a logical clock drives timestamps, event ids are
sequential, and the fault plan is seeded, so identical run configurations
produce byte-identical reports.
"""
from __future__ import annotations

import json
import re
from dataclasses import dataclass
from pathlib import Path

from .config import PipelineConfig, load_config
from .pipeline import Pipeline, build_pipeline
from .renewal import KeywordLexicon, tokens_of
from .store import (
    TERMINAL_AWAITING,
    TERMINAL_DONE,
    TERMINAL_FAILED,
    TERMINAL_ROUTED,
    TERMINAL_UNROUTED,
    read_jsonl,
)

OUTCOME_NAMES = {
    TERMINAL_DONE: "processed",
    TERMINAL_FAILED: "failed",
    TERMINAL_AWAITING: "awaiting-confirmation",
    TERMINAL_ROUTED: "routed",
    TERMINAL_UNROUTED: "unrouted",
}

REPORT_JSON = "report.json"
REPORT_TEXT = "report.txt"

# Step note of a model document the validator discarded: discarded:<model>:<reason>.
DISCARD_NOTE = re.compile(r"^discarded:([^:]+):(.+)$")

# Soundness tokenizes as the validator does, on the delimiters every configuration uses.
_KEYWORD_FREE = KeywordLexicon(entries=())


@dataclass
class RunConfig:
    config_path: Path
    corpus_path: Path
    seed: int = 0
    add_keyword_rate: float = 0.0
    drop_keyword_rate: float = 0.0
    out_dir: Path | None = None
    budget: int | None = None


@dataclass
class RunResult:
    report: dict
    pipeline: Pipeline
    quiescent: bool

    @property
    def pending(self) -> list[str]:
        return self.pipeline.pending_events()


def load_corpus(path: Path | str) -> list[dict]:
    entries = []
    for i, line in enumerate(Path(path).read_text(encoding="utf-8").splitlines(), start=1):
        line = line.strip()
        if not line:
            continue
        doc = json.loads(line)
        if "phone" not in doc or "text" not in doc:
            raise ValueError(f"{path}:{i}: corpus lines need 'phone' and 'text'")
        entries.append({"phone": doc["phone"], "text": doc["text"]})
    return entries


def run(rc: RunConfig) -> RunResult:
    config = load_config(rc.config_path)
    corpus = load_corpus(rc.corpus_path)
    return run_pipeline(
        config,
        corpus,
        seed=rc.seed,
        add_keyword_rate=rc.add_keyword_rate,
        drop_keyword_rate=rc.drop_keyword_rate,
        run_dir=rc.out_dir,
        budget=rc.budget,
    )


def run_pipeline(
    config: PipelineConfig,
    corpus: list[dict],
    seed: int = 0,
    add_keyword_rate: float = 0.0,
    drop_keyword_rate: float = 0.0,
    run_dir: Path | str | None = None,
    budget: int | None = None,
) -> RunResult:
    pipeline = build_pipeline(
        config,
        seed=seed,
        add_keyword_rate=add_keyword_rate,
        drop_keyword_rate=drop_keyword_rate,
        run_dir=run_dir,
    )
    try:
        entries = []
        for entry in corpus:
            event = pipeline.ingest(entry["phone"], entry["text"])
            entries.append((entry, event))
        quiescent = pipeline.run_to_quiescence(budget)
        report = build_report(
            pipeline, entries, seed, add_keyword_rate, drop_keyword_rate, quiescent
        )
    finally:
        pipeline.close()
    if run_dir is not None:
        out = Path(run_dir)
        (out / REPORT_JSON).write_text(render_report_json(report), encoding="utf-8")
        (out / REPORT_TEXT).write_text(render_report_table(report), encoding="utf-8")
    return RunResult(report=report, pipeline=pipeline, quiescent=quiescent)


def render_report_json(report: dict) -> str:
    return json.dumps(report, sort_keys=True, indent=2) + "\n"


def build_report(
    pipeline: Pipeline,
    entries: list[tuple[dict, object]],
    seed: int,
    add_rate: float,
    drop_rate: float,
    quiescent: bool,
) -> dict:
    """One row per corpus entry plus summary counters, linear in messages and log records."""
    parsed_by_event = _drain_by_event(pipeline.parsed_sub)
    verdict_by_event = _drain_by_event(pipeline.verdict_sub)

    store = pipeline.store
    pharmacy_records = store.pharmacy.read_all()
    pharmacy_by_event: dict[str, list[dict]] = {}
    for r in pharmacy_records:
        pharmacy_by_event.setdefault(r["eventId"], []).append({"keyword": r["keyword"], "action": r["action"]})
    sms_by_event: dict[str, list[str]] = {}
    for r in store.outbound_sms.read_all():
        sms_by_event.setdefault(r["eventId"], []).append(r["kind"])

    rows = []
    for entry, event in entries:
        if event is None:
            rows.append(
                {"eventId": None, "phone": entry["phone"], "text": entry["text"],
                 "outcome": "auth-rejected"}
            )
            continue
        event_id = event.metadata.event_id
        terminal = None
        retries = 0
        direct = False
        discarded = []
        routing = []
        for record in store.get_history(event_id):
            note = record["note"]
            if record["terminal"]:
                terminal = record
            if note == "retry-requested":
                retries += 1
            elif note == "decision:processDirect":
                direct = True
            elif note.startswith("routed-to:"):
                routing.append(note.split(":", 1)[1])
            elif m := DISCARD_NOTE.match(note):
                discarded.append({"model_id": m.group(1), "reason": m.group(2)})
        outcome = OUTCOME_NAMES.get(terminal["note"], terminal["note"]) if terminal else "pending"

        parsed = parsed_by_event.get(event_id)
        verdict = verdict_by_event.get(event_id)
        keyword_outcome = ""
        accepted = None
        scores = None
        if direct:
            keyword_outcome = "direct"
            if parsed:
                accepted = {"renew": parsed["renew"], "stop": parsed["stop"]}
        elif verdict:
            keyword_outcome = verdict["keywords"]["outcome"]
            accepted = verdict["keywords"]["accepted"]
            if verdict.get("extraction"):
                scores = verdict["extraction"]["scores"]

        rows.append(
            {
                "eventId": event_id,
                "phone": entry["phone"],
                "text": entry["text"],
                "outcome": outcome,
                "ra": (
                    {
                        "renew": parsed["renew"],
                        "stop": parsed["stop"],
                        "confidence": parsed["degreeOfConfidence"],
                    }
                    if parsed
                    else None
                ),
                "keyword_outcome": keyword_outcome,
                "accepted": accepted,
                "pharmacy": pharmacy_by_event.get(event_id, []),
                "sms": sms_by_event.get(event_id, []),
                "routing": routing,
                "discarded": discarded,
                "retries": retries,
                "scores": scores,
            }
        )

    outcomes: dict[str, int] = {}
    discard_reasons: dict[str, int] = {}
    sms_kinds: dict[str, int] = {}
    retries = 0
    for row in rows:
        outcomes[row["outcome"]] = outcomes.get(row["outcome"], 0) + 1
        for d in row.get("discarded", ()):
            discard_reasons[d["reason"]] = discard_reasons.get(d["reason"], 0) + 1
        for kind in row.get("sms", ()):
            sms_kinds[kind] = sms_kinds.get(kind, 0) + 1
        retries += row.get("retries", 0)

    return {
        "seed": seed,
        "add_keyword_rate": add_rate,
        "drop_keyword_rate": drop_rate,
        "quiescent": quiescent,
        "messages": rows,
        "summary": {
            "outcomes": outcomes,
            "discard_reasons": discard_reasons,
            "sms_kinds": sms_kinds,
            "retries": retries,
            "pharmacy_actions": len(pharmacy_records),
        },
    }


def _drain_by_event(sub) -> dict[str, dict]:
    """Poll a subscription dry and keep the last payload per eventId."""
    by_event: dict[str, dict] = {}
    while batch := sub.poll(64):
        for env in batch:
            by_event[env.payload["metadata"]["eventId"]] = env.payload
    return by_event


def render_report_table(report: dict) -> str:
    headers = ["eventId", "outcome", "accepted", "pharmacy", "sms", "routing"]
    lines = ["  ".join(f"{h:<22}" for h in headers).rstrip()]
    for row in report["messages"]:
        accepted = row.get("accepted")
        accepted_text = (
            "renew=" + ",".join(accepted["renew"]) + " stop=" + ",".join(accepted["stop"])
            if accepted
            else "-"
        )
        cells = [
            str(row.get("eventId")),
            row.get("outcome", ""),
            accepted_text,
            ",".join(f"{p['action']}:{p['keyword']}" for p in row.get("pharmacy", ())) or "-",
            ",".join(row.get("sms", ())) or "-",
            ",".join(row.get("routing", ())) or "-",
        ]
        lines.append("  ".join(f"{c:<22}" for c in cells).rstrip())
    summary = report["summary"]
    lines.append("")
    lines.append(f"outcomes: {summary['outcomes']}")
    lines.append(f"discards: {summary['discard_reasons']}  retries: {summary['retries']}")
    lines.append(f"sms: {summary['sms_kinds']}  pharmacy actions: {summary['pharmacy_actions']}")
    return "\n".join(lines) + "\n"


# -- post-run inspection commands ---------------------------------------------


def trace_lines(run_dir: Path | str, event_id: str) -> list[str] | None:
    """Chronological step listing for one event, or None when unknown."""
    steps_path = Path(run_dir) / "steps.jsonl"
    if not steps_path.exists():
        return None
    records = [r for r in read_jsonl(steps_path) if r["eventId"] == event_id]
    if not records:
        return None
    records.sort(key=lambda r: r["seq"])
    return [
        f"{r['recorded_at']}  {r['stepId']:<5} {r['agent']:<24} {r['note']}"
        + (f"  [{r['digest']}]" if r["digest"] else "")
        for r in records
    ]


def soundness_violations(run_dir: Path | str) -> list[dict]:
    """Pharmacy-log keywords that do not occur in the originating SMS text."""
    root = Path(run_dir)
    originals: dict[str, str] = {}
    for record in read_jsonl(root / "originals.jsonl"):
        originals[record["eventId"]] = record["text"]
    violations = []
    for record in read_jsonl(root / "pharmacy.jsonl"):
        original = originals.get(record["eventId"])
        if original is None:
            violations.append({"eventId": record["eventId"], "keyword": record["keyword"],
                               "why": "no original text stored"})
        elif record["keyword"].lower() not in tokens_of(original, _KEYWORD_FREE):
            violations.append({"eventId": record["eventId"], "keyword": record["keyword"],
                               "why": "keyword absent from original text"})
    return violations


def summarize_run(run_dir: Path | str) -> dict:
    """Outcome/discard/SMS counters recomputed from the run-directory logs."""
    root = Path(run_dir)
    steps = read_jsonl(root / "steps.jsonl")
    outcomes: dict[str, int] = {}
    discard_reasons: dict[str, int] = {}
    retries = 0
    for record in steps:
        if record.get("terminal"):
            name = OUTCOME_NAMES.get(record["note"], record["note"])
            outcomes[name] = outcomes.get(name, 0) + 1
        m = DISCARD_NOTE.match(record["note"])
        if m:
            discard_reasons[m.group(2)] = discard_reasons.get(m.group(2), 0) + 1
        if record["note"] == "retry-requested":
            retries += 1
    sms_kinds: dict[str, int] = {}
    for record in read_jsonl(root / "outbound_sms.jsonl"):
        sms_kinds[record["kind"]] = sms_kinds.get(record["kind"], 0) + 1
    pharmacy = read_jsonl(root / "pharmacy.jsonl")
    return {
        "outcomes": outcomes,
        "discard_reasons": discard_reasons,
        "retries": retries,
        "sms_kinds": sms_kinds,
        "pharmacy_actions": len(pharmacy),
    }
