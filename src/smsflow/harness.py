"""Run the pipeline over an SMS corpus and report per-message outcomes.

Runs are deterministic: a logical clock drives timestamps, event ids are
sequential, and the fault plan is seeded, so identical run configurations
produce byte-identical reports.

One fold turns an event's step records, SMS and pharmacy actions into its
report fields (:func:`_event_fields`), and one counter turns those rows into
the summary (:func:`_summary`).  ``build_report`` feeds it each event's
history from the store; ``summarize_run`` replays the run-directory logs
through it, so ``smsflow report`` counts what the report counts.
"""
from __future__ import annotations

import json
import re
from collections import Counter
from dataclasses import dataclass
from itertools import groupby
from operator import itemgetter
from pathlib import Path

from .config import PipelineConfig
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
    pharmacy_by_event, sms_by_event = _by_event(store.pharmacy.read_all(), store.outbound_sms.read_all())

    rows = []
    for entry, event in entries:
        if event is None:
            rows.append(
                {"eventId": None, "phone": entry["phone"], "text": entry["text"],
                 "outcome": "auth-rejected"}
            )
            continue
        event_id = event.metadata.event_id
        fields, direct = _event_fields(
            store.get_history(event_id),
            sms_by_event.get(event_id, []),
            pharmacy_by_event.get(event_id, []),
        )

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
                "scores": scores,
                **fields,
            }
        )

    return {
        "seed": seed,
        "add_keyword_rate": add_rate,
        "drop_keyword_rate": drop_rate,
        "quiescent": quiescent,
        "messages": rows,
        "summary": _summary(rows),
    }


def _event_fields(history, sms: list[str], pharmacy: list[dict]) -> tuple[dict, bool]:
    """Report fields of one event from its step records in order, its SMS kinds and pharmacy actions.

    Also returns whether the evaluator took the direct path.  Without a
    terminal step the outcome is ``pending``; with several, the last counts.
    """
    terminal = None
    retries = 0
    direct = False
    discarded = []
    routing = []
    for record in history:
        note = record["note"]
        if record["terminal"]:
            terminal = note
        if note == "retry-requested":
            retries += 1
        elif note == "decision:processDirect":
            direct = True
        elif note.startswith("routed-to:"):
            routing.append(note.split(":", 1)[1])
        elif m := DISCARD_NOTE.match(note):
            discarded.append({"model_id": m.group(1), "reason": m.group(2)})
    fields = {
        "outcome": "pending" if terminal is None else OUTCOME_NAMES.get(terminal, terminal),
        "pharmacy": pharmacy,
        "sms": sms,
        "routing": routing,
        "discarded": discarded,
        "retries": retries,
    }
    return fields, direct


def _summary(rows) -> dict:
    """Summary counters over report rows (auth-rejected rows carry only an outcome)."""
    outcomes, discard_reasons, sms_kinds = Counter(), Counter(), Counter()
    retries = pharmacy_actions = 0
    for row in rows:
        outcomes[row["outcome"]] += 1
        for d in row.get("discarded", ()):
            discard_reasons[d["reason"]] += 1
        for kind in row.get("sms", ()):
            sms_kinds[kind] += 1
        retries += row.get("retries", 0)
        pharmacy_actions += len(row.get("pharmacy", ()))
    # Plain dicts, in first-seen order, keep the rendered table unchanged.
    return {
        "outcomes": dict(outcomes),
        "discard_reasons": dict(discard_reasons),
        "sms_kinds": dict(sms_kinds),
        "retries": retries,
        "pharmacy_actions": pharmacy_actions,
    }


def _by_event(pharmacy_records: list[dict], sms_records: list[dict]) -> tuple[dict, dict]:
    """Pharmacy actions and SMS kinds grouped by eventId, for the events that have any."""
    pharmacy_by_event: dict[str, list[dict]] = {}
    for r in pharmacy_records:
        pharmacy_by_event.setdefault(r["eventId"], []).append({"keyword": r["keyword"], "action": r["action"]})
    sms_by_event: dict[str, list[str]] = {}
    for r in sms_records:
        sms_by_event.setdefault(r["eventId"], []).append(r["kind"])
    return pharmacy_by_event, sms_by_event


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
    """The report's summary recomputed from the run-directory logs.

    Auth-rejected messages leave no step records, so ``outcomes`` has no
    ``auth-rejected`` count.
    """
    root = Path(run_dir)
    pharmacy_by_event, sms_by_event = _by_event(
        read_jsonl(root / "pharmacy.jsonl"), read_jsonl(root / "outbound_sms.jsonl")
    )
    steps = read_jsonl(root / "steps.jsonl")
    steps.sort(key=itemgetter("eventId"))  # stable: each event's records keep their order
    rows = (
        _event_fields(history, sms_by_event.get(event_id, []), pharmacy_by_event.get(event_id, []))[0]
        for event_id, history in groupby(steps, key=itemgetter("eventId"))
    )
    return _summary(rows)
