"""Run the pipeline over an SMS corpus and report per-message outcomes.

Runs are deterministic: a logical clock drives timestamps, event ids are
sequential, and the fault plan is seeded, so identical run configurations
produce byte-identical reports.

One fold builds every report row from the event's step records, SMS kinds
and pharmacy actions (:func:`_fold`, one record at a time into a row that
:func:`_empty_row` starts), reading typed step fields, and a note only for a
terminal outcome, a retry (``NOTE_RETRY``) or the direct decision
(``DIRECT_NOTE``); one counter turns rows into the summary (:func:`_summary`).
``build_report`` folds each event's records as the store holds them,
without copying them (:meth:`RunStore.steps_of`);
``summarize_run`` folds the run directory's ``steps.jsonl`` as it reads it,
so ``smsflow report`` counts what the report counts.
"""
from __future__ import annotations

import json
from collections import Counter
from collections.abc import Iterable
from dataclasses import dataclass
from operator import itemgetter
from pathlib import Path

from .arbitration import ACTION_PROCESS_DIRECT
from .config import PipelineConfig
from .pipeline import Pipeline, build_pipeline
from .renewal import KeywordLexicon, tokens_of
from .store import (
    NOTE_RETRY,
    STEP_KEYS,
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

# The evaluator's decision note when it applies the parser's claims itself.
DIRECT_NOTE = f"decision:{ACTION_PROCESS_DIRECT}"
# The verdict fields of the router's terminal record.
_VERDICT = itemgetter("keyword_outcome", "accepted", "scores")

REPORT_JSON = "report.json"
REPORT_TEXT = "report.txt"

# Soundness tokenizes as the validator does; tokenizing reads no lexicon entry.
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
    """The corpus entries of a JSON-lines file; a malformed line raises ``ValueError`` naming it."""
    entries = []
    for i, line in enumerate(Path(path).read_text(encoding="utf-8").splitlines(), start=1):
        line = line.strip()
        if not line:
            continue
        try:
            doc = json.loads(line)
        except json.JSONDecodeError as exc:
            raise ValueError(f"{path}:{i}: not JSON: {exc}") from exc
        if not isinstance(doc, dict) or not all(isinstance(doc.get(k), str) for k in ("phone", "text")):
            raise ValueError(f"{path}:{i}: corpus lines are objects with string 'phone' and 'text'")
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
    """The report as JSON plus a newline, byte-identical to ``json.dumps``
    with ``sort_keys=True`` and ``indent=2``.

    With an indent, ``json.dumps`` leaves its C encoder for a pure-Python
    one that runs a generator per container; here containers are joined
    directly and leaves go through ``json``'s own C string encoder and
    number spellings.  A value of any other type raises ``TypeError``, as
    ``json.dumps`` does.
    """
    return _render(report, "\n") + "\n"


_encode_str = json.encoder.encode_basestring_ascii


def _render(value, newline: str) -> str:
    """One JSON value at the indent that ``newline`` ends with, in ``json``'s type order."""
    if isinstance(value, str):
        return _encode_str(value)
    if value is None:
        return "null"
    if value is True:
        return "true"
    if value is False:
        return "false"
    if isinstance(value, int):
        return int.__repr__(value)
    if isinstance(value, float):
        if value != value:
            return "NaN"
        if value in (json.encoder.INFINITY, -json.encoder.INFINITY):
            return "Infinity" if value > 0 else "-Infinity"
        return float.__repr__(value)
    inner = newline + "  "
    if isinstance(value, (list, tuple)):
        if not value:
            return "[]"
        return "[" + inner + ("," + inner).join([_render(v, inner) for v in value]) + newline + "]"
    if isinstance(value, dict):
        if not value:
            return "{}"
        return "{" + inner + ("," + inner).join(
            [_encode_str(_key_str(k)) + ": " + _render(v, inner) for k, v in sorted(value.items())]
        ) + newline + "}"
    raise TypeError(f"Object of type {type(value).__name__} is not JSON serializable")


def _key_str(key) -> str:
    """A dict key as ``json`` spells it; keys are converted after sorting, as ``json`` does."""
    if isinstance(key, str):
        return key
    if key is None or isinstance(key, (int, float)):  # bool is an int
        return _render(key, "")
    raise TypeError(f"keys must be str, int, float, bool or None, not {type(key).__name__}")


def build_report(
    pipeline: Pipeline,
    entries: list[tuple[dict, object]],
    seed: int,
    add_rate: float,
    drop_rate: float,
    quiescent: bool,
) -> dict:
    """One row per corpus entry plus summary counters, linear in messages and log records."""
    store = pipeline.store
    pharmacy_by_event, sms_by_event = _by_event(store.pharmacy.read_all(), store.outbound_sms.read_all())

    rows = []
    for entry, event in entries:
        event_id = event.metadata.event_id if event is not None else None
        row = {"eventId": event_id, "phone": entry["phone"], "text": entry["text"]}
        if event_id is None:
            row["outcome"] = "auth-rejected"
        else:
            row.update(_empty_row(sms_by_event.get(event_id, []), pharmacy_by_event.get(event_id, [])))
            for record in store.steps_of(event_id):
                _fold(row, record)
        rows.append(row)

    return {
        "seed": seed,
        "add_keyword_rate": add_rate,
        "drop_keyword_rate": drop_rate,
        "quiescent": quiescent,
        "messages": rows,
        "summary": _summary(rows),
    }


def _empty_row(sms: list[str], pharmacy: list[dict]) -> dict:
    return {"ra": None, "keyword_outcome": "", "accepted": None, "scores": None, "outcome": "pending",
            "pharmacy": pharmacy, "sms": sms, "routing": [], "discarded": [], "retries": 0}


def _fold(row: dict, record: dict) -> None:
    """Fold the event's next step record into its report row.

    A row shows only what was recorded: no ``ra`` before the evaluator's
    decision, no verdict before the router's terminal record.  Without a
    terminal step the outcome stays ``pending``; with several, the last counts.
    The record is the store's own (:meth:`RunStore.steps_of`), so the fold
    changes nothing in it or in the values it holds.
    """
    note = record["note"]
    if record["terminal"]:
        row["outcome"] = OUTCOME_NAMES.get(note, note)
        if "keyword_outcome" in record:
            row["keyword_outcome"], row["accepted"], row["scores"] = _VERDICT(record)
    if note == NOTE_RETRY:
        row["retries"] += 1
    elif "ra" in record:
        ra = row["ra"] = record["ra"]
        if note == DIRECT_NOTE:
            row["keyword_outcome"] = "direct"
            row["accepted"] = {"renew": ra["renew"], "stop": ra["stop"]}
    elif "destination" in record:
        row["routing"].append(record["destination"])
    elif "reason" in record:
        row["discarded"].append({"model_id": record["model_id"], "reason": record["reason"]})


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


def _by_event(pharmacy_records: Iterable[dict], sms_records: Iterable[dict]) -> tuple[dict, dict]:
    """Pharmacy actions and SMS kinds grouped by eventId, for the events that have any."""
    pharmacy_by_event: dict[str, list[dict]] = {}
    for r in pharmacy_records:
        pharmacy_by_event.setdefault(r["eventId"], []).append({"keyword": r["keyword"], "action": r["action"]})
    sms_by_event: dict[str, list[str]] = {}
    for r in sms_records:
        sms_by_event.setdefault(r["eventId"], []).append(r["kind"])
    return pharmacy_by_event, sms_by_event


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
    """Chronological step listing for one event, or None when unknown (see :func:`_trace_line`)."""
    steps_path = Path(run_dir) / "steps.jsonl"
    if not steps_path.exists():
        return None
    records = [r for r in read_jsonl(steps_path) if r["eventId"] == event_id]
    if not records:
        return None
    records.sort(key=lambda r: r["seq"])
    return [_trace_line(r) for r in records]


def _trace_line(record: dict) -> str:
    """One step record: its time, step, agent and note, then any typed fields as compact sorted JSON."""
    line = f"{record['recorded_at']}  {record['stepId']:<5} {record['agent']:<24} {record['note']}"
    fields = {key: value for key, value in record.items() if key not in STEP_KEYS}
    if fields:
        line += "  " + json.dumps(fields, sort_keys=True, separators=(",", ":"))
    return line


def soundness_violations(run_dir: Path | str) -> list[dict]:
    """Pharmacy-log keywords that do not occur in the originating SMS text.

    Each distinct original is tokenized once per call: replies repeat, and
    an event usually has several pharmacy records.
    """
    root = Path(run_dir)
    originals: dict[str, str] = {}
    for record in read_jsonl(root / "originals.jsonl"):
        originals[record["eventId"]] = record["text"]
    tokens: dict[str, set[str]] = {}  # original text -> tokens_of it
    violations = []
    for record in read_jsonl(root / "pharmacy.jsonl"):
        original = originals.get(record["eventId"])
        if original is None:
            violations.append({"eventId": record["eventId"], "keyword": record["keyword"],
                               "why": "no original text stored"})
            continue
        text_tokens = tokens.get(original)
        if text_tokens is None:
            text_tokens = tokens[original] = tokens_of(original, _KEYWORD_FREE)
        if record["keyword"].lower() not in text_tokens:
            violations.append({"eventId": record["eventId"], "keyword": record["keyword"],
                               "why": "keyword absent from original text"})
    return violations


def summarize_run(run_dir: Path | str) -> dict:
    """The report's summary recomputed from the run-directory logs.

    Each step record is folded into its event's row as it is read, so only
    the rows are held.  Auth-rejected messages leave no step records, so
    ``outcomes`` has no ``auth-rejected`` count.
    """
    root = Path(run_dir)
    pharmacy_by_event, sms_by_event = _by_event(
        read_jsonl(root / "pharmacy.jsonl"), read_jsonl(root / "outbound_sms.jsonl")
    )
    rows: dict[str, dict] = {}
    for record in read_jsonl(root / "steps.jsonl"):
        event_id = record["eventId"]
        row = rows.get(event_id)
        if row is None:
            row = rows[event_id] = _empty_row(sms_by_event.get(event_id, []), pharmacy_by_event.get(event_id, []))
        _fold(row, record)
    return _summary(rows.values())
