"""Run the pipeline over an SMS corpus and report per-message outcomes.

Runs are deterministic: a logical clock drives timestamps, event ids are
sequential, and the fault plan is seeded, so identical run configurations
produce byte-identical reports.

One driver (:func:`_rows`) turns a step stream, the pharmacy actions and
the SMS kinds into one report row per event, folding each step record into
its event's row (:func:`_fold`).  The fold reads typed step fields only; a
terminal record's note is the outcome itself.  One counter turns rows into
the summary (:func:`_summary`).  ``build_report`` runs the driver over the
store's own records, uncopied; ``summarize_run`` runs it over the run
directory's logs as it reads them, so ``smsflow report`` counts what the
report counts.
"""
from __future__ import annotations

import json
from collections import Counter
from collections.abc import Iterable
from dataclasses import dataclass
from itertools import islice
from operator import itemgetter
from pathlib import Path

from .config import PipelineConfig
from .pipeline import Pipeline, build_pipeline
from .renewal import KeywordLexicon, tokens_of
from .store import STEP_KEYS, read_jsonl

# The verdict fields of a terminal record: the router's, or the evaluator's direct one.
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
    for index, doc in enumerate(read_jsonl(Path(path))):
        if not isinstance(doc, dict) or not all(isinstance(doc.get(k), str) for k in ("phone", "text")):
            raise ValueError(
                f"{path}:{_line_of(path, index)}: corpus lines are objects with string 'phone' and 'text'"
            )
        entries.append({"phone": doc["phone"], "text": doc["text"]})
    return entries


def _line_of(path: Path | str, index: int) -> int:
    """The number of the line holding the ``index``-th record (from 0) that ``read_jsonl`` yields."""
    with Path(path).open(encoding="utf-8") as lines:
        numbered = (number for number, line in enumerate(lines, start=1) if line.strip())
        return next(islice(numbered, index, None))


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
    """One row per corpus entry plus summary counters, linear in messages and log records.

    The store's records are folded as it holds them, uncopied.
    """
    store = pipeline.store
    by_event = _rows(store.steps.read_all(), store.pharmacy.read_all(), store.outbound_sms.read_all())
    rows = []
    for entry, event in entries:
        if event is None:
            row = {"eventId": None, "outcome": "auth-rejected"}
        else:
            row = by_event[event.metadata.event_id]
            row["eventId"] = event.metadata.event_id
        row["phone"], row["text"] = entry["phone"], entry["text"]
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


def _rows(steps: Iterable[dict], pharmacy: Iterable[dict], sms: Iterable[dict]) -> dict[str, dict]:
    """The report row of every event that has a step record, by eventId.

    Each row starts with the event's pharmacy actions and SMS kinds, in log
    order, and then folds the event's step records in stream order.
    """
    pharmacy_by_event: dict[str, list[dict]] = {}
    for r in pharmacy:
        pharmacy_by_event.setdefault(r["eventId"], []).append({"keyword": r["keyword"], "action": r["action"]})
    sms_by_event: dict[str, list[str]] = {}
    for r in sms:
        sms_by_event.setdefault(r["eventId"], []).append(r["kind"])
    rows: dict[str, dict] = {}
    for record in steps:
        event_id = record["eventId"]
        row = rows.get(event_id)
        if row is None:
            row = rows[event_id] = _empty_row(sms_by_event.get(event_id, []), pharmacy_by_event.get(event_id, []))
        _fold(row, record)
    return rows


def _fold(row: dict, record: dict) -> None:
    """Fold the event's next step record into its report row, reading no note but a terminal one.

    A row shows only what was recorded: no ``ra`` before the evaluator's
    decision, no verdict before a terminal record carries one.  Without a
    terminal step the outcome stays ``pending``; with several, the last
    counts.  The record may be the store's own, so the fold changes nothing
    in it or in the values it holds.
    """
    if record["terminal"]:
        row["outcome"] = record["note"]
        if "keyword_outcome" in record:
            row["keyword_outcome"], row["accepted"], row["scores"] = _VERDICT(record)
    elif "ra" in record:
        row["ra"] = record["ra"]
    elif "next_attempt" in record:
        row["retries"] += 1
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
    rows = _rows(
        read_jsonl(root / "steps.jsonl"),
        read_jsonl(root / "pharmacy.jsonl"),
        read_jsonl(root / "outbound_sms.jsonl"),
    )
    return _summary(rows.values())
