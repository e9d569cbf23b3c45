#!/usr/bin/env python3
"""smsflow benchmark: named workloads, a correctness gate and one JSON result line.

    python3 benchmarks/run.py --workload campaign --seed 1 --seconds 30 --trace 0

Workloads (see benchmarks/README.md for why each exists):

  campaign       back-to-back in-memory batches of 4000 replies, each run the
                 way ``smsflow run`` runs it, scripted models with add/drop
                 fault rates of 0.1
  campaign-disk  back-to-back campaigns of 1000 replies, each writing a fresh
                 run directory and read back like ``smsflow report``
  llm-http       open loop at 35 msg/s of unique keyword-plus-free-text
                 replies through two ChatCompletionModels whose in-process
                 transport takes 3 ms per call; idle-priority busy loops
                 keep the CPUs from halting meanwhile

Set-ups and batches are timed against a reference loop interleaved with
them (SpeedProbe), so that their figures read as on a quiet host while the
shared host's speed drifts.  ``--trace 0`` prints the end-to-end metrics;
``--trace 1`` alternates untraced batches with batches that record spans
around every layer boundary, runs one more under tracemalloc, and prints the
per-layer metrics.  The last stdout line is
``{"correct", "attempted", "failed", "metrics"}``; the lines before it give
sample counts, bases and the outcome mix.  Exit codes: 0 ok, 1 correctness
gate failed, 2 the smsflow sources are missing or the arguments are bad.
"""
from __future__ import annotations

import argparse
import bisect
import gc
import hashlib
import json
import logging
import math
import os
import resource
import shutil
import signal
import statistics
import subprocess
import sys
import time
import tracemalloc
from contextlib import contextmanager
from dataclasses import dataclass, field
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = ROOT / ".bench_out"

WORKLOADS = ("campaign", "campaign-disk", "llm-http")
CAMPAIGN_SIZE = 4000
DISK_CAMPAIGN_SIZE = 1000
FAULT_RATE = 0.1  # seeded add- and drop-keyword rate of the scripted models
# llm-http traffic follows from the contract, not from a guessed backend:
# a 30-s run must hold >= 1000 accepted messages (ten samples beyond the p99),
# so the rate is at least 1000 / (0.99 * 30) = 33.7/s; 35/s leaves one
# arrival every 28.6 ms.  Today's serial model stage spends four round trips
# plus about 4 ms of agent work per forwarded message, 4 * d + 4 ms, and the
# agent work takes up to twice as long while the shared host is slow.  The
# round trip d = 3 ms keeps the stage under 0.7 of the interarrival time
# even then (12 + 8 = 20 ms), so the backlog stays steady; at d = 5 ms slow
# spells of the host pushed it into saturation and the p99 spread 0.9.
LLM_RATE = 35.0  # open-loop arrivals per second
LLM_DELAY_S = 0.003  # fixed round trip of the fake transport
LLM_MALFORMED = 0.05  # share of first extraction replies that do not parse
LLM_UNAVAILABLE = 0.02  # share of calls raising BackendUnavailableError
SETUP_REPS = 8  # set-ups per spell of set-ups (see Bench.measure); setup_s is the median
# Host speed: the shared host runs the same pure-Python work up to twice as
# slowly in spells of seconds to minutes, on wall and CPU time alike.  While
# set-ups and batches run, a timer signal interleaves a short fixed
# reference loop with them every REF_INTERVAL_S (see SpeedProbe); its time
# is taken off their clock, and the rest is scaled by REF_NOMINAL_S over the
# loop's mean time nearby (see Span).
REF_LOOPS = 300
REF_INTERVAL_S = 0.04
REF_NOMINAL_S = 0.0020  # about the loop's time while the host is quiet
REF_SMOOTH = 3  # loop runs on each side whose mean sets the speed between two runs
MIN_LATENCY_SAMPLES = 1000  # per percentile group: ten samples beyond the p99

END_TO_END_UNITS = {
    "setup_s": "s",
    "throughput_msg_s": "msg/s",
    "latency_p50_ms": "ms",
    "latency_p99_ms": "ms",
    "peak_rss_mb": "MB",
}


def _load_program():
    """Import smsflow from this checkout's sources, never from elsewhere."""
    if not (SRC / "smsflow" / "__init__.py").is_file():
        print(f"benchmark: no smsflow sources at {SRC}", file=sys.stderr)
        raise SystemExit(2)
    sys.path.insert(0, str(SRC))
    # The gateway warns once per unknown phone; keep those off the console
    # without changing what the program does per record.
    logging.getLogger("smsflow").addHandler(logging.NullHandler())
    logging.getLogger("smsflow").propagate = False


# -- results of one batch -------------------------------------------------------


@dataclass
class Batch:
    offered: int
    accepted: int
    window_s: float  # first ingest until the result is complete
    report_s: float
    write_s: float
    readback_s: float
    latencies_ms: list[float]
    late_ms: list[float]
    errors: int
    digest: str
    outcomes: dict
    problems: list[str]
    retained: int
    bytes_written: int = 0
    # Batch times are at the reference speed (Span); for the record, the
    # span's mean scale and the window on the probe clock as measured.
    scale: float = 1.0
    clock_s: float = 0.0


@dataclass
class Phase:
    batches: list[Batch] = field(default_factory=list)

    @property
    def accepted(self) -> int:
        return sum(b.accepted for b in self.batches)

    @property
    def throughput(self) -> float:
        """Median over batches of messages offered per second of the batch window."""
        return statistics.median(b.offered / b.window_s for b in self.batches)

    @property
    def ms_per_msg(self) -> float:
        """Median over batches of batch window per message offered."""
        return statistics.median(b.window_s * 1000 / b.offered for b in self.batches)

    @property
    def p50_ms(self) -> float:
        """Median over batches of each batch's p50 latency."""
        return statistics.median(percentile(b.latencies_ms, 0.5) for b in self.batches)


def latency_groups(batches: list[Batch]) -> list[list[float]]:
    """Latencies of consecutive whole batches, grouped to at least 1000 each.

    Percentiles are taken per group and the median over groups is reported,
    so one slow batch moves the run's p99 no more than it moves its median.
    """
    groups: list[list[float]] = []
    current: list[float] = []
    for b in batches:
        current += b.latencies_ms
        if len(current) >= MIN_LATENCY_SAMPLES:
            groups.append(current)
            current = []
    if current:
        if groups:
            groups[-1] += current
        else:
            groups.append(current)
    return groups


def _reference_work() -> int:
    """Fixed pure-Python work of the kinds the pipeline does: tokens, dicts, SHA-256, JSON."""
    counts: dict[str, int] = {}
    total = 0
    for i in range(REF_LOOPS):
        text = f"Message {i % 97}: 1, renew. I need a refill of my medication number {i}."
        for token in text.lower().replace(",", " ").replace(".", " ").split():
            counts[token] = counts.get(token, 0) + 1
        total += len(hashlib.sha256(text.encode()).hexdigest())
        total += len(json.dumps({"id": i, "text": text}))
    return total + len(counts)


class Span:
    """The reference loop's timings during one span of a SpeedProbe."""

    def __init__(self, start: float):
        self.start = start  # probe clock at the span's start
        self.ticks: list[tuple[float, float]] = []  # (probe clock, loop time) per run of the loop
        self._map: tuple[list[float], list[float], list[float]] | None = None

    @property
    def scale(self) -> float:
        """``REF_NOMINAL_S`` over the loop's mean time: below 1 while the host was slow."""
        if not self.ticks:
            return 1.0
        return REF_NOMINAL_S / statistics.fmean(took for _, took in self.ticks)

    def at_reference(self, t: float) -> float:
        """Probe clock ``t`` as time at the reference speed since the span's start.

        Between two runs of the loop the clock runs at ``REF_NOMINAL_S``
        over the mean loop time of the nearest ``2 * REF_SMOOTH + 1`` runs,
        so a slow second of the host stretches only the times it falls on.
        """
        if not self.ticks:
            return t - self.start
        if self._map is None:
            took = [x for _, x in self.ticks]
            bounds, rates, reached = [self.start], [], [0.0]
            for k, (at, _) in enumerate(self.ticks):
                near = took[max(0, k - REF_SMOOTH): k + REF_SMOOTH + 1]
                rates.append(REF_NOMINAL_S / statistics.fmean(near))
                reached.append(reached[-1] + (at - bounds[-1]) * rates[-1])
                bounds.append(at)
            self._map = bounds, rates, reached
        bounds, rates, reached = self._map
        k = max(1, min(bisect.bisect_left(bounds, t), len(rates)))
        return reached[k - 1] + (t - bounds[k - 1]) * rates[k - 1]


class SpeedProbe:
    """Measures the host's speed during a span by interleaving a fixed loop with it.

    Inside ``span()`` a SIGALRM timer runs ``_reference_work`` every
    ``REF_INTERVAL_S`` of wall time, between two bytecodes of the main
    thread, and adds its time to ``taken``.  ``clock()`` is ``perf_counter``
    minus ``taken``, so times read on it hold only the benchmark's own
    work, and the yielded Span turns them into times at the speed at which
    the loop takes ``REF_NOMINAL_S``.  A disabled probe (traced runs) leaves
    spans alone: they map the clock as it is and have scale 1.
    """

    def __init__(self, enabled: bool):
        self.enabled = enabled
        self.taken = 0.0

    def clock(self) -> float:
        return time.perf_counter() - self.taken

    @contextmanager
    def span(self):
        span = Span(self.clock())

        def tick(signum=None, frame=None):
            # The loop's garbage is freed before it returns; with the cyclic
            # collector off meanwhile, its time does not depend on the
            # program's heap.
            collecting = gc.isenabled()
            gc.disable()
            t0 = time.perf_counter()
            _reference_work()
            took = time.perf_counter() - t0
            if collecting:
                gc.enable()
            span.ticks.append((t0 - self.taken, took))
            self.taken += took

        if not self.enabled:
            yield span
            return
        previous = signal.signal(signal.SIGALRM, tick)
        signal.setitimer(signal.ITIMER_REAL, REF_INTERVAL_S, REF_INTERVAL_S)
        try:
            yield span
        finally:
            signal.setitimer(signal.ITIMER_REAL, 0)
            signal.signal(signal.SIGALRM, previous)
        tick()  # the end of the span gets a sample, a span shorter than the interval too


def percentile(values: list[float], q: float) -> float:
    """Nearest-rank percentile; 0.0 when nothing finished (the gate fails then)."""
    if not values:
        return 0.0
    ordered = sorted(values)
    return ordered[max(0, math.ceil(q * len(ordered)) - 1)]


# -- running the program -----------------------------------------------------------


class Bench:
    def __init__(self, workload: str, seed: int, trace: bool = False):
        from smsflow import harness
        from smsflow.config import default_config_path, load_config
        from smsflow.pipeline import build_pipeline

        import bench_gen

        self.workload = workload
        self.seed = seed
        self.harness = harness
        self.load_config = load_config
        self.config_path = default_config_path()
        self.build_pipeline = build_pipeline
        self.gen = bench_gen
        self.run_root = OUT / f"runs-{workload}-{seed}"
        self.probe = SpeedProbe(enabled=not trace)

    # -- set-up ------------------------------------------------------------------

    def configure(self, wl, delay_s: float | None = None):
        """load_config plus the generated customers (and fake models on llm-http).

        The models' round trip is ``LLM_DELAY_S`` unless ``delay_s`` is given.
        """
        clock = self.probe.clock
        t0 = clock()
        config = self.load_config(self.config_path)
        load_s = clock() - t0
        self.gen.extend_config(config, wl.customers)
        if self.workload == "llm-http":
            models = self.http_models(config, LLM_DELAY_S if delay_s is None else delay_s)
            config.build_models = lambda: models
        return config, load_s, clock() - t0

    def http_models(self, config, delay_s: float):
        from smsflow.llm import ChatCompletionModel

        return [
            ChatCompletionModel(
                spec.model_id,
                endpoint="in-process",
                model_name=f"fake-{spec.model_id}",
                transport=self.gen.FakeChatTransport(
                    spec.model_id, config.lexicon, config.cues, self.seed, delay_s,
                    malformed_rate=LLM_MALFORMED, unavailable_rate=LLM_UNAVAILABLE,
                ),
            )
            for spec in config.model_specs
        ]

    def setups(self, wl) -> list[tuple[float, float, float, float]]:
        """``SETUP_REPS`` timed set-ups, as a batch does them.

        Returns (setup, load, build, scale) per set-up, the scale being the
        host speed scale of the whole spell.
        """
        out = []
        with self.probe.span() as span:
            for _ in range(SETUP_REPS):
                config, load_s, pre_s = self.configure(wl)
                run_dir = self.fresh_run_dir() if self.workload == "campaign-disk" else None
                t0 = self.probe.clock()
                self.build_pipeline(config, seed=self.seed, add_keyword_rate=self.fault_rate,
                                    drop_keyword_rate=self.fault_rate, run_dir=run_dir)
                build_s = self.probe.clock() - t0
                out.append((pre_s + build_s, load_s, build_s))
        return [x + (span.scale,) for x in out]

    @property
    def fault_rate(self) -> float:
        return 0.0 if self.workload == "llm-http" else FAULT_RATE

    def fresh_run_dir(self) -> Path:
        path = self.run_root / "run"
        if path.exists():
            shutil.rmtree(path)
        return path

    # -- workloads ---------------------------------------------------------------

    def corpus(self, seconds: float):
        if self.workload == "campaign":
            return self.gen.campaign(self.seed, CAMPAIGN_SIZE)
        if self.workload == "campaign-disk":
            return self.gen.campaign(self.seed, DISK_CAMPAIGN_SIZE)
        return self.gen.llm_http(self.seed, max(1, round(LLM_RATE * seconds)))

    def measure(self, wl, seconds: float, tracers=(None,)) -> tuple[list[Phase], list]:
        """Run batches until ``seconds`` are used, one phase per tracer.

        Each round runs one batch per tracer (``None`` runs untraced), so
        with several tracers their batches alternate and a change of host
        speed during the run falls on all of them alike.  Another round
        starts only while it is expected to end within half a round of the
        measuring time.  Set-ups are timed before the first round, after the
        last, and after any round that ends a quarter of ``seconds`` or more
        after the previous set-ups, so that a slow spell of the host does
        not fall on all of them; returns the phases and the set-ups.
        """
        phases = [Phase() for _ in tracers]
        setups = self.setups(wl)
        gc.collect()
        t0 = last_setups = time.perf_counter()
        rounds = 0
        while True:
            for phase, tracer in zip(phases, tracers):
                if self.workload == "llm-http":
                    phase.batches.append(self.open_loop(wl, tracer))
                else:
                    phase.batches.append(self.batch(wl, tracer))
                gc.collect()
            rounds += 1
            now = time.perf_counter()
            done = (now - t0) * (1 + 0.5 / rounds) > seconds
            if done or now - last_setups >= seconds / 4:
                setups += self.setups(wl)
                last_setups = time.perf_counter()
            if done:
                return phases, setups

    def batch(self, wl, tracer=None, delay_s: float | None = None) -> Batch:
        """One campaign through ``harness.run_pipeline`` (plus the read-back on disk)."""
        from smsflow.harness import soundness_violations, summarize_run

        config, _, _ = self.configure(wl, delay_s)
        run_dir = self.fresh_run_dir() if self.workload == "campaign-disk" else None
        marks: dict = {}
        terminals: dict[str, list[float]] = {}
        ingests: list[float] = []
        harness = self.harness
        clock = self.probe.clock
        build, build_report = harness.build_pipeline, harness.build_report

        def hooked_build(*args, **kwargs):
            pipeline = build(*args, **kwargs)
            if tracer is not None:
                tracer.install(pipeline, config)
            _watch_terminals(pipeline.store, terminals, clock)
            ingest = pipeline.ingest

            def timed_ingest(phone, text):
                ingests.append(clock())
                return ingest(phone, text)

            pipeline.ingest = timed_ingest
            marks["pipeline"] = pipeline
            marks["start"] = clock()
            return pipeline

        report_fn = build_report if tracer is None else tracer.wrap("harness.report", build_report)

        def hooked_report(*args, **kwargs):
            marks["report_start"] = clock()
            report = report_fn(*args, **kwargs)
            marks["report_end"] = clock()
            return report

        with self.probe.span() as span:
            harness.build_pipeline, harness.build_report = hooked_build, hooked_report
            try:
                result = harness.run_pipeline(
                    config, list(wl.corpus), seed=self.seed, add_keyword_rate=self.fault_rate,
                    drop_keyword_rate=self.fault_rate, run_dir=run_dir,
                )
                written = clock()
                extra_problems = []
                if run_dir is not None:
                    summary = summarize_run(run_dir)
                    violations = soundness_violations(run_dir)
                    done = clock()
                    if violations:
                        extra_problems.append(f"soundness_violations on run dir: {violations[:3]}")
                    expected = {k: v for k, v in result.report["summary"]["outcomes"].items()
                                if k != "auth-rejected"}
                    if summary["outcomes"] != expected:
                        extra_problems.append(
                            f"summarize_run outcomes {summary['outcomes']} != report {expected}")
                else:
                    done = written
            finally:
                harness.build_pipeline, harness.build_report = build, build_report

        ref = span.at_reference
        start = ref(marks["start"])
        pipeline = marks["pipeline"]
        batch = self.finish(
            wl, config, pipeline, result.report, result.quiescent,
            {event: [ref(t) for t in times] for event, times in terminals.items()},
            due={}, default_due=start, window_s=ref(done) - start,
            report_s=ref(marks["report_end"]) - ref(marks["report_start"]),
            write_s=ref(written) - ref(marks["report_end"]) if run_dir is not None else None,
            readback_s=ref(done) - ref(written) if run_dir is not None else None,
            late_ms=[(ref(t) - start) * 1000 for t in ingests],
        )
        batch.problems += extra_problems
        batch.scale, batch.clock_s = span.scale, done - marks["start"]
        if run_dir is not None:
            batch.bytes_written = sum(p.stat().st_size for p in run_dir.rglob("*") if p.is_file())
            shutil.rmtree(run_dir)
        return batch

    def open_loop(self, wl, tracer) -> Batch:
        """Arrivals on a fixed schedule, whatever the pipeline is doing.

        One thread interleaves the generator with scheduler passes: before
        each pass it ingests every message whose due time has come.  Latency
        is timed from the due time, so a long pass delays the messages that
        arrive during it, and the generator's lateness is recorded.
        """
        config, _, _ = self.configure(wl)
        pipeline = self.build_pipeline(config, seed=self.seed)
        if tracer is not None:
            tracer.install(pipeline, config)
        terminals: dict[str, list[float]] = {}
        _watch_terminals(pipeline.store, terminals, time.perf_counter)

        corpus = wl.corpus
        n = len(corpus)
        interval = 1.0 / LLM_RATE
        entries, due, late_ms = [], {}, []
        step = pipeline.scheduler.step
        report_fn = self.harness.build_report
        if tracer is not None:
            report_fn = tracer.wrap("harness.report", report_fn)
        with cpus_kept_awake():
            t0 = time.perf_counter()
            i = 0
            while True:
                now = time.perf_counter()
                while i < n and t0 + i * interval <= now:
                    entry = corpus[i]
                    due_at = t0 + i * interval
                    late_ms.append((time.perf_counter() - due_at) * 1000)
                    event = pipeline.ingest(entry["phone"], entry["text"])
                    entries.append((entry, event))
                    if event is not None:
                        due[event.metadata.event_id] = due_at
                    i += 1
                if step():
                    continue
                if i >= n:
                    break
                time.sleep(max(0.0, t0 + i * interval - time.perf_counter()))
            quiescent = pipeline.run_to_quiescence()
            r0 = time.perf_counter()
            report = report_fn(pipeline, entries, self.seed, 0.0, 0.0, quiescent)
            done = time.perf_counter()
        return self.finish(
            wl, config, pipeline, report, quiescent, terminals, due=due, default_due=t0,
            window_s=done - t0, report_s=done - r0, write_s=None, readback_s=None,
            late_ms=late_ms,
        )

# -- correctness gate ------------------------------------------------------------

    def finish(self, wl, config, pipeline, report, quiescent, terminals, *, due, default_due,
               window_s, report_s, write_s, readback_s, late_ms) -> Batch:
        """Check one batch and collect its latencies.

        Requires quiescence, exactly one terminal step and no agent failure
        per accepted event, every pharmacy keyword verbatim in its SMS under
        the validator's tokenization, and outcome counts that add up.
        """
        from smsflow.renewal import tokens_of

        problems = []
        store = pipeline.store
        if not quiescent:
            problems.append("pipeline did not reach quiescence")
        pending = pipeline.pending_events()
        if pending:
            problems.append(f"{len(pending)} events pending, e.g. {pending[:3]}")

        latencies, errors = [], 0
        for event in pipeline.ingested:
            event_id = event.metadata.event_id
            history = store.get_history(event_id)
            n_terminal = sum(1 for r in history if r["terminal"])
            failed = any(r["note"].startswith("agent-failure") for r in history)
            if n_terminal != 1 or failed:
                errors += 1
                continue
            latencies.append((terminals[event_id][0] - due.get(event_id, default_due)) * 1000)
        if errors:
            problems.append(f"{errors} accepted events without exactly one clean terminal step")
        if len(pipeline.ingested) != wl.accepted:
            problems.append(f"accepted {len(pipeline.ingested)} messages, expected {wl.accepted}")

        t = time.perf_counter()
        for record in store.pharmacy.read_all():
            original = store.fetch_original(record["eventId"])
            if record["keyword"].lower() not in tokens_of(original, config.lexicon):
                problems.append(f"unsound pharmacy action {record}")
        if readback_s is None:
            readback_s = time.perf_counter() - t

        outcomes = dict(sorted(report["summary"]["outcomes"].items()))
        if sum(outcomes.values()) != len(wl.corpus):
            problems.append(f"outcomes {outcomes} do not sum to {len(wl.corpus)} messages")
        if outcomes.get("auth-rejected", 0) != wl.unknown:
            problems.append(f"auth-rejected {outcomes.get('auth-rejected', 0)} != {wl.unknown}")
        if "pending" in outcomes:
            problems.append("report lists pending messages")

        t = time.perf_counter()
        rendered = self.harness.render_report_json(report)
        self.harness.render_report_table(report)
        if write_s is None:  # in memory: rendering is all a report output costs
            write_s = time.perf_counter() - t
        digest = hashlib.sha256(rendered.encode("utf-8")).hexdigest()[:16]
        from bench_trace import retained_envelopes

        return Batch(
            offered=len(wl.corpus), accepted=len(pipeline.ingested), window_s=window_s,
            report_s=report_s,
            write_s=write_s, readback_s=readback_s, latencies_ms=latencies, late_ms=late_ms,
            errors=errors, digest=digest, outcomes=outcomes, problems=problems,
            retained=retained_envelopes(pipeline.pool),
        )


# Busy loop for one idle-priority process; it also ends when its parent is
# gone or after 170 s, so a killed benchmark cannot leave it behind.
_SPIN = (
    "import os, time\n"
    "os.nice(19)\n"
    "parent, end = os.getppid(), time.monotonic() + 170\n"
    "while os.getppid() == parent and time.monotonic() < end:\n"
    "    pass\n"
)


@contextmanager
def cpus_kept_awake():
    """Keep every CPU busy with idle-priority loops while the block runs.

    An idle vCPU of a virtual machine is halted, and while the shared host
    is busy, waking it again when a model round trip ends can take ten
    milliseconds or more.  Such wake-ups, not the pipeline, would then set
    the llm-http tail, and the p99 would follow the host's load.  The loops
    run at nice 19, so the benchmark preempts them whenever it is runnable.
    """
    n = min(len(os.sched_getaffinity(0)), 8)
    procs = [subprocess.Popen([sys.executable, "-c", _SPIN], stdin=subprocess.DEVNULL)
             for _ in range(n)]
    try:
        yield
    finally:
        for proc in procs:
            proc.kill()
        for proc in procs:
            proc.wait()


def _watch_terminals(store, sink: dict, clock) -> None:
    """Record the time each terminal step is recorded, per event."""
    record_step = store.record_step

    def watched(*args, **kwargs):
        record = record_step(*args, **kwargs)
        if record["terminal"]:
            sink.setdefault(record["eventId"], []).append(clock())
        return record

    store.record_step = watched


# -- metrics ------------------------------------------------------------------------


def end_to_end(phase: Phase, setups) -> dict[str, float]:
    """End-to-end metrics; set-ups and batches are scaled to the reference speed
    (the open loop of llm-http is not probed: its throughput is the arrival
    rate and its latency mostly fixed round trips)."""
    groups = latency_groups(phase.batches)
    return {
        "setup_s": statistics.median(x[0] * x[3] for x in setups),
        "throughput_msg_s": phase.throughput,
        "latency_p50_ms": statistics.median(percentile(g, 0.5) for g in groups),
        "latency_p99_ms": statistics.median(percentile(g, 0.99) for g in groups),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
    }


def trace_overhead(workload: str, untraced: Phase, traced: Phase) -> tuple[float, str]:
    """Traced / untraced time per message, from alternating batches.

    Batch workloads compare the batch window per message.  On the open loop
    throughput is pinned to the arrival rate, so the p50 latency is compared.
    """
    if workload == "llm-http":
        base = untraced.p50_ms
        return traced.p50_ms / base, f"traced / untraced p50 latency, base {base:.3f} ms"
    base = untraced.ms_per_msg
    return traced.ms_per_msg / base, f"traced / untraced batch ms per msg, base {base:.4f} ms"


def per_layer(workload: str, untraced: Phase, traced: Phase, setups, tracer,
              traced_peak_b: int) -> dict:
    """Per-layer metrics as name -> (value, unit, note on samples and base)."""
    from bench_trace import p50_us

    spans = tracer.per_name()  # a defaultdict: a name never called has no spans
    count = tracer.counts

    def n(name):
        return len(spans[name][0])

    def p50(name, selfs=False):
        return p50_us(spans[name][1 if selfs else 0])

    def per_event_p50(name):
        sums: dict[str, int] = {}
        for dur, event in zip(spans[name][0], spans[name][2]):
            sums[event] = sums.get(event, 0) + dur
        return p50_us(list(sums.values())), len(sums)

    def ratio(num, base):
        return num / base if base else 0.0

    window_s = sum(x.window_s for x in traced.batches)
    wall_ns = window_s * 1e9
    accepted = traced.accepted
    drains = n("pipeline.drain")
    fuzzy = tracer.outermost("fuzzy.")
    model_durations = spans["llm.extract"][0] + spans["llm.judge"][0]
    stage_us, stage_events = per_event_p50("llm")
    judge_us, judge_events = per_event_p50("llm.judge")
    verdicts = count["step.S004"]
    appends = spans["store.append"][0]
    b = untraced.batches
    late = [x for batch in b for x in batch.late_ms]
    overhead, overhead_note = trace_overhead(workload, untraced, traced)

    m = {
        "config.load_s": (statistics.median(x[1] for x in setups), "s", f"median of {len(setups)} set-ups"),
        "pipeline.build_s": (statistics.median(x[2] for x in setups), "s", f"median of {len(setups)} set-ups"),
        "pipeline.steps": (n("pipeline.step"), "count", "scheduler passes"),
        "pipeline.empty_poll_share": (ratio(count["drain.empty"], drains), "ratio", f"base {drains} drain_one calls"),
        "dispatch.envelopes": (n("dispatch"), "count", "dispatch calls"),
        "dispatch.self_us": (p50("dispatch", True), "us", f"p50 of {n('dispatch')}"),
        "pool.poll_us": (p50("pool.poll"), "us", f"p50 of {n('pool.poll')}"),
        "pool.retained_envelopes": (traced.batches[-1].retained, "count", "sum of head+1 after the last batch"),
        "pool.backlog_max": (tracer.backlog_max, "count", "max dispatcher lag at a scheduler pass"),
        "renewal.calls": (n("renewal"), "count", ""),
        "renewal.handle_us": (p50("renewal"), "us", f"p50 of {n('renewal')}"),
        "renewal.full_match_share": (ratio(count["decision:processDirect"], n("renewal")), "ratio", f"base {n('renewal')} parses"),
        "arbitration.calls": (n("arbitration"), "count", ""),
        "arbitration.handle_us": (p50("arbitration"), "us", f"p50 of {n('arbitration')}"),
        "arbitration.forward_share": (ratio(count["decision:forwardToLLM"], n("arbitration")), "ratio", f"base {n('arbitration')} decisions"),
        "fuzzy.calls": (len(fuzzy), "count", "outermost run/infer calls"),
        "fuzzy.infer_us": (p50_us(fuzzy), "us", f"p50 of {len(fuzzy)}"),
        "llm.calls": (n("llm"), "count", ""),
        "llm.stage_us": (stage_us, "us", f"p50 over {stage_events} events"),
        "llm.model_calls": (n("llm.extract") + n("llm.judge"), "count", "extract + judge"),
        "llm.model_call_us": (p50_us(model_durations), "us", "p50 over extract and judge"),
        "llm.model_wait_share": (ratio(sum(model_durations), wall_ns), "ratio", f"base {window_s:.3f} s traced windows"),
        "llm.failure_markers": (count["extraction-failure"], "count", ""),
        "llm.reprompts": (sum(getattr(t, "reprompts", 0) for t in tracer.transports), "count", ""),
        "validator.calls": (n("validator"), "count", ""),
        "validator.self_us": (p50("validator", True), "us", f"p50 of {n('validator')}"),
        "validator.judge_us": (judge_us, "us", f"p50 over {judge_events} events"),
        "validator.risk_calls": (len(tracer.outermost("fuzzy.risk")), "count", ""),
        "validator.discard_share": (ratio(count["discarded"], 2 * verdicts), "ratio", f"base 2 x {verdicts} verdicts"),
        "validator.retries": (count["retry"], "count", ""),
        "experts.calls": (n("experts"), "count", ""),
        "experts.handle_us": (p50("experts"), "us", f"p50 of {n('experts')}"),
        "experts.routed_items": (count["routed-to"], "count", ""),
        "tracking.calls": (n("tracking"), "count", ""),
        "tracking.handle_us": (p50("tracking"), "us", f"p50 of {n('tracking')}"),
        "store.appends": (len(appends), "count", ""),
        "store.append_us": (p50_us(appends), "us", f"p50 of {len(appends)}"),
        "store.append_share": (ratio(sum(appends), wall_ns), "ratio", f"base {window_s:.3f} s traced windows"),
        "store.steps_per_msg": (ratio(n("store.record_step"), accepted), "ratio", f"base {accepted} accepted"),
        "store.bytes_written": (statistics.median(x.bytes_written for x in traced.batches), "bytes", "median per batch"),
        "harness.report_s": (statistics.median(x.report_s for x in b), "s", f"median of {len(b)} batches"),
        "harness.report_us_per_msg": (statistics.median(x.report_s / x.offered for x in b) * 1e6, "us", f"base {b[0].offered} msgs/batch"),
        "harness.write_s": (statistics.median(x.write_s for x in b), "s", f"median of {len(b)} batches"),
        "harness.readback_s": (statistics.median(x.readback_s for x in b), "s", f"median of {len(b)} batches"),
        "bench.gen_late_p99_ms": (percentile(late, 0.99), "ms", f"{len(late)} arrivals, untraced"),
        "bench.trace_overhead": (overhead, "ratio", f"{overhead_note}; {len(b)} + {len(traced.batches)} alternating batches"),
        "mem.traced_peak_mb": (traced_peak_b / 2**20, "MB", "tracemalloc peak of one batch"),
    }
    return m


# -- entry point ----------------------------------------------------------------------


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return 2 if exc.code else 0
    _load_program()
    sys.path.insert(0, str(HERE))

    bench = Bench(args.workload, args.seed, bool(args.trace))
    try:
        if args.trace:
            result = run_traced(bench, args.seconds)
        else:
            result = run_untraced(bench, args.seconds)
    finally:
        shutil.rmtree(bench.run_root, ignore_errors=True)
    print(json.dumps(result))
    return 0 if result["correct"] else 1


def _describe(name: str, phases: list[Phase]) -> tuple[bool, int, int]:
    """Print the gate outcome and outcome mix; returns (correct, attempted, failed)."""
    batches = [b for p in phases for b in p.batches]
    problems = [f"batch {i}: {msg}" for i, b in enumerate(batches) for msg in b.problems]
    digests = sorted({b.digest for b in batches})
    if len(digests) != 1:
        problems.append(f"report digests differ across batches of one seed: {digests}")
    for msg in problems:
        print(f"gate: {msg}")
    attempted = sum(b.accepted for b in batches)
    failed = sum(b.errors for b in batches)
    print(f"{name}: batches={len(batches)} offered={sum(b.offered for b in batches)} "
          f"accepted={attempted} rejected_unknown_phone={sum(b.offered - b.accepted for b in batches)} "
          f"error_rate={failed / attempted if attempted else 0.0:.6f} ratio "
          f"report_digest={digests[0] if digests else '-'}")
    print(f"outcomes (last batch): {json.dumps(batches[-1].outcomes, sort_keys=True)}")
    return not problems, attempted, failed


def run_untraced(bench: Bench, seconds: float) -> dict:
    wl = bench.corpus(seconds)
    [phase], setups = bench.measure(wl, seconds)
    values = end_to_end(phase, setups)
    checked = [phase]
    if bench.workload == "llm-http":
        # A run holds one open loop, so its digest is compared with a replay
        # of the same corpus as one batch, round trips cut to zero: the
        # report must not depend on arrival timing.
        checked.append(Phase([bench.batch(wl, delay_s=0.0)]))
    correct, attempted, failed = _describe(bench.workload, checked)
    sizes = [len(g) for g in latency_groups(phase.batches)]
    beyond = [n - math.ceil(0.99 * n) for n in sizes]
    print(f"samples: latency groups={sizes} (beyond p99: {beyond}) setups={len(setups)} "
          f"batches={len(phase.batches)} "
          f"gen_late_p99_ms={percentile([x for b in phase.batches for x in b.late_ms], 0.99):.3f}")
    print(f"speed scale: batches {' '.join(f'{b.scale:.3f}' for b in phase.batches)}, set-ups "
          f"{' '.join(f'{x[3]:.3f}' for x in setups[::SETUP_REPS])}; as measured: throughput "
          f"{statistics.median(b.offered / (b.clock_s or b.window_s) for b in phase.batches):.6g} msg/s, "
          f"setup {statistics.median(x[0] for x in setups):.6g} s")
    for name, value in values.items():
        print(f"{name} = {value:.6g} {END_TO_END_UNITS[name]}")
    return {
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": END_TO_END_UNITS[k]} for k, v in values.items()},
    }


def run_traced(bench: Bench, seconds: float) -> dict:
    from bench_trace import Tracer

    # Two open loops per tracer at least, so that both sides have a median.
    wl = bench.corpus(seconds / 4)
    tracer = Tracer()
    (untraced, traced), setups = bench.measure(wl, seconds, tracers=(None, tracer))
    tracemalloc.start()
    try:
        tracemalloc.reset_peak()
        memory = bench.open_loop(wl, None) if bench.workload == "llm-http" else bench.batch(wl)
        traced_peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    correct, attempted, failed = _describe(bench.workload, [untraced, traced, Phase([memory])])
    metrics = per_layer(bench.workload, untraced, traced, setups, tracer, traced_peak)
    spans_path = OUT / f"spans-{bench.workload}.csv"
    tracer.write(spans_path)
    print(f"spans: {len(tracer.event)} written to {os.path.relpath(spans_path)}; "
          f"batches: untraced={len(untraced.batches)} traced={len(traced.batches)} tracemalloc=1")
    for name, (value, unit, note) in metrics.items():
        print(f"{name} = {value:.6g} {unit}" + (f"  ({note})" if note else ""))
    return {
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u, _) in metrics.items()},
    }


if __name__ == "__main__":
    raise SystemExit(main())
