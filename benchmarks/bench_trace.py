"""Spans around calls into each smsflow layer, recorded from outside the program.

The tracer replaces bound methods on live pipeline objects with timing
wrappers (``agent.handle = tracer.wrap("renewal", agent.handle)``); nothing
under ``src/`` knows about it.  A span has a name, start, end, parent span
and event id; spans of one event share the id.  Spans stay in memory during
the run and are written out at the end.  Self time is a span's duration
minus the time its child spans cover.
"""
from __future__ import annotations

import statistics
from array import array
from collections import Counter, defaultdict
from pathlib import Path
from time import perf_counter_ns

from smsflow.messages import AGENTS_TOPIC, INCOMING_TOPIC, OUTBOUND_TOPIC

AGENT_LAYERS = {
    "RenewalAgent": "renewal",
    "EvaluatorAgent": "arbitration",
    "LlmAgent": "llm",
    "ValidatorAgent": "validator",
    "RouterAgent": "experts",
    "MessageTrackingAgent": "tracking",
}
FUZZY_SYSTEMS = ("importance_system", "action_system", "risk_system")
STORE_LOGS = ("steps", "originals", "outbound_sms", "pharmacy", "bookings", "answers", "auth_failures")


def _event_of_first_arg(args) -> str:
    return args[0] if args and isinstance(args[0], str) else ""


class Tracer:
    """In-memory span recorder plus the counters read at the same boundaries."""

    def __init__(self):
        self._names: dict[str, int] = {}
        self.name_list: list[str] = []
        self.span_name = array("H")
        self.start = array("q")
        self.end = array("q")
        self.parent = array("q")
        self.child_ns = array("q")
        self.event: list[str] = []
        self._stack: list[int] = []
        self.counts: Counter = Counter()
        self.backlog_max = 0
        self.transports: list = []
        self.t0 = perf_counter_ns()

    # -- recording -----------------------------------------------------------

    def wrap(self, name: str, fn, event_of=None, on_result=None):
        """Timing wrapper for ``fn`` recording one span per call."""
        name_id = self._names.setdefault(name, len(self._names))
        if name_id == len(self.name_list):
            self.name_list.append(name)
        stack = self._stack

        def traced(*args, **kwargs):
            parent = stack[-1] if stack else -1
            if event_of is not None:
                event = event_of(args)
            else:
                event = self.event[parent] if parent >= 0 else ""
            idx = len(self.event)
            self.span_name.append(name_id)
            self.parent.append(parent)
            self.child_ns.append(0)
            self.start.append(0)
            self.end.append(0)
            self.event.append(event)
            stack.append(idx)
            start = perf_counter_ns()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = perf_counter_ns()
                stack.pop()
                self.start[idx] = start
                self.end[idx] = end
                if parent >= 0:
                    self.child_ns[parent] += end - start
            if on_result is not None:
                on_result(result)
            return result

        return traced

    def patch(self, obj, attr: str, name: str, **kw) -> None:
        setattr(obj, attr, self.wrap(name, getattr(obj, attr), **kw))

    # -- installing on a pipeline ---------------------------------------------

    def install(self, pipeline, config) -> None:
        """Wrap every layer boundary of a freshly built pipeline."""
        count = self.counts
        dispatchers = [s for s in pipeline.scheduler.sources if hasattr(s, "registry")]
        lag_subs = [d.subscription for d in dispatchers]
        pool = pipeline.pool

        def after_step(_progressed):
            lag = max(pool.lag(s) for s in lag_subs)
            if lag > self.backlog_max:
                self.backlog_max = lag

        def after_drain(progressed):
            if not progressed:
                count["drain.empty"] += 1

        self.patch(pipeline.scheduler, "step", "pipeline.step", on_result=after_step)
        for source in pipeline.scheduler.sources:
            self.patch(source, "drain_one", "pipeline.drain", on_result=after_drain)
            self.patch(source.subscription, "poll", "pool.poll")

        def dispatch_event(args):
            meta = args[0].payload.get("metadata") or {}
            count["step." + str(meta.get("stepId"))] += 1
            return meta.get("eventId") or ""

        seen = set()
        for d in dispatchers:
            self.patch(d, "dispatch", "dispatch", event_of=dispatch_event)
            for qualifier, agent in d.registry.agents.items():
                if id(agent) in seen:
                    continue
                seen.add(id(agent))
                self.patch(agent, "handle", AGENT_LAYERS.get(qualifier, qualifier))
                if qualifier == "LlmAgent":
                    for model in agent.models:
                        self.patch(model, "extract", "llm.extract")
                        self.patch(model, "judge", "llm.judge")
                        transport = getattr(model, "_transport", None)
                        if transport is not None:
                            self.transports.append(transport)
                            model._transport = self.wrap("llm.transport", transport)

        for attr in FUZZY_SYSTEMS:
            system = getattr(config, attr)
            label = attr.split("_")[0]
            self.patch(system, "run", f"fuzzy.{label}.run")
            self.patch(system, "infer", f"fuzzy.{label}.infer")

        store = pipeline.store

        def after_record(record):
            note = record["note"]
            head = note.split(":", 1)[0]
            if head in ("decision", "discarded", "extraction-failure", "routed-to"):
                count[head if head != "decision" else note] += 1
            elif note == "retry-requested":
                count["retry"] += 1

        self.patch(store, "record_step", "store.record_step",
                   event_of=_event_of_first_arg, on_result=after_record)
        for name in STORE_LOGS:
            self.patch(getattr(store, name), "append", "store.append")
        wrapped_queues = set()
        queue = store.queue

        def traced_queue(name):
            log = queue(name)
            if id(log) not in wrapped_queues:
                wrapped_queues.add(id(log))
                self.patch(log, "append", "store.append")
            return log

        store.queue = traced_queue

    # -- analysis -------------------------------------------------------------

    def per_name(self) -> dict[str, tuple[list[int], list[int], list[str]]]:
        """name -> (durations_ns, self_ns, event ids), one entry per span."""
        out: dict = defaultdict(lambda: ([], [], []))
        names, start, end, child = self.name_list, self.start, self.end, self.child_ns
        for idx, name_id in enumerate(self.span_name):
            dur = end[idx] - start[idx]
            durs, selfs, events = out[names[name_id]]
            durs.append(dur)
            selfs.append(dur - child[idx])
            events.append(self.event[idx])
        return out

    def outermost(self, prefix: str) -> list[int]:
        """Durations of spans named ``prefix*`` whose parent is not one of them."""
        names = self.name_list
        match = {i for i, n in enumerate(names) if n.startswith(prefix)}
        out = []
        for idx, name_id in enumerate(self.span_name):
            if name_id in match:
                p = self.parent[idx]
                if p < 0 or self.span_name[p] not in match:
                    out.append(self.end[idx] - self.start[idx])
        return out

    def write(self, path: Path) -> None:
        """Write spans as CSV: span,name,start_us,end_us,parent,event (times from t0)."""
        path.parent.mkdir(parents=True, exist_ok=True)
        names, t0 = self.name_list, self.t0
        with path.open("w", encoding="utf-8") as fh:
            fh.write("span,name,start_us,end_us,parent,event\n")
            for idx, name_id in enumerate(self.span_name):
                fh.write(
                    f"{idx},{names[name_id]},{(self.start[idx] - t0) / 1000:.1f},"
                    f"{(self.end[idx] - t0) / 1000:.1f},{self.parent[idx]},{self.event[idx]}\n"
                )


def retained_envelopes(pool) -> int:
    """Envelopes still held by the pool's topic logs (sum of head + 1)."""
    return sum(pool.head(t) + 1 for t in (INCOMING_TOPIC, AGENTS_TOPIC, OUTBOUND_TOPIC))


def p50_us(values_ns) -> float:
    return statistics.median(values_ns) / 1000 if values_ns else 0.0
