#!/usr/bin/env python3
"""Layered end-to-end benchmark of ipcconfine.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a source checkout: the package is imported from that
checkout's ``src/`` and from nowhere else, and without it the run exits
with code 2. Every load is closed-loop: one process, one thread, and the
next operation starts only after the previous one returned.

Workloads, with inputs from ``inputs.py`` seeded by ``--seed``:

* ``replay_dual``: a 40k-event JSONL trace taken from text to report JSON
  (``parse_trace``, ``Replayer.run`` with the full-scan oracle in lockstep,
  ``ReplayReport.to_json``), so every layer runs, divergence records too.
* ``resolve_sealed``: direct ``ConfinementEngine.resolve`` calls on a
  100k-entry host table after warm-up and seal; the read-only path.

With ``--trace 0`` a run reports the end-to-end metrics:

* ``setup_s``: the median over the run of set-up samples. A sample is the
  fastest of ``SETUP_BURST`` set-ups made back to back, each a fresh import
  of the package plus, for ``replay_dual``, the replayer, or, for
  ``resolve_sealed``, the engine built, loaded, warmed and sealed;
* ``events_per_s``: trace events from JSONL text to report JSON per second
  on ``replay_dual``, resolve calls per second on ``resolve_sealed``;
* ``resolves_per_s`` and ``resolve_p50_us``: direct ``resolve`` calls on
  the workload's stream; on ``replay_dual`` that stream is the trace's own
  name resolutions, re-issued in order to a fresh engine;
* ``peak_rss_mb``: the process's peak resident memory.

Set-ups, timed passes and re-issued resolve passes take turns until
``--seconds`` have passed, and timings are floors over the passes (see
``Floors``). ``resolve_p99_us``, ``ops_failed_ratio`` and
``rss_before_setup_mb`` (the peak resident memory once the benchmark's own
inputs are made, before the first set-up) are printed and written to the
result file, but are not in the result line.

With ``--trace 1`` the run records spans around the package's public
callables (see ``spans.py``) for one pass and reports per-layer metrics
instead. Every output is checked against what the benchmark predicts from
its own inputs and, for recorded seeds, against ``digests.json``. The last
line of standard output is one JSON object; the full result, stamped with
the environment, is written to ``perfbench/results/``, and a traced run's
spans to ``perfbench/results/spans-<workload>.csv``.
"""

from __future__ import annotations

import argparse
import gc
import hashlib
import importlib
import json
import os
import platform
import resource
import statistics
import sys
import time
from pathlib import Path

import inputs
from spans import Tracer

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
RESULTS = BENCH_DIR / "results"
DIGESTS = BENCH_DIR / "digests.json"

WORKLOADS = ("replay_dual", "resolve_sealed")
MIN_ROUNDS = 3               # set-up plus timed passes, repeated until the time is up
SETUP_BURST = 3              # set-ups back to back per set-up sample; the fastest counts
REISSUES_PER_ROUND = 4       # re-issued resolve passes per replay pipeline pass
STREAMS_PER_ROUND = 2        # timed resolve-stream passes per set-up sample
UNTRACED_SHARE = 0.3         # of a traced run's seconds, spent untraced for the overhead ratio
CHUNK_EVENTS = 500           # trace events per timed parse or replay chunk
WINDOW = 1_000               # resolve calls per timed segment; its p99 has 10 calls beyond
SWEEP_SEALED_CALLS = 50_000
SWEEP_MISS_CALLS = 10_000
SWEEP_ROUNDS = 2
SWEEP_WINDOW = 2_000

KERNEL_OPS = ("create_object", "open_object", "close", "send_message", "register_window",
              "find_window", "create_remote_thread", "set_hook", "bind_socket")
COUNTERS = ("short_hits", "long_hits", "long_misses", "global_table_hits",
            "post_seal_long_skips", "host_bypass", "long_list_reads", "denials")

clock = time.perf_counter_ns


# ---------------------------------------------------------------------------
# the package under test
# ---------------------------------------------------------------------------

def import_package():
    """Import ``ipcconfine`` afresh from this checkout's ``src``."""
    if sys.path[0] != str(SRC):
        sys.path.insert(0, str(SRC))
    for name in [m for m in sys.modules if m == "ipcconfine" or m.startswith("ipcconfine.")]:
        del sys.modules[name]
    pkg = importlib.import_module("ipcconfine")
    if Path(pkg.__file__).resolve().parent != (SRC / "ipcconfine").resolve():
        raise SystemExit(f"ipcconfine was imported from {pkg.__file__}, not from {SRC}")
    return pkg


def resolve_args(pkg, calls) -> list[tuple]:
    """Turn ``(pid, name, category, create[, global_scope])`` tuples into
    ``resolve`` arguments built from this import of the package."""
    model = pkg.model
    procs = {pid: model.ProcessRef(pid, model.VmId(inputs.vm_of(pid)))
             for pid in (inputs.HOST_PID,) + inputs.VM_PIDS}
    categories = {c: model.IpcCategory.parse(c) for c in inputs.CATEGORIES}
    create, open_ = model.Intent.CREATE, model.Intent.OPEN
    global_, local = model.Scope.GLOBAL, model.Scope.LOCAL
    return [(procs[c[0]], c[1], categories[c[2]], create if c[3] else open_,
             global_ if c[4:5] == (True,) else local) for c in calls]


def build_engine(pkg, long_list, warm_args=(), seal: bool = True):
    engine = pkg.engine.ConfinementEngine()
    engine.load_long_list(long_list)
    for args in warm_args:
        engine.resolve(*args)
    if seal:
        engine.seal_host_objects()
    return engine


# ---------------------------------------------------------------------------
# measurement helpers
# ---------------------------------------------------------------------------

class Floors:
    """The fastest time of each segment of a repeated workload.

    A run repeats its stream or trace in passes, and each pass is timed in
    fixed segments. On a shared machine, spells of a few seconds in which
    other tenants slow this process by a third or more are common; over
    several passes, though, each segment meets a quieter moment at least
    once. So each figure is built from every segment's fastest pass, and
    segments are only ever compared with themselves. Slower drifts of the
    whole machine, over minutes, remain in the figures.
    """

    def __init__(self):
        self.best: dict = {}

    def add(self, segment, ns: int, latencies: list[int] | None = None) -> None:
        """Record one timing of ``segment``; ``latencies`` are its calls' ns,
        whose p50 and p99 are kept as floors of their own."""
        figures = [ns]
        if latencies:
            latencies.sort()
            count = len(latencies)
            figures += [count, latencies[count // 2], latencies[int(count * 0.99)]]
        best = self.best.get(segment)
        self.best[segment] = figures if best is None else [min(a, b) for a, b in zip(best, figures)]

    def add_calls(self, segment, latencies: list[int]) -> None:
        self.add(segment, sum(latencies), latencies)

    def total_ns(self) -> int:
        return sum(figures[0] for figures in self.best.values())

    def resolve_metrics(self) -> dict:
        """Calls per second over every segment's fastest pass, and the median
        over segments of each segment's lowest p50 and p99 call latency.

        The p99 is under ``ungated``: it is printed and written to the result
        file but left out of the result line, because on a shared machine it
        does not repeat from run to run within a tenth.
        """
        segments = list(self.best.values())
        calls = sum(f[1] for f in segments)
        return {
            "resolves_per_s": (calls / self.total_ns() * 1e9, "1/s"),
            "resolve_p50_us": (statistics.median(f[2] for f in segments) / 1e3, "us"),
            "ungated": {
                "resolve_p99_us": (statistics.median(f[3] for f in segments) / 1e3, "us"),
            },
        }


def timed_calls(resolve, args) -> list[int]:
    """Call ``resolve`` on each argument tuple in order; return each call's ns."""
    latencies = []
    append = latencies.append
    prev = clock()
    for caller, name, category, intent, scope in args:
        resolve(caller, name, category, intent, scope)
        now = clock()
        append(now - prev)
        prev = now
    return latencies


def plain_calls(resolve, args) -> int:
    """Elapsed ns of calling ``resolve`` on every argument tuple."""
    start = clock()
    for caller, name, category, intent, scope in args:
        resolve(caller, name, category, intent, scope)
    return clock() - start


def route_mismatches(resolve, args, routes) -> int:
    """Calls whose (route, effective name) differs from the prediction."""
    bad = 0
    for call, (route, effective) in zip(args, routes):
        outcome = resolve(*call)
        if outcome.route.value != route or outcome.effective_name != effective:
            bad += 1
    return bad


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


class Checks:
    """Operations attempted and operations whose output check failed."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.notes: list[str] = []

    def add(self, attempted: int, failed: int, note: str = ""):
        self.attempted += attempted
        self.failed += failed
        if failed and note:
            self.notes.append(note)


def set_up_sample(set_up_once, samples: list[int]):
    """Make ``SETUP_BURST`` set-ups back to back with ``set_up_once``, which
    returns (timed ns, what it set up); append the fastest time to
    ``samples`` and return what the last set-up made.

    A set-up is short enough for a brief slow spell of a shared machine to
    cover one whole; the fastest of a burst is its cost in a quiet moment.
    """
    times = []
    made = None
    for _ in range(SETUP_BURST):
        made = None  # release the previous set-up before making the next
        gc.collect()
        ns, made = set_up_once()
        times.append(ns)
    samples.append(min(times))
    return made


# ---------------------------------------------------------------------------
# replay workload
# ---------------------------------------------------------------------------

def recorded_digest(seed: int):
    try:
        table = json.loads(DIGESTS.read_text(encoding="utf-8"))
    except FileNotFoundError:
        return None
    return table.get("replay_dual", {}).get(str(seed))


def text_chunks(inp: inputs.ReplayInput) -> list[str]:
    lines = inp.lines
    return ["".join(lines[lo:lo + CHUNK_EVENTS]) for lo in range(0, len(lines), CHUNK_EVENTS)]


def pipeline(pkg, chunks: list[str], floors: Floors | None = None):
    """JSONL text to report JSON with the oracle in lockstep; returns
    (replayer, report, report JSON).

    Each text chunk goes through one ``parse_trace`` call (seq stays
    increasing within a chunk, so each validates alone), and the replayer
    is fed the parsed events through a generator that stamps the clock
    every ``CHUNK_EVENTS`` events. With ``floors``, each parse call, each
    replay chunk and the rest of the pass (replayer set-up, report, JSON)
    is a segment.
    """
    parse_trace = pkg.trace.parse_trace
    events = []
    for text in chunks:
        start = clock()
        parsed = parse_trace(text)
        elapsed = clock() - start
        if floors is not None:
            floors.add(("parse", len(events)), elapsed)
        events.extend(parsed)
    stamps = []

    def feed():
        for lo in range(0, len(events), CHUNK_EVENTS):
            stamps.append(clock())
            yield from events[lo:lo + CHUNK_EVENTS]
        stamps.append(clock())

    start = clock()
    replayer = pkg.trace.Replayer(dual=True)
    report = replayer.run(feed())
    ran = clock()
    out = report.to_json()
    end = clock()
    if floors is not None:
        for i, (a, b) in enumerate(zip(stamps, stamps[1:])):
            floors.add(("replay", i), b - a)
        floors.add("rest", (stamps[0] - start) + (ran - stamps[-1]) + (end - ran))
    return replayer, report, out


class ReplayCheck:
    """Checks one pipeline pass against the generator's predictions and the
    recorded report digest (or, for an unrecorded seed, the run's first)."""

    def __init__(self, inp: inputs.ReplayInput, recorded: dict | None):
        self.inp = inp
        self.recorded = recorded
        self.digest = recorded["report_sha256"] if recorded else None

    def __call__(self, checks: Checks, replayer, report, out: str) -> None:
        inp = self.inp
        digest = hashlib.sha256(out.encode()).hexdigest()
        if self.digest is None:
            self.digest = digest
        bad = sum(1 for exp, got in zip(inp.expected, replayer.outcomes)
                  if any(got.get(k) != v for k, v in exp.items()))
        reads_after_seal = (report.counters.long_list_reads
                            - replayer.seal_snapshot.counters.long_list_reads)
        whole_pass_wrong = (
            len(replayer.outcomes) != inp.event_count
            or digest != self.digest
            or len(report.divergences) != inp.divergences
            or (self.recorded is not None and self.recorded["divergences"] != inp.divergences)
            or reads_after_seal != 0
        )
        if whole_pass_wrong:
            bad = inp.event_count
        checks.add(inp.event_count, bad,
                   f"replay pass: {bad} events wrong (digest {digest[:12]}, "
                   f"{len(report.divergences)} divergences, {reads_after_seal} reads after seal)")


def reissue_pass(pkg, inp: inputs.ReplayInput, args, floors: Floors | None):
    """The trace's name resolutions, in order, on a fresh engine sealed where
    the trace seals. With ``floors`` the pass is timed in ``WINDOW``-call
    segments; without, its routes are checked. Returns the route mismatches
    and the engine's counters."""
    engine = build_engine(pkg, inp.long_list, seal=False)
    pre, post = args[:inp.seal_at], args[inp.seal_at:]
    if floors is None:
        bad = route_mismatches(engine.resolve, pre, inp.call_routes[:inp.seal_at])
        engine.seal_host_objects()
        bad += route_mismatches(engine.resolve, post, inp.call_routes[inp.seal_at:])
        return bad, engine.counters.to_dict()
    latencies = timed_calls(engine.resolve, pre)
    engine.seal_host_objects()
    latencies += timed_calls(engine.resolve, post)
    for lo in range(0, len(latencies), WINDOW):
        floors.add_calls(lo, latencies[lo:lo + WINDOW])
    return 0, engine.counters.to_dict()


def run_replay(seed: int, seconds: float, traced: bool) -> dict:
    inp = inputs.replay_input(seed)
    chunks = text_chunks(inp)
    inp.lines.clear()  # the chunks hold the text from here on
    check = ReplayCheck(inp, recorded_digest(seed))
    checks = Checks()
    result = {"sizes": {"events": inp.event_count, "resolves": len(inp.calls),
                        "long_list_entries": len(inp.long_list),
                        "predicted_divergences": inp.divergences}}
    rss_before_setup = peak_rss_mb()

    setup = []

    def set_up_once():
        """A fresh import of the package and a replayer."""
        start = clock()
        pkg = import_package()
        pkg.trace.Replayer(dual=True)
        return clock() - start, pkg

    pkg = set_up_sample(set_up_once, setup)

    def checked_pass(floors=None):
        gc.collect()
        replayer, report, out = pipeline(pkg, chunks, floors)
        check(checks, replayer, report, out)
        return replayer, report

    if traced:
        checked_pass()  # warm-up
        floors = Floors()
        deadline = clock() + seconds * UNTRACED_SHARE * 1e9
        while not floors.best or clock() < deadline:
            checked_pass(floors)
        tracer = Tracer()
        install(tracer, pkg)
        traced_floors = Floors()
        try:
            replayer, report = checked_pass(traced_floors)
        finally:
            tracer.uninstall()
        reads_after_seal = (report.counters.long_list_reads
                            - replayer.seal_snapshot.counters.long_list_reads)
        metrics = layer_metrics(
            tracer, checks, events=inp.event_count, counters=report.counters.to_dict(),
            reads_after_seal=reads_after_seal,
            outcome_errors=sum(1 for o in replayer.outcomes if "error" in o),
            divergences=len(report.divergences),
            overhead=traced_floors.total_ns() / floors.total_ns())
        metrics.update(sweeps(pkg, seed))
        tracer.write(RESULTS / "spans-replay_dual.csv")
        result.update(metrics=metrics, report_sha256=check.digest)
        return finish(result, checks)

    args = resolve_args(pkg, inp.calls)
    bad, checked_counters = reissue_pass(pkg, inp, args, None)
    checks.add(len(args), bad, "re-issued resolves: route mismatch")
    inp.call_routes.clear()  # later passes are checked by their counters

    # Set-ups, pipeline passes and re-issued resolves take turns for the
    # whole run, so that each meets the machine's quiet spells. Set-up
    # samples replace the package in sys.modules; the timed work keeps
    # using the first import.
    pipeline_floors, resolve_floors = Floors(), Floors()
    rounds = 0
    deadline = clock() + seconds * 1e9
    while rounds < MIN_ROUNDS or clock() < deadline:
        set_up_sample(set_up_once, setup)
        checked_pass(pipeline_floors)
        for _ in range(REISSUES_PER_ROUND):
            gc.collect()
            _, counters = reissue_pass(pkg, inp, args, resolve_floors)
            checks.add(len(args), 0 if counters == checked_counters else len(args),
                       "re-issued resolves: counters differ from the route-checked pass")
        rounds += 1
    rss = peak_rss_mb()

    metrics = resolve_floors.resolve_metrics()
    ungated = metrics.pop("ungated")
    ungated["rss_before_setup_mb"] = (rss_before_setup, "MB")
    result.update(
        metrics={
            "setup_s": (statistics.median(setup) / 1e9, "s"),
            "events_per_s": (inp.event_count / pipeline_floors.total_ns() * 1e9, "1/s"),
            **metrics,
            "peak_rss_mb": (rss, "MB"),
        },
        ungated=ungated,
        samples={"setup": len(setup), "pipeline_passes": rounds,
                 "pipeline_segments": len(pipeline_floors.best),
                 "resolve_passes": rounds * REISSUES_PER_ROUND,
                 "resolve_segments": len(resolve_floors.best)},
        report_sha256=check.digest,
        digest_recorded=check.recorded is not None,
    )
    return finish(result, checks)


# ---------------------------------------------------------------------------
# resolve workload
# ---------------------------------------------------------------------------

def run_resolve(seed: int, seconds: float, traced: bool) -> dict:
    inp = inputs.sealed_input(seed)
    long_list = inputs.long_list(inputs.table_exact(), inputs.table_prefixes())
    deltas = inputs.counter_deltas(inp.kinds)
    inp.kinds.clear()
    checks = Checks()
    result = {"sizes": {"long_list_entries": len(long_list), "stream_calls": len(inp.calls),
                        "warm_calls": len(inp.warm)}}
    rss_before_setup = peak_rss_mb()

    setup = []

    def set_up_once():
        """A fresh import, then the engine built, loaded, warmed and sealed
        (turning the warm-up inputs into arguments is not timed)."""
        start = clock()
        pkg = import_package()
        imported = clock()
        warm = resolve_args(pkg, inp.warm)
        built = clock()
        engine = build_engine(pkg, long_list, warm)
        return (imported - start) + (clock() - built), (pkg, engine)

    pkg, engine = set_up_sample(set_up_once, setup)
    args = resolve_args(pkg, inp.calls)

    def checked_stream(engine, run_stream) -> int:
        """Run the whole stream on ``engine`` with ``run_stream(engine)``,
        which returns the calls it found wrong (or None); return the
        long-list reads it made. Every call fails if the counters moved other
        than predicted, and so if the long list was read at all."""
        before = engine.counters.to_dict()
        bad = run_stream(engine) or 0
        after = engine.counters.to_dict()
        wrong = [k for k, v in deltas.items() if after[k] - before[k] != v]
        if wrong:
            bad = len(args)
        checks.add(len(args), bad, f"{bad} resolves wrong; counters off: {wrong}")
        return after["long_list_reads"] - before["long_list_reads"]

    reads_after_seal = checked_stream(
        engine, lambda engine: route_mismatches(engine.resolve, args, inp.routes))
    inp.routes.clear()  # later passes are checked by their counters

    if traced:
        rates = []
        deadline = clock() + seconds * UNTRACED_SHARE * 1e9
        while not rates or clock() < deadline:
            checked_stream(engine, lambda engine: rates.append(
                len(args) / plain_calls(engine.resolve, args)))
        engine = None
        warm = resolve_args(pkg, inp.warm)
        tracer = Tracer()
        install(tracer, pkg)
        traced_ns = []
        try:
            engine = build_engine(pkg, long_list, warm)  # so that set-up spans are recorded
            reads_after_seal = checked_stream(
                engine, lambda engine: traced_ns.append(plain_calls(engine.resolve, args)))
        finally:
            tracer.uninstall()
        metrics = layer_metrics(
            tracer, checks, events=0, counters=engine.counters.to_dict(),
            reads_after_seal=reads_after_seal, outcome_errors=0, divergences=0,
            overhead=statistics.median(rates) * traced_ns[0] / len(args))
        metrics.update(sweeps(pkg, seed))
        tracer.write(RESULTS / "spans-resolve_sealed.csv")
        result["metrics"] = metrics
        return finish(result, checks)

    def timed_stream(engine):
        for lo in range(0, len(args), WINDOW):
            floors.add_calls(lo, timed_calls(engine.resolve, args[lo:lo + WINDOW]))

    # Set-ups and timed passes take turns for the whole run. The passes of
    # a round run on the engine of the set-up sample just made; the previous
    # engine and its arguments are dropped first, so one table at a time is
    # alive.
    floors = Floors()
    deadline = clock() + seconds * 1e9
    rounds = 0
    while rounds < MIN_ROUNDS or clock() < deadline:
        pkg = engine = args = None
        pkg, engine = set_up_sample(set_up_once, setup)
        args = resolve_args(pkg, inp.calls)
        for _ in range(STREAMS_PER_ROUND):
            reads_after_seal += checked_stream(engine, timed_stream)
        rounds += 1
    rss = peak_rss_mb()

    metrics = floors.resolve_metrics()
    ungated = metrics.pop("ungated")
    ungated["rss_before_setup_mb"] = (rss_before_setup, "MB")
    result.update(
        metrics={
            "setup_s": (statistics.median(setup) / 1e9, "s"),
            "events_per_s": metrics["resolves_per_s"],
            **metrics,
            "peak_rss_mb": (rss, "MB"),
        },
        ungated=ungated,
        samples={"setup": len(setup), "stream_passes": rounds * STREAMS_PER_ROUND,
                 "resolve_segments": len(floors.best)},
        long_list_reads_after_seal=reads_after_seal,
    )
    return finish(result, checks)


# ---------------------------------------------------------------------------
# traced runs
# ---------------------------------------------------------------------------

def install(tracer: Tracer, pkg) -> None:
    """Wrap the public callables of each layer in span recorders."""
    trace, kernel, engine, model = pkg.trace, pkg.kernel, pkg.engine, pkg.model
    tracer.wrap(trace, "parse_trace", "trace.parse")
    tracer.wrap(trace, "validate_events", "trace.validate")
    tracer.wrap(trace.Replayer, "run", "trace.replay")
    tracer.wrap(trace.ReplayReport, "to_json", "trace.report_json")
    for op in KERNEL_OPS:
        tracer.wrap(kernel.SimKernel, op, f"kernel.{op}")
    for op in ("resolve", "access_decide", "dangerous_decide", "load_long_list",
               "seal_host_objects"):
        tracer.wrap(engine.ConfinementEngine, op, f"engine.{op}")
    tracer.wrap(engine.ReferenceEngine, "resolve", "oracle.resolve")
    for module in (engine, model):
        tracer.wrap(module, "rename", "model.rename")
        tracer.wrap(module, "check_object_name", "model.check_object_name")


def layer_metrics(tracer: Tracer, checks: Checks, *, events: int, counters: dict,
                  reads_after_seal: int, outcome_errors: int, divergences: int,
                  overhead: float) -> dict:
    spans = tracer.analyse()
    violations = spans.nesting_violations()
    checks.add(0, violations, f"{violations} spans nest wrongly")
    per_event = (lambda ns: ns / events / 1e3) if events else (lambda ns: 0.0)
    m = {
        "trace.parse.self_us_per_event": (per_event(spans.total_ns("trace.parse", own=True)), "us"),
        "trace.validate.us_per_event": (per_event(spans.total_ns("trace.validate")), "us"),
        "trace.replay.self_us_per_event": (per_event(spans.total_ns("trace.replay", own=True)), "us"),
        "trace.report_json.ms": (spans.mean_us("trace.report_json") / 1e3, "ms"),
    }
    for op in ("create_object", "open_object", "send_message", "create_remote_thread"):
        m[f"kernel.{op}.self_us"] = (spans.mean_us(f"kernel.{op}", own=True), "us")
    for op in ("close", "find_window", "bind_socket", "set_hook"):
        m[f"kernel.{op}.us"] = (spans.mean_us(f"kernel.{op}"), "us")
    for op in ("create_object", "open_object", "close", "send_message", "find_window",
               "create_remote_thread", "set_hook", "bind_socket"):
        m[f"kernel.{op}.calls"] = (spans.calls(f"kernel.{op}"), "count")
    m["kernel.outcome_errors"] = (outcome_errors, "count")

    resolves = spans.calls("engine.resolve")
    m["engine.resolve.self_us_p50"] = (spans.quantile_us("engine.resolve", 0.50, own=True), "us")
    m["engine.resolve.us_p99"] = (spans.quantile_us("engine.resolve", 0.99), "us")
    m["engine.resolve.calls"] = (resolves, "count")
    m["engine.load_long_list.ms"] = (spans.mean_us("engine.load_long_list") / 1e3, "ms")
    m["engine.access_decide.us"] = (spans.mean_us("engine.access_decide"), "us")
    m["engine.dangerous_decide.us"] = (spans.mean_us("engine.dangerous_decide"), "us")
    for name in COUNTERS:
        m[f"engine.{name}"] = (counters[name], "count")
    m["engine.long_list_reads_after_seal"] = (reads_after_seal, "count")
    looked_up = (counters["short_hits"] + counters["long_hits"] + counters["long_misses"]
                 + counters["post_seal_long_skips"])
    m["engine.short_hit_ratio"] = (counters["short_hits"] / looked_up if looked_up else 0.0, "ratio")

    m["model.rename.us"] = (spans.mean_us("model.rename"), "us")
    m["model.rename.calls"] = (spans.calls("model.rename"), "count")
    checked = spans.children_under("model.check_object_name", "engine.resolve",
                                   stop=("oracle.resolve", "engine.load_long_list"))
    m["model.check_object_name.calls_per_resolve"] = (checked / resolves if resolves else 0.0, "ratio")
    m["oracle.resolve.us_per_call"] = (spans.mean_us("oracle.resolve"), "us")
    m["oracle.resolve.calls"] = (spans.calls("oracle.resolve"), "count")
    m["oracle.divergences"] = (divergences, "count")
    m["tracing.overhead_ratio"] = (overhead, "ratio")
    return m


def sweeps(pkg, seed: int) -> dict:
    """Resolve cost against table size after the seal, and private-miss cost
    against pattern count before it, both untraced."""

    def ratio(slow, fast, args):
        """Median window time on ``slow`` over that on ``fast``; both engines
        run each window back to back, in alternating order."""
        times = {id(slow): [], id(fast): []}
        for r in range(SWEEP_ROUNDS):
            for w, lo in enumerate(range(0, len(args), SWEEP_WINDOW)):
                part = args[lo:lo + SWEEP_WINDOW]
                for engine in ((slow, fast) if (r + w) % 2 else (fast, slow)):
                    times[id(engine)].append(plain_calls(engine.resolve, part))
        return statistics.median(times[id(slow)]) / statistics.median(times[id(fast)])

    exact, prefixes = inputs.table_exact(), inputs.table_prefixes()
    sealed_inp = inputs.sealed_input(seed, SWEEP_SEALED_CALLS)
    warm = resolve_args(pkg, sealed_inp.warm)
    small = build_engine(pkg, inputs.long_list(exact[:inputs.SWEEP_SMALL_LIST], prefixes), warm)
    large = build_engine(pkg, inputs.long_list(exact, prefixes), warm)
    list_ratio = ratio(large, small, resolve_args(pkg, sealed_inp.calls))
    small = large = None

    miss_args = resolve_args(pkg, inputs.private_misses(seed, SWEEP_MISS_CALLS))
    few = build_engine(pkg, inputs.long_list(exact, prefixes[:inputs.SWEEP_FEW_PATTERNS]), seal=False)
    many = build_engine(pkg, inputs.long_list(exact, prefixes), seal=False)
    return {
        "engine.sealed_cost_ratio_list_100k_vs_1k": (list_ratio, "ratio"),
        "engine.miss_cost_ratio_patterns_256_vs_16": (ratio(many, few, miss_args), "ratio"),
    }


# ---------------------------------------------------------------------------
# results
# ---------------------------------------------------------------------------

def git_commit() -> str | None:
    """The checked-out commit, read from ``.git`` without leaving the checkout."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text(encoding="utf-8").strip()
    except OSError:
        return None
    if not head.startswith("ref: "):
        return head
    ref = head[5:]
    try:
        return (git / ref).read_text(encoding="utf-8").strip()
    except OSError:
        pass
    try:
        for line in (git / "packed-refs").read_text(encoding="utf-8").splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def source_sha256() -> str:
    digest = hashlib.sha256()
    for path in sorted((SRC / "ipcconfine").rglob("*.py")):
        digest.update(path.relative_to(SRC).as_posix().encode() + b"\0")
        digest.update(path.read_bytes())
    return digest.hexdigest()


def environment() -> dict:
    return {
        "python": platform.python_version(),
        "implementation": platform.python_implementation(),
        "platform": platform.platform(),
        "cpu_count": os.cpu_count(),
        "commit": git_commit(),
        "source_sha256": source_sha256(),
    }


def finish(result: dict, checks: Checks) -> dict:
    result["attempted"] = checks.attempted
    result["failed"] = checks.failed
    result["ops_failed_ratio"] = checks.failed / checks.attempted if checks.attempted else 0.0
    result["correct"] = checks.failed == 0
    result["check_notes"] = checks.notes[:20]
    return result


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=float)
    parser.add_argument("--trace", required=True, type=int, choices=(0, 1))
    opts = parser.parse_args(argv)
    if opts.seconds <= 0:
        parser.error("--seconds must be positive")
    if not (SRC / "ipcconfine" / "__init__.py").is_file():
        print(f"error: no ipcconfine package under {SRC}", file=sys.stderr)
        return 2
    RESULTS.mkdir(exist_ok=True)

    runner = run_replay if opts.workload == "replay_dual" else run_resolve
    wall = time.monotonic()
    result = runner(opts.seed, opts.seconds, bool(opts.trace))
    result = {"workload": opts.workload, "seed": opts.seed, "seconds": opts.seconds,
              "trace": opts.trace, "wall_s": time.monotonic() - wall,
              "environment": environment(), **result}
    path = RESULTS / f"{opts.workload}-seed{opts.seed}-trace{opts.trace}.json"
    path.write_text(json.dumps(result, indent=2, sort_keys=True) + "\n", encoding="utf-8")

    print(f"{opts.workload} seed={opts.seed} trace={opts.trace} sizes={result['sizes']}")
    for name, (value, unit) in {**result["metrics"], **result.get("ungated", {})}.items():
        print(f"  {name:<44} {value:>14.6g} {unit}")
    print(f"  {'ops_failed_ratio':<44} {result['ops_failed_ratio']:>14.6g} ratio "
          f"({result['failed']}/{result['attempted']})")
    for note in result["check_notes"]:
        print(f"  check failed: {note}")
    print(json.dumps({
        "correct": result["correct"],
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in result["metrics"].items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
