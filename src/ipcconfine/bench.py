r"""Microbenchmarks for the resolve fast paths.

Times one resolve per call on each pipeline path and compares against a bare
dict lookup. Batches of calls are timed with ``time.perf_counter_ns`` and the
figure of merit is the median of batch means; ``min`` is reported as the
noise floor. The point of the exercise: with a hashed long list and an MRU
short list, per-resolve cost must not grow with the long-list size, and after
sealing the long list must not be read at all.

Paths:

* ``baseline``     membership probe on a plain dict
* ``global_hit``   name in the caller VM's global-object table
* ``short_hit``    name on the MRU short list
* ``long_hit``     first touch of a listed host object (short-list insert)
* ``rename_miss``  unlisted name renamed into the VM namespace
* ``post_seal_miss`` unlisted name after the flag is set
* ``reference_scan`` (opt-in) full linear scan in the reference oracle
"""

from __future__ import annotations

import json
import statistics
import time
from dataclasses import dataclass, field
from functools import partial

from .engine import ConfinementEngine, ReferenceEngine
from .errors import InvalidConfig
from .model import Intent, ProcessRef, Scope, VmId
from .model import PORT as _PORT_CATEGORY
from .model import SHARED_MEMORY as _SECTION_CATEGORY

__all__ = ["BenchConfig", "BenchResult", "path_timers", "run_bench"]

_VM_PROC = ProcessRef(pid=1, vm=VmId(1))

OPTIMIZED_PATHS = ("global_hit", "short_hit", "long_hit", "rename_miss", "post_seal_miss")

# host objects warmed onto the short list, and VM globals created, before
# the short_hit and global_hit paths cycle over them
SHORT_WARM_COUNT = 16
GLOBAL_POOL = 8


@dataclass(frozen=True)
class BenchConfig:
    long_list_size: int = 1000
    batch_size: int = 200
    batches: int = 5
    include_reference: bool = False

    def check(self):
        if self.long_list_size < 1 or self.batch_size < 1 or self.batches < 1:
            raise InvalidConfig("long_list_size, batch_size, batches must be positive")


@dataclass
class BenchResult:
    config: BenchConfig
    paths: dict = field(default_factory=dict)
    ratios: dict = field(default_factory=dict)
    post_seal_long_list_reads: int = 0
    long_list_structure: dict = field(default_factory=lambda: {
        "exact": "hash set", "patterns": "prefix set", "short": "ordered dict (MRU first)",
    })

    def to_dict(self) -> dict:
        return {
            "config": {
                "long_list_size": self.config.long_list_size,
                "batch_size": self.config.batch_size,
                "batches": self.config.batches,
                "short_warm_count": SHORT_WARM_COUNT,
                "global_pool": GLOBAL_POOL,
            },
            "paths": self.paths,
            "ratios_vs_baseline": self.ratios,
            "post_seal_long_list_reads": self.post_seal_long_list_reads,
            "long_list_structure": self.long_list_structure,
        }

    def to_json(self) -> str:
        return json.dumps(self.to_dict(), sort_keys=True, indent=2) + "\n"

    def text(self) -> str:
        lines = [
            f"long list: {self.config.long_list_size} entries "
            f"({self.config.batches} batches x {self.config.batch_size} calls)",
            f"{'path':<16} {'median ns':>10} {'min ns':>10} {'x baseline':>11}",
        ]
        for name, stats in self.paths.items():
            ratio = self.ratios.get(name)
            shown = f"{ratio:.2f}" if ratio is not None else "-"
            lines.append(f"{name:<16} {stats['median_ns']:>10.0f} "
                         f"{stats['min_ns']:>10.0f} {shown:>11}")
        lines.append(f"post-seal long-list reads: {self.post_seal_long_list_reads}")
        return "\n".join(lines) + "\n"


def _long_names(size: int) -> list[str]:
    return [rf"\bench\host-{i:06d}" for i in range(size)]


def _miss_names(size: int) -> list[str]:
    return [rf"\bench\priv-{i:06d}" for i in range(size)]


def _loaded_engine(long_names) -> ConfinementEngine:
    engine = ConfinementEngine()
    engine.load_long_list(long_names)
    return engine


def _time_batch(resolve, names) -> float:
    start = time.perf_counter_ns()
    for name in names:
        resolve(name)
    return (time.perf_counter_ns() - start) / len(names)


def _stats(batch_means) -> dict:
    return {
        "median_ns": statistics.median(batch_means),
        "mean_ns": statistics.fmean(batch_means),
        "min_ns": min(batch_means),
        "batches": len(batch_means),
    }


def path_timers(config: BenchConfig = BenchConfig()) -> tuple[dict, ConfinementEngine]:
    """One timer per path, in report order, and the sealed engine that the
    ``post_seal_miss`` timer resolves on.

    Each timer call times one batch and returns its mean ns per call. The
    engines are built and warmed here (``long_hit`` builds a fresh one per
    batch, outside the timed region), so the batches of several
    configurations can be interleaved.
    """
    config.check()
    long_names = _long_names(config.long_list_size)
    batch = min(config.batch_size, config.long_list_size)
    timers = {}

    def open_resolver(engine):
        def resolve(name):
            engine.resolve(_VM_PROC, name, _PORT_CATEGORY, Intent.OPEN)
        return resolve

    # baseline: dict membership on the same key population
    table = dict.fromkeys(long_names)
    probe = [long_names[i % len(long_names)] for i in range(batch)]
    timers["baseline"] = partial(_time_batch, table.__contains__, probe)

    # global_hit: the caller VM's global-object table resolves the name
    engine = _loaded_engine(long_names)
    globals_pool = [rf"\bench\global-{i:04d}" for i in range(GLOBAL_POOL)]
    for name in globals_pool:
        engine.resolve(_VM_PROC, name, _SECTION_CATEGORY, Intent.CREATE, Scope.GLOBAL)
    probe = [globals_pool[i % len(globals_pool)] for i in range(batch)]
    timers["global_hit"] = partial(_time_batch, open_resolver(engine), probe)

    # short_hit: warm a few host objects, then cycle over them
    engine = _loaded_engine(long_names)
    warm = long_names[: min(SHORT_WARM_COUNT, len(long_names))]
    for name in warm:
        engine.resolve(_VM_PROC, name, _PORT_CATEGORY, Intent.OPEN)
    probe = [warm[i % len(warm)] for i in range(batch)]
    timers["short_hit"] = partial(_time_batch, open_resolver(engine), probe)

    # long_hit: every call is a first touch, so each batch gets a fresh engine
    def long_hit() -> float:
        return _time_batch(open_resolver(_loaded_engine(long_names)), long_names[:batch])
    timers["long_hit"] = long_hit

    # rename_miss: unlisted names before the seal (no state is mutated)
    probe = _miss_names(batch)
    timers["rename_miss"] = partial(_time_batch, open_resolver(_loaded_engine(long_names)), probe)

    # post_seal_miss: same probe after the flag; the long list must stay cold
    sealed = _loaded_engine(long_names)
    sealed.seal_host_objects()
    timers["post_seal_miss"] = partial(_time_batch, open_resolver(sealed), probe)

    if config.include_reference:
        reference = ReferenceEngine()
        reference.load_long_list(long_names)
        def ref_resolve(name):
            reference.resolve(_VM_PROC, name, _PORT_CATEGORY, Intent.OPEN)
        timers["reference_scan"] = partial(_time_batch, ref_resolve, probe)
    return timers, sealed


def run_bench(config: BenchConfig = BenchConfig()) -> BenchResult:
    timers, sealed = path_timers(config)
    result = BenchResult(config=config)
    for name, timer in timers.items():
        result.paths[name] = _stats([timer() for _ in range(config.batches)])
    # the sealed engine made no resolve before its flag was set
    result.post_seal_long_list_reads = sealed.counters.long_list_reads

    base = result.paths["baseline"]["median_ns"]
    for name, stats in result.paths.items():
        result.ratios[name] = stats["median_ns"] / base if base else float("nan")
    return result
