"""In-memory span recording around public callables, and self-time analysis.

A span is (name, start, end, parent). Spans are kept in flat arrays while
the traced code runs and are written out only when the run ends. The
program's source is never touched: ``Tracer.wrap`` replaces an attribute of
a module or class with a recording wrapper, and ``Tracer.uninstall`` puts
every original back.
"""

from __future__ import annotations

import functools
import time
from array import array


class Tracer:
    """Records a span for every call of the callables it wraps."""

    def __init__(self):
        self.names: list[str] = []
        self.name_ids = array("H")
        self.parents = array("q")
        self.starts = array("q")
        self.ends = array("q")
        self._stack = [-1]
        self._installed: list[tuple] = []

    def wrap(self, owner, attr: str, span: str) -> None:
        """Record a span named ``span`` around every call of ``owner.attr``."""
        original = getattr(owner, attr)
        if span not in self.names:
            self.names.append(span)
        name_id = self.names.index(span)
        name_ids, parents, starts, ends = self.name_ids, self.parents, self.starts, self.ends
        stack = self._stack
        clock = time.perf_counter_ns

        @functools.wraps(original)
        def traced(*args, **kwargs):
            index = len(starts)
            name_ids.append(name_id)
            parents.append(stack[-1])
            ends.append(0)
            stack.append(index)
            starts.append(clock())
            try:
                return original(*args, **kwargs)
            finally:
                ends[index] = clock()
                stack.pop()

        setattr(owner, attr, traced)
        self._installed.append((owner, attr, original))

    def uninstall(self) -> None:
        while self._installed:
            owner, attr, original = self._installed.pop()
            setattr(owner, attr, original)

    def analyse(self) -> "SpanTable":
        return SpanTable(self)

    def write(self, path) -> None:
        """Write every span as a CSV row: id, parent, name, start_ns, end_ns."""
        names = self.names
        with open(path, "w", encoding="utf-8") as f:
            f.write("id,parent,name,start_ns,end_ns\n")
            for i, (nid, parent, start, end) in enumerate(
                    zip(self.name_ids, self.parents, self.starts, self.ends)):
                f.write(f"{i},{parent},{names[nid]},{start},{end}\n")


class SpanTable:
    """Durations and self times (duration minus the time direct children
    cover) of recorded spans, grouped by name."""

    def __init__(self, tracer: Tracer):
        self.names = tracer.names
        self.name_ids = tracer.name_ids
        self.parents = tracer.parents
        count = len(tracer.starts)
        self.duration = [e - s for s, e in zip(tracer.starts, tracer.ends)]
        covered = [0] * count
        for i, parent in enumerate(self.parents):
            if parent >= 0:
                covered[parent] += self.duration[i]
        self.self_time = [d - c for d, c in zip(self.duration, covered)]
        self._by_name: dict[str, list[int]] = {name: [] for name in self.names}
        for i, nid in enumerate(self.name_ids):
            self._by_name[self.names[nid]].append(i)

    def nesting_violations(self) -> int:
        """Spans whose self time is negative or exceeds their parent's
        duration; a correct recording has none."""
        bad = 0
        for i, parent in enumerate(self.parents):
            own = self.self_time[i]
            if own < 0 or (parent >= 0 and own > self.duration[parent]):
                bad += 1
        return bad

    def indices(self, name: str) -> list[int]:
        return self._by_name.get(name, [])

    def calls(self, name: str) -> int:
        return len(self.indices(name))

    def total_ns(self, name: str, own: bool = False) -> int:
        values = self.self_time if own else self.duration
        return sum(values[i] for i in self.indices(name))

    def mean_us(self, name: str, own: bool = False) -> float:
        calls = self.calls(name)
        return self.total_ns(name, own) / calls / 1e3 if calls else 0.0

    def quantile_us(self, name: str, q: float, own: bool = False) -> float:
        values = self.self_time if own else self.duration
        picked = sorted(values[i] for i in self.indices(name))
        if not picked:
            return 0.0
        return picked[min(len(picked) - 1, int(q * len(picked)))] / 1e3

    def children_under(self, child: str, ancestor: str, stop: tuple[str, ...] = ()) -> int:
        """Spans named ``child`` whose nearest ancestor among ``ancestor`` and
        ``stop`` is named ``ancestor``."""
        names, name_ids, parents = self.names, self.name_ids, self.parents
        count = 0
        for i in self.indices(child):
            parent = parents[i]
            while parent >= 0:
                pname = names[name_ids[parent]]
                if pname == ancestor:
                    count += 1
                    break
                if pname in stop:
                    break
                parent = parents[parent]
        return count
