#!/usr/bin/env python3
"""Record the replay report digests that later runs must reproduce.

    python3 perfbench/record_digests.py FIRST_SEED LAST_SEED

For each seed in the inclusive range, replays the seed's trace with the
oracle in lockstep, checks every outcome against the generator's
predictions, and stores the sha256 of the report JSON and the divergence
count in ``perfbench/digests.json``. Existing entries for other seeds are
kept. Run it only on a commit whose reports are meant to be the reference: a
later run whose seed is recorded fails every event of a pass whose report
differs.
"""

from __future__ import annotations

import json
import sys

import inputs
from run import DIGESTS, Checks, ReplayCheck, import_package, pipeline, text_chunks


def main(argv) -> int:
    first, last = int(argv[1]), int(argv[2])
    try:
        table = json.loads(DIGESTS.read_text(encoding="utf-8"))
    except FileNotFoundError:
        table = {}
    pkg = import_package()
    for seed in range(first, last + 1):
        inp = inputs.replay_input(seed)
        check = ReplayCheck(inp, recorded=None)
        checks = Checks()
        replayer, report, out = pipeline(pkg, text_chunks(inp))
        check(checks, replayer, report, out)
        if checks.failed:
            print(f"seed {seed}: {checks.notes}", file=sys.stderr)
            return 1
        entry = {"report_sha256": check.digest, "divergences": len(report.divergences)}
        table.setdefault("replay_dual", {})[str(seed)] = entry
        print(f"seed {seed}: {check.digest[:12]} {entry['divergences']} divergences")
    write_table(table)
    return 0


def write_table(table: dict) -> None:
    """Write the digest table with one line per seed."""
    blocks = []
    for workload in sorted(table):
        seeds = sorted(table[workload].items(), key=lambda kv: int(kv[0]))
        rows = ",\n".join(f"    {json.dumps(seed)}: {json.dumps(entry)}" for seed, entry in seeds)
        blocks.append(f"  {json.dumps(workload)}: {{\n{rows}\n  }}")
    DIGESTS.write_text("{\n" + ",\n".join(blocks) + "\n}\n", encoding="utf-8")


if __name__ == "__main__":
    sys.exit(main(sys.argv))
