"""Command line front end.

Subcommands:

* ``replay``    run a JSONL trace, check its expect clauses
* ``scenario``  build a bundled or random trace, then replay it
* ``inspect``   replay a trace and dump the final engine state
* ``validate``  parse and validate a trace without running it

Exit codes: 0 success, 1 assertion or divergence failure, 2 bad input.
Set ``IPCCONFINE_LOG`` to error, warn, info, or debug to control logging.
"""

from __future__ import annotations

import argparse
import json
import logging
import os
import sys

from .errors import ConfinementError, ParseError, ReplayError, ValidationError
from .trace import (
    Replayer,
    TraceParams,
    fixture_rpcss,
    fixture_three_iis,
    generate_random_trace,
    parse_trace,
    serialize_trace,
)

_LOG_LEVELS = {"error": logging.ERROR, "warn": logging.WARNING,
               "info": logging.INFO, "debug": logging.DEBUG}


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="ipcconfine",
        description="IPC confinement simulator for OS-level virtual machines",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    replay_p = sub.add_parser("replay", help="replay a JSONL trace file")
    replay_p.add_argument("trace", help="path to the trace (JSONL)")
    _add_replay_options(replay_p)

    scenario_p = sub.add_parser("scenario", help="build and replay a scenario")
    scenario_p.add_argument("name", choices=("rpcss", "three-iis", "random"))
    scenario_p.add_argument("--seed", type=int, default=0, help="random scenario seed")
    defaults = TraceParams()
    scenario_p.add_argument("--events", type=int, default=defaults.event_count)
    scenario_p.add_argument("--vms", type=int, default=defaults.vm_count)
    scenario_p.add_argument("--procs", type=int, default=defaults.process_count)
    scenario_p.add_argument("--pool", type=int, default=defaults.name_pool_size,
                            help="name pool size")
    scenario_p.add_argument("--host-fraction", type=float, default=defaults.host_fraction)
    scenario_p.add_argument("--global-fraction", type=float, default=defaults.global_fraction)
    scenario_p.add_argument("--seal-at", type=int, default=None,
                            help="events before the seal (default: half)")
    scenario_p.add_argument("--constrained", action="store_true",
                            help="keep the random trace oracle-equivalent")
    scenario_p.add_argument("--save-trace", metavar="PATH",
                            help="write the generated trace as JSONL")
    _add_replay_options(scenario_p)

    inspect_p = sub.add_parser("inspect", help="replay and dump final engine state")
    inspect_p.add_argument("trace", help="path to the trace (JSONL)")

    validate_p = sub.add_parser("validate", help="check a trace without running it")
    validate_p.add_argument("trace", help="path to the trace (JSONL)")

    return parser


def _add_replay_options(parser):
    parser.add_argument("--dual-oracle", action="store_true",
                        help="compare every create and open with the full-scan oracle; "
                             "only a VM caller's outcomes other than VmGlobal can "
                             "differ, so only those are compared, with one scan per "
                             "distinct name and VM")
    parser.add_argument("--report", metavar="PATH", help="write the replay report JSON")


def _read_events(path: str):
    with open(path, "rb") as fh:
        data = fh.read()
    try:
        text = data.decode("utf-8")
    except UnicodeDecodeError as exc:
        # the line that holds the first bad byte, counted as parse_trace counts lines
        line = len((data[:exc.start].decode("utf-8") + "_").splitlines())
        raise ParseError(line, f"not valid UTF-8: {exc.reason}") from None
    return parse_trace(text)


def _run_events(events, args, bindings_table=False) -> int:
    replayer = Replayer(dual=args.dual_oracle)
    report = replayer.run(events)
    if args.report:
        with open(args.report, "w", encoding="utf-8") as fh:
            fh.write(report.to_json())
    print(f"replayed {report.events_run} events: "
          f"{report.assertions_passed} assertions passed, "
          f"{len(report.assertions_failed)} failed, "
          f"{len(report.divergences)} divergences")
    for failure in report.assertions_failed:
        for diff in failure["diffs"]:
            print(f"  seq {failure['seq']}: {diff['field']} expected "
                  f"{diff['expected']!r}, got {diff['actual']!r}")
    for div in report.divergences:
        print(f"  seq {div['seq']}: {div['name']} engine={div['engine']['route']} "
              f"reference={div['reference']['route']}")
    if bindings_table:
        print(f"{'vm':<6} {'alias ip':<12} {'port':>5}")
        for binding in replayer.kernel.bindings:
            ip, port = binding.effective
            print(f"{str(binding.owner.vm):<6} {ip:<12} {port:>5}")
    return 0 if report.ok else 1


def cmd_replay(args) -> int:
    return _run_events(_read_events(args.trace), args)


def cmd_scenario(args) -> int:
    if args.name == "rpcss":
        events = fixture_rpcss()
    elif args.name == "three-iis":
        events = fixture_three_iis()
    else:
        seal_at = args.events // 2 if args.seal_at is None else args.seal_at
        params = TraceParams(
            vm_count=args.vms,
            process_count=args.procs,
            name_pool_size=args.pool,
            host_fraction=args.host_fraction,
            global_fraction=args.global_fraction,
            event_count=args.events,
            seal_position=seal_at,
        )
        events = generate_random_trace(args.seed, params, constrained=args.constrained)
    if args.save_trace:
        with open(args.save_trace, "w", encoding="utf-8") as fh:
            fh.write(serialize_trace(events))
    return _run_events(events, args, bindings_table=args.name == "three-iis")


def cmd_inspect(args) -> int:
    events = _read_events(args.trace)
    replayer = Replayer(dual=False)
    report = replayer.run(events)
    snapshot = replayer.engine.snapshot()
    print(json.dumps(snapshot.to_dict(), sort_keys=True, indent=2))
    return 0 if report.ok else 1


def cmd_validate(args) -> int:
    events = _read_events(args.trace)
    print(f"OK ({len(events)} events)")
    return 0


_COMMANDS = {
    "replay": cmd_replay,
    "scenario": cmd_scenario,
    "inspect": cmd_inspect,
    "validate": cmd_validate,
}


def main(argv=None) -> int:
    level = _LOG_LEVELS.get(os.environ.get("IPCCONFINE_LOG", "warn").lower())
    logging.basicConfig(level=level if level is not None else logging.WARNING,
                        format="%(levelname)s %(name)s: %(message)s")
    args = _build_parser().parse_args(argv)
    try:
        return _COMMANDS[args.command](args)
    except (ParseError, ValidationError, ReplayError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except ConfinementError as exc:
        print(f"error: {exc.code}: {exc}", file=sys.stderr)
        return 2


def entry() -> None:
    sys.exit(main())


if __name__ == "__main__":
    entry()
