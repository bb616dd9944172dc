"""Command-line entry point: run experiments and print their tables.

Usage::

    python -m repro.experiments.cli --list
    python -m repro.experiments.cli table1 figure3
    python -m repro.experiments.cli --all
    python -m repro.experiments.cli --all --markdown > results.md
    python -m repro.experiments.cli scaling --workers 4
    python -m repro.experiments.cli section5 messages --json > results.json

``--workers N`` is forwarded to experiments whose ``run`` accepts it
(the batched-sweep ones: section5, messages, scaling, churn) and
executes their sweep instances on a warm N-process pool, with results
bit-identical to the serial run.  ``--replay {incremental,scratch}``
is forwarded the same way (section5, selfstab, messages) and selects
the replay strategy of the history-simulation / self-stabilising
machines — results are bit-identical, only wall-clock changes.  An
experiment whose ``run`` does not take a given flag runs without it,
and one stderr line per experiment names the flags it ignored (stdout
is unchanged).  ``--json`` emits every table as a machine-readable
record (one JSON array over all experiments run) for plotting.
"""

from __future__ import annotations

import argparse
import importlib
import inspect
import json
import sys
from typing import List, Optional

from repro import obs
from repro.experiments import EXPERIMENT_MODULES
from repro.experiments.common import ExperimentTable
from repro._util.memo import REPLAY_MODES
from repro.simulator.faults import FAULT_KINDS

__all__ = ["main"]

# run() parameter -> the command-line flag that sets it.
_FLAGS = {"n_workers": "--workers", "replay": "--replay", "fault_kinds": "--fault-kinds"}


def _run_one(
    name: str,
    n_workers: Optional[int],
    replay: Optional[str] = None,
    fault_kinds: Optional[List[str]] = None,
) -> List[ExperimentTable]:
    module = importlib.import_module(EXPERIMENT_MODULES[name])
    accepted = inspect.signature(module.run).parameters
    given = {"n_workers": n_workers, "replay": replay, "fault_kinds": fault_kinds}
    kwargs = {k: v for k, v in given.items() if v is not None and k in accepted}
    ignored = [
        _FLAGS[k] for k, v in given.items() if v is not None and k not in accepted
    ]
    if ignored:
        print(f"{name}: ignoring {', '.join(ignored)}", file=sys.stderr)
    result = module.run(**kwargs)
    return result if isinstance(result, list) else [result]


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro-experiments",
        description="Regenerate the tables and figures of Åstrand & Suomela (SPAA 2010).",
    )
    parser.add_argument("experiments", nargs="*", help="experiment names")
    parser.add_argument("--all", action="store_true", help="run every experiment")
    parser.add_argument("--list", action="store_true", help="list experiment names")
    parser.add_argument(
        "--markdown", action="store_true", help="emit markdown instead of ASCII"
    )
    parser.add_argument(
        "--json", action="store_true",
        help="emit one JSON array of table records (machine-readable)",
    )
    parser.add_argument(
        "--workers", type=int, default=None,
        help="worker processes for experiments that sweep (omitted = serial)",
    )
    parser.add_argument(
        "--replay", choices=list(REPLAY_MODES), default=None,
        help="replay strategy for history-simulation / self-stabilising "
        "experiments (results identical; default: incremental)",
    )
    parser.add_argument(
        "--fault-kinds", default=None, metavar="KIND[,KIND...]",
        help="comma-separated fault kinds for the self-stabilisation "
        f"experiment (subset of {FAULT_KINDS[1:]}; default: all)",
    )
    return parser


def main(argv: List[str] | None = None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)

    if args.list:
        for name, module in EXPERIMENT_MODULES.items():
            print(f"{name:10s} {module}")
        return 0

    names = list(EXPERIMENT_MODULES) if args.all else args.experiments
    if not names:
        parser.print_help()
        return 2
    unknown = [n for n in names if n not in EXPERIMENT_MODULES]
    if unknown:
        print(f"unknown experiments: {unknown}", file=sys.stderr)
        print(f"known: {sorted(EXPERIMENT_MODULES)}", file=sys.stderr)
        return 2

    fault_kinds = None
    if args.fault_kinds is not None:
        fault_kinds = [k for k in args.fault_kinds.split(",") if k.strip()]
        bad = [k for k in fault_kinds if k not in FAULT_KINDS or k == "none"]
        if bad:
            print(
                f"unknown fault kinds: {bad}; expected a subset of "
                f"{FAULT_KINDS[1:]}",
                file=sys.stderr,
            )
            return 2

    records = []
    for name in names:
        started = obs.clock()
        tables = _run_one(name, args.workers, args.replay, fault_kinds)
        elapsed = obs.clock() - started
        if args.json:
            for table in tables:
                record = table.to_dict()
                record["experiment"] = name
                record["wall_seconds"] = elapsed
                records.append(record)
            continue
        for table in tables:
            print(table.to_markdown() if args.markdown else table.render())
            print()
        print(f"({name} completed in {elapsed:.1f}s)\n")
    if args.json:
        print(json.dumps(records, indent=2))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
