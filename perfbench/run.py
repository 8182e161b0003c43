#!/usr/bin/env python3
"""perfbench: the one command.

Driver form (what ``BENCHMARK.json`` names)::

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

prints every metric by name with its unit, then — as the last line of
stdout — one JSON object ``{"correct", "attempted", "failed",
"metrics"}`` holding the end-to-end metrics (``--trace 0``) or the
per-layer metrics (``--trace 1``).

Human form::

    python perfbench/run.py --all [--seed N] [--trace] [--record PATH]

runs all four workloads (each untraced, then traced with ``--trace``).
Exit status is non-zero on any verification mismatch.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import sys
import traceback
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent

DEFAULT_SEED = 2
DEFAULT_SECONDS = 15
#: How often a run is started before its death is the benchmark's.
ATTEMPTS = 2


def _bootstrap() -> None:
    """Put the program under test and this package on ``sys.path``; with
    no program there is nothing to measure, so exit without a result."""
    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        sys.stderr.write(
            f"perfbench: no program to measure: {ROOT / 'src' / 'repro'} is missing\n"
        )
        raise SystemExit(2)
    for entry in (str(ROOT / "src"), str(ROOT)):
        if entry not in sys.path:
            sys.path.insert(0, entry)


def run_one(name: str, seed: int, seconds: float, traced: bool, smoke: bool):
    """One run of one workload, in a scratch directory of its own.

    A run that *dies* — the program under test's process is gone (the
    shared host kills processes when it runs out of memory), a socket
    wedges — is started over once, from scratch, with the traceback on
    stderr: 92 runs in a row must not hinge on one killed process.  Wrong
    output is not an exception and is never retried.
    """
    from perfbench import OUT
    from perfbench.workloads import WORKLOADS

    for attempt in range(ATTEMPTS):
        workdir = OUT / f"work-{os.getpid()}-{name}"
        shutil.rmtree(workdir, ignore_errors=True)
        workdir.mkdir(parents=True)
        try:
            return WORKLOADS[name].run(seed, seconds, traced, workdir, smoke=smoke)
        except Exception:
            if attempt + 1 == ATTEMPTS:
                raise
            traceback.print_exc()
            sys.stderr.write(f"perfbench: {name} died (above); starting it over\n")
        finally:
            shutil.rmtree(workdir, ignore_errors=True)


def main(argv=None) -> int:
    _bootstrap()
    from perfbench import history
    from perfbench.report import report, result_line
    from perfbench.workloads import WORKLOADS

    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    which = parser.add_mutually_exclusive_group(required=True)
    which.add_argument("--workload", choices=sorted(WORKLOADS))
    which.add_argument("--all", action="store_true",
                       help="run every workload")
    which.add_argument("--list", action="store_true",
                       help="print the workload registry and exit")
    which.add_argument("--compare", metavar="PATH",
                       help="compare the last two entries of a --record file")
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=DEFAULT_SECONDS,
                        help="how long to measure per run")
    parser.add_argument("--trace", nargs="?", type=int, const=1, default=0,
                        choices=(0, 1),
                        help="1: traced run reporting per-layer metrics")
    parser.add_argument("--record", metavar="PATH",
                        help="append one host-stamped JSON line of every metric")
    parser.add_argument("--smoke", action="store_true",
                        help="~1/20-size inputs (plumbing check, not a measurement)")
    args = parser.parse_args(argv)

    if args.list:
        for workload in WORKLOADS.values():
            print(f"{workload.name}: {workload.why}")
        return 0
    if args.compare:
        print(history.compare_last_two(Path(args.compare)))
        return 0

    outcomes = []
    if args.workload:
        outcome = run_one(
            args.workload, args.seed, args.seconds, bool(args.trace), args.smoke
        )
        outcomes.append(outcome)
        print(report(outcome))
    else:
        for name in WORKLOADS:
            for traced in ([False, True] if args.trace else [False]):
                outcome = run_one(name, args.seed, args.seconds, traced, args.smoke)
                outcomes.append(outcome)
                print(report(outcome), flush=True)
    if args.record:
        history.append(Path(args.record), args.seed, outcomes)
    ok = all(o.correct and o.failed == 0 for o in outcomes)
    if args.workload:
        print(result_line(outcomes[0]))
    else:
        print(json.dumps({"correct": ok, "runs": len(outcomes)}))
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
