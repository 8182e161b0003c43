#!/usr/bin/env python3
"""Is the benchmark steady enough for its own bounds?

Runs every workload (or ``--workload NAME``) ``--runs`` times, each with
another seed, through the same command line the driver uses, and prints
for each end-to-end metric the interquartile distance as a share of the
median next to the metric's bound — for the reported value (at reference
host speed) and, for comparison, for the value as measured.  A benchmark
whose own run-to-run spread exceeds a bound cannot resolve a regression
of that size.

    python perfbench/steady.py [--workload NAME] [--runs 10] [--seconds 15]
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
for entry in (str(ROOT / "src"), str(ROOT)):
    if entry not in sys.path:
        sys.path.insert(0, entry)

from perfbench import OUT, metrics, stats  # noqa: E402
from perfbench.workloads import WORKLOADS  # noqa: E402


def one_run(workload: str, seed: int, seconds: float) -> dict:
    """The run's ``--record`` entry: reported and measured values, host
    speed, validity flags.  Every entry stays in ``out/steady.history.jsonl``
    (yardstick passes and iteration walls included) for a closer look."""
    record = OUT / "steady.history.jsonl"
    started = time.perf_counter()
    done = subprocess.run(
        [sys.executable, str(ROOT / "perfbench" / "run.py"),
         "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", "0", "--record", str(record)],
        cwd=ROOT, capture_output=True, text=True,
    )
    if done.returncode != 0:
        sys.stderr.write(done.stdout + done.stderr)
        raise SystemExit(f"{workload} seed {seed} exited {done.returncode}")
    if done.stderr:
        sys.stderr.write(done.stderr)  # a run that was started over says so here
    entry = json.loads(record.read_text().splitlines()[-1])
    return {**entry["workloads"][workload], "run_s": time.perf_counter() - started}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS))
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--seconds", type=float, default=15)
    parser.add_argument("--first-seed", type=int, default=1)
    args = parser.parse_args(argv)

    names = [args.workload] if args.workload else list(WORKLOADS)
    steady = True
    for name in names:
        results = [
            one_run(name, args.first_seed + i, args.seconds) for i in range(args.runs)
        ]
        print(f"{name}: {args.runs} runs, seeds {args.first_seed}.."
              f"{args.first_seed + args.runs - 1}")
        run_s = [r["run_s"] for r in results]
        print(f"  whole run, set-up and verification included: median "
              f"{statistics.median(run_s):.1f} s, longest {max(run_s):.1f} s")
        speeds = [r["host_speed"] for r in results]
        print(f"  host_speed               median {statistics.median(speeds):>12.4f} "
              f"       spread {stats.spread(speeds):6.1%}")
        for metric in metrics.END_TO_END:
            values = [r["end_to_end"][metric.name] for r in results]
            spread = stats.spread(values)
            measured = stats.spread([r["measured"][metric.name] for r in results])
            flag = ""
            if metric.name != "setup_s" and spread > metric.bound:
                flag, steady = "  EXCEEDS BOUND", False
            elif metric.name != "setup_s" and spread > metric.bound / 3:
                flag = "  (above a third of the bound)"
            print(
                f"  {metric.name:<24} median {statistics.median(values):>12.6g} "
                f"{metric.unit:<6} spread {spread:6.1%}  (as measured {measured:6.1%})  "
                f"bound {metric.bound:4.0%}{flag}"
            )
        for index, result in enumerate(results):
            for condition in result["invalid"]:
                print(f"  seed {args.first_seed + index}: INVALID: {condition}")
        print("  values:", json.dumps(
            {"host_speed": [round(speed, 4) for speed in speeds],
             **{m.name: [round(r["end_to_end"][m.name], 4) for r in results]
                for m in metrics.END_TO_END}}
        ), flush=True)
    return 0 if steady else 1


if __name__ == "__main__":
    sys.exit(main())
