"""Every metric of every workload, untraced and traced, in one table.

    python3 perfbench/report.py [--seed N] [--seconds S] [--workloads a,b]

Runs ``run.py`` twice per workload, each time in a fresh process: with
``--trace 0`` for the end-to-end metrics and ``--trace 1`` for the
per-layer ones.  Prints one row per workload with each end-to-end metric,
its unit and sample count, the traced run's ``jobs_per_s`` next to the
untraced one as the tracing overhead, and then every per-layer metric with
one column per workload.
"""

import argparse
import json
import subprocess
import sys
from pathlib import Path

import jobs

RUN = Path(__file__).resolve().parent / "run.py"


def run(workload: str, seed: int, seconds: int, traced: bool) -> tuple:
    """(result JSON, {metric: (unit, note)}) of one run.py process."""
    proc = subprocess.run(
        [sys.executable, str(RUN), "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", "1" if traced else "0"],
        capture_output=True, text=True, check=True,
    )
    lines = proc.stdout.strip().splitlines()
    notes = {}
    for line in lines[:-1]:
        if line.startswith("  FAILED"):
            print(f"{workload}: {line.strip()}")
        elif line.startswith("  "):
            name, _value, unit, *note = line.split(maxsplit=3)
            notes[name] = (unit, note[0] if note else "")
    return json.loads(lines[-1]), notes


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=int, default=25)
    parser.add_argument("--workloads", default=",".join(jobs.POOLS))
    args = parser.parse_args()
    workloads = args.workloads.split(",")

    layers = {}
    for workload in workloads:
        plain, notes = run(workload, args.seed, args.seconds, False)
        traced, _ = run(workload, args.seed, args.seconds, True)
        layers[workload] = traced["metrics"]
        print(f"{workload}: attempted {plain['attempted']}, failed {plain['failed']},"
              f" correct {plain['correct']}")
        for name, (unit, note) in notes.items():
            value = plain["metrics"].get(name, {}).get("value")
            if value is None:  # failed_share: printed, not a JSON metric
                value = plain["failed"] / plain["attempted"]
            print(f"  {name:16s} {value:>12.6g} {unit:6s} {note}")
        untraced_rate = plain["metrics"]["jobs_per_s"]["value"]
        traced_rate = traced["metrics"]["trace.jobs_per_s"]["value"]
        print(f"  tracing overhead: jobs_per_s {traced_rate:.4g} traced vs"
              f" {untraced_rate:.4g} untraced ({1 - traced_rate / untraced_rate:+.1%})")

    print()
    print(f"{'per-layer metric':52s} {'unit':6s} " + " ".join(f"{w:>16s}" for w in workloads))
    first = layers[workloads[0]]
    for name, entry in first.items():
        cells = " ".join(f"{layers[w][name]['value']:>16.6g}" for w in workloads)
        print(f"{name:52s} {entry['unit']:6s} {cells}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
