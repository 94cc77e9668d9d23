"""Interleaved benchmark pairs: a parent revision against the working tree.

    python3 tools/bench_pairs.py --parent REV --pairs N

Exports REV with ``git archive`` into a temporary directory.  For every
workload in ``BENCHMARK.json`` and each seed i = 1..N it runs the
benchmark command (``perfbench/run.py --workload W --trace 0 --seed i``)
once in the export and once in the working tree, alternating which side
runs first.  Both sides compile ``src/`` from source on every import, as
in a fresh checkout: bytecode is neither read from nor written to the
trees' ``__pycache__`` directories.

For each workload and end-to-end metric it prints the parent's median
and quartiles, the change's median, the ratio change / parent, how many
pairs the change won, and PASS or FAIL against the metric's bound: FAIL
when the change's median is worse than the parent's by more than the
bound, or when any run was not correct.  A passing metric whose median
beats the parent's by more than the bound is marked PASS GAIN.  The
export is deleted on exit.  Exits 1 if any metric fails.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def export(rev: str, into: Path) -> Path:
    """The tree of ``rev`` written under ``into``."""
    tree = into / "parent"
    tree.mkdir()
    done = subprocess.run(
        ["git", "archive", "--format=tar", rev], cwd=ROOT, capture_output=True
    )
    if done.returncode != 0:
        raise SystemExit(f"git archive {rev} failed: {done.stderr.decode().strip()}")
    archive = done.stdout
    subprocess.run(["tar", "-x", "-C", str(tree)], input=archive, check=True)
    return tree


def run_once(tree: Path, command: list, workload: str, seed: int, env: dict) -> dict:
    """The JSON result of one benchmark run in ``tree``."""
    argv = command + ["--workload", workload, "--trace", "0", "--seed", str(seed)]
    done = subprocess.run(argv, cwd=tree, env=env, capture_output=True, text=True)
    lines = done.stdout.strip().splitlines()
    if done.returncode != 0 or not lines:
        raise SystemExit(
            f"{' '.join(argv)} in {tree} exited {done.returncode}:\n{done.stderr}"
        )
    return json.loads(lines[-1])


def quartiles(values: list) -> tuple:
    if len(values) < 2:
        return values[0], values[0]
    q = statistics.quantiles(values, n=4)
    return q[0], q[2]


def compare(metric: dict, parent: list, change: list) -> bool:
    """Print one metric's row; True when it passes its bound."""
    name, higher = metric["name"], metric["better"] == "higher"
    p = [run["metrics"][name]["value"] for run in parent]
    c = [run["metrics"][name]["value"] for run in change]
    pm, cm = statistics.median(p), statistics.median(c)
    ratio = cm / pm if pm else float("inf")
    bound = metric["bound"]
    ok = ratio >= 1 - bound if higher else ratio <= 1 + bound
    gain = ratio > 1 + bound if higher else ratio < 1 - bound
    wins = sum((b > a) if higher else (b < a) for a, b in zip(p, c))
    q1, q3 = quartiles(p)
    print(
        f"  {name:16s} parent {pm:10.4g} [{q1:.4g}, {q3:.4g}]  change {cm:10.4g}"
        f"  ratio {ratio:6.3f}  wins {wins}/{len(p)}  bound {bound}"
        f"  {'PASS' if ok else 'FAIL'}{' GAIN' if gain else ''}"
    )
    return ok


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--parent", required=True, help="git revision to compare against")
    parser.add_argument("--pairs", type=int, default=3, help="seed pairs per workload")
    args = parser.parse_args(argv)
    if args.pairs < 1:
        parser.error("--pairs must be at least 1")
    declared = json.loads((ROOT / "BENCHMARK.json").read_text())
    all_pass = True
    with tempfile.TemporaryDirectory(prefix="bench-pairs-") as tmp:
        parent_tree = export(args.parent, Path(tmp))
        env = dict(
            os.environ,
            PYTHONDONTWRITEBYTECODE="1",
            PYTHONPYCACHEPREFIX=str(Path(tmp) / "no-bytecode"),
        )
        for workload in [w["name"] for w in declared["workloads"]]:
            print(f"{workload}: {args.pairs} pairs against {args.parent}", flush=True)
            runs = {"parent": [], "change": []}
            for seed in range(1, args.pairs + 1):
                sides = [("parent", parent_tree), ("change", ROOT)]
                if seed % 2 == 0:
                    sides.reverse()
                for side, tree in sides:
                    runs[side].append(
                        run_once(tree, declared["command"], workload, seed, env)
                    )
                values = [
                    f"{name} {runs['parent'][-1]['metrics'][name]['value']:.4g}"
                    f" -> {runs['change'][-1]['metrics'][name]['value']:.4g}"
                    for name in [m["name"] for m in declared["end_to_end"]]
                ]
                print(f"  seed {seed} ({sides[0][0]} first): " + ", ".join(values))
            correct = all(run["correct"] for side in runs.values() for run in side)
            print(f"  every run correct: {correct}")
            all_pass &= correct
            for metric in declared["end_to_end"]:
                all_pass &= compare(metric, runs["parent"], runs["change"])
            sys.stdout.flush()
    return 0 if all_pass else 1


if __name__ == "__main__":
    sys.exit(main())
