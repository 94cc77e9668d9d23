"""orbichar job benchmark: whole CLI jobs, timed from outside.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --smoke
    python3 perfbench/run.py --write-reference

One client runs jobs in a closed loop: each job is an ``orbichar`` argv run
in this process through ``orbichar.cli.main`` with its output captured,
and the next starts when it returns.  The process is fresh, so the
program's module caches start empty; reuse comes only from the job mix.

A run makes ``round(S / PASS_SECONDS)`` passes over the
workload's job pool (see ``jobs.py``), each pass in its own order drawn
from the seed, so every run does the same work.  Set-up -- importing
``orbichar`` from ``src/`` and generating the jobs and dataset files -- is
repeated ``SETUP_REPEATS`` times and its median reported as ``setup_s``.
After the timed phase every distinct output goes through the correctness
gate (``gate.py``).

With ``--trace 0`` the run reports the end-to-end metrics.  With
``--trace 1`` it runs the same jobs with the span recorder of ``spans.py``
installed and reports the per-layer metrics, writing the spans to
``perfbench/out/``.  Text lines name each metric with its unit and sample
count; the last line of standard output is one JSON object.

``--smoke`` runs a handful of jobs per workload through the gate with the
recorder installed and fails if any wrapper lost its binding or a metric
named in ``BENCHMARK.json`` is missing.  ``--write-reference`` runs every
pool job once and rewrites ``reference.json`` from the outputs.
"""

import argparse
import contextlib
import importlib
import io
import json
import math
import os
import resource
import shutil
import statistics
import sys
import time
from pathlib import Path

import gate
import jobs
import spans

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"

SETUP_REPEATS = 7
# Seconds per pass over any of the pools, roughly, on a 2-core x86-64 VM
# (the first point-tower pass, with cold caches, takes longer); sizes the
# run so that --seconds 25 measures about 20 to 30 seconds of jobs.
PASS_SECONDS = 5.0
# No job starts later than this after launch, so a slow run still ends
# well inside three minutes.
HARD_LIMIT_S = 140.0
TAIL_PERCENTILES = (99.9, 99.0, 95.0, 90.0, 75.0, 50.0)

SMOKE_JOBS = {
    "explicit-wreath": (
        "verify main --complex S0-swap --m 2 --order 3 --workers 2",
        "verify macdonald --complex S0-swap --order 3 --workers 2",
        "wreath centralizers --group Z3 --n 3 --workers 2",
        "euler --complex circle(4) --group D6 --gamma Z^2 --workers 2",
    ),
    "point-tower": (
        "verify main --complex point --group Z3 --m 4 --order 5",
        "verify exp --complex point --group S4 --order 20",
        "wreath classes --group D4 --n 6",
    ),
    "hodge-series": (
        "verify hodge --complex point-Z2 --order 8",
        "verify hodge --order 7 --complex @hodge-d",
        "verify jcount --n 12 --m 2",
    ),
}


class Unavailable(Exception):
    """The program to measure is not in this checkout."""


def import_orbichar():
    """A fresh import of ``orbichar`` from ``src/`` of this checkout."""
    for name in [n for n in sys.modules if n == "orbichar" or n.startswith("orbichar.")]:
        del sys.modules[name]
    if not (SRC / "orbichar" / "cli.py").is_file():
        raise Unavailable(f"no orbichar sources under {SRC}")
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
    package = importlib.import_module("orbichar")
    importlib.import_module("orbichar.cli")
    if Path(package.__file__).resolve().parent != SRC / "orbichar":
        raise Unavailable(f"orbichar was imported from {package.__file__}")
    return package


def set_up(workload: str, seed: int, passes: int, workdir: Path):
    package = import_orbichar()
    pool = jobs.job_pool(workload)
    sequence = jobs.job_sequence(pool, seed, passes)
    paths = jobs.write_datasets({j.dataset for j in pool if j.dataset}, seed, workdir)
    return package, sequence, paths


class Outputs:
    """Distinct outputs per job id, with how often each occurred."""

    def __init__(self):
        self.by_job = {}

    def add(self, job_id: str, text: str, code) -> None:
        seen = self.by_job.setdefault(job_id, [])
        for entry in seen:
            if entry[1] == code and entry[0] == text:
                entry[2] += 1
                return
        seen.append([text, code, 1])

    def failures(self, reference: dict) -> list:
        """(job id, occurrences, reason) for every failing output."""
        out = []
        for job_id, seen in self.by_job.items():
            for text, code, count in seen:
                reason = gate.problem(text, code, reference.get(job_id))
                if reason is not None:
                    out.append((job_id, count, reason))
        return out


def run_jobs(cli, sequence, paths, deadline, recorder=None):
    """Run jobs in order until done or past ``deadline``.

    Returns (latencies, wall seconds, outputs).
    """
    outputs = Outputs()
    latencies = []
    perf = time.perf_counter
    start = perf()
    for index, job in enumerate(sequence):
        if perf() >= deadline:
            break
        argv = job.command(paths)
        out, err = io.StringIO(), io.StringIO()
        if recorder is not None:
            recorder.begin_job(index)
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            t0 = perf()
            try:
                code = cli.main(argv)
            except (Exception, SystemExit) as exc:
                code = f"raised {type(exc).__name__}: {exc}"
            t1 = perf()
        latencies.append(t1 - t0)
        text = out.getvalue()
        if recorder is not None:
            recorder.add("cli.report_bytes", len(text))
        outputs.add(job.id, text, code)
    wall = perf() - start
    return latencies, wall, outputs


def tail(latencies: list) -> tuple:
    """The highest listed percentile with at least ten samples beyond it,
    as (label, value, samples beyond); the maximum when there are too few
    samples."""
    ordered = sorted(latencies)
    n = len(ordered)
    for p in TAIL_PERCENTILES:
        rank = math.ceil(p / 100.0 * n)
        if n - rank >= 10:
            return f"p{p:g}", ordered[rank - 1], n - rank
    return "max", ordered[-1], 0


def end_to_end(setups, latencies, wall, failed, rss_mb) -> dict:
    """End-to-end metrics by name: (value, unit, sample note)."""
    n = len(latencies)
    label, tail_value, beyond = tail(latencies)
    return {
        "setup_s": (statistics.median(setups), "s", f"median of {len(setups)} set-ups"),
        "jobs_per_s": (n / wall, "1/s", f"{n} jobs in {wall:.2f} s"),
        "latency_p50_s": (statistics.median(latencies), "s", f"median of {n} jobs"),
        "latency_tail_s": (tail_value, "s", f"{label} of {n} jobs, {beyond} beyond"),
        "failed_share": (failed / n, "ratio", f"{failed} of {n} jobs failed"),
        "peak_rss_mb": (rss_mb, "MB", "ru_maxrss of the run process"),
    }


def per_layer(recorder, latencies, wall) -> dict:
    """Per-layer metrics by name: (value, unit[, sample note])."""
    rows = dict(recorder.metrics())
    n = len(latencies)
    rows["trace.jobs_per_s"] = (n / wall, "1/s", f"{n} jobs traced")
    return rows


@contextlib.contextmanager
def scratch_dir(name: str):
    """A directory under perfbench/.work for generated datasets, removed
    on exit."""
    path = HERE / ".work" / f"{name}-{os.getpid()}"
    try:
        yield path
    finally:
        shutil.rmtree(path, ignore_errors=True)
        with contextlib.suppress(OSError):
            path.parent.rmdir()


def print_table(title: str, rows: dict) -> None:
    print(title)
    for name, (value, unit, *note) in rows.items():
        print(f"  {name:48s} {value:>14.6g} {unit:6s} {note[0] if note else ''}")


def benchmark(workload: str, seed: int, seconds: int, traced: bool) -> dict:
    launched = time.perf_counter()
    passes = max(1, round(seconds / PASS_SECONDS))
    with scratch_dir(f"{workload}-{seed}") as workdir:
        setups = []
        for _ in range(SETUP_REPEATS):
            t0 = time.perf_counter()
            package, sequence, paths = set_up(workload, seed, passes, workdir)
            setups.append(time.perf_counter() - t0)
        reference = gate.load_reference()
        recorder = None
        if traced:
            recorder = spans.Recorder()
            recorder.install(package)
        deadline = launched + min(2.0 * seconds, HARD_LIMIT_S)
        latencies, wall, outputs = run_jobs(package.cli, sequence, paths, deadline, recorder)
        rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    failures = outputs.failures(reference)
    failed = sum(count for _job, count, _reason in failures)
    n = len(latencies)
    print(
        f"workload {workload}  seed {seed}  passes {passes}  jobs {n} of {len(sequence)}"
        f"  wall {wall:.2f} s  trace {'on' if traced else 'off'}"
    )
    for job_id, count, reason in failures:
        print(f"  FAILED x{count}: {job_id}: {reason}")
    e2e = end_to_end(setups, latencies, wall, failed, rss_mb)
    if traced:
        rows = per_layer(recorder, latencies, wall)
        print_table("per-layer metrics (traced run)", rows)
        for name, count in sorted(recorder.raised().items()):
            print(f"  raised {name}: {count}")
        out = HERE / "out" / f"trace-{workload}-seed{seed}.jsonl.gz"
        recorder.write(out)
        print(f"spans written to {out}")
    else:
        rows = e2e
        print_table("end-to-end metrics", rows)
    return {
        "correct": failed == 0 and n > 0,
        "attempted": n,
        "failed": failed,
        "metrics": {
            name: {"value": value, "unit": unit}
            for name, (value, unit, *_note) in rows.items()
            if name != "failed_share"
        },
    }


# ---------------------------------------------------------------------------
# smoke test and reference values


def smoke() -> int:
    declared = json.loads((ROOT / "BENCHMARK.json").read_text())
    package = import_orbichar()
    recorder = spans.Recorder()
    recorder.install(package)
    reference = gate.load_reference()
    problems = []
    latencies = []
    with scratch_dir("smoke") as workdir:
        for workload, ids in SMOKE_JOBS.items():
            pool = {job.id: job for job in jobs.job_pool(workload)}
            picked = [pool[i] for i in ids]
            paths = jobs.write_datasets({j.dataset for j in picked if j.dataset}, 1, workdir)
            lat, _wall, outputs = run_jobs(package.cli, picked, paths, math.inf, recorder)
            latencies += lat
            problems += [f"{j}: {r}" for j, _c, r in outputs.failures(reference)]
    layer = per_layer(recorder, latencies, 1.0)
    for _module, _attr, name, *_rest in spans.TARGETS:
        if layer[f"{name}.calls"][0] == 0:
            problems.append(f"{name} was never called through its wrapper")
    e2e = end_to_end([0.1], latencies, 1.0, 0, 1.0)
    for kind, produced in (("end_to_end", e2e), ("per_layer", layer)):
        for metric in declared[kind]:
            if metric["name"] not in produced:
                problems.append(f"{kind} metric {metric['name']} is not produced")
    for line in problems:
        print(f"SMOKE FAIL {line}")
    print(f"smoke: {len(latencies)} jobs, {len(problems)} problems")
    return 1 if problems else 0


def write_reference() -> int:
    entries = {}
    with scratch_dir("reference") as workdir:
        for workload in jobs.POOLS:
            package = import_orbichar()
            pool = jobs.job_pool(workload)
            paths = jobs.write_datasets({j.dataset for j in pool if j.dataset}, 0, workdir)
            _lat, _wall, outputs = run_jobs(package.cli, pool, paths, math.inf)
            for job_id, [(text, code, _count)] in outputs.by_job.items():
                report, reason = gate.check(text, code)
                if reason is not None:
                    raise SystemExit(f"{job_id}: {reason}")
                entries[job_id] = gate.digest(report)
    gate.REFERENCE.write_text(json.dumps(entries, indent=1, sort_keys=True) + "\n")
    print(f"wrote {len(entries)} reference digests to {gate.REFERENCE}")
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=sorted(jobs.POOLS))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=int, default=25)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true")
    parser.add_argument("--write-reference", action="store_true")
    args = parser.parse_args(argv)
    try:
        if args.smoke:
            return smoke()
        if args.write_reference:
            return write_reference()
        if args.workload is None:
            parser.error("--workload is required")
        result = benchmark(args.workload, args.seed, args.seconds, bool(args.trace))
    except (Unavailable, ImportError, OSError, spans.BindingError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
