"""``tools/bench_pairs.compare`` on synthetic runs: medians, wins, and the
PASS / FAIL / GAIN verdict against a metric's bound."""
import importlib.util
from pathlib import Path

import pytest

_PATH = Path(__file__).resolve().parent.parent / "tools" / "bench_pairs.py"
_SPEC = importlib.util.spec_from_file_location("bench_pairs", _PATH)
bench_pairs = importlib.util.module_from_spec(_SPEC)
_SPEC.loader.exec_module(bench_pairs)


def runs(name, values):
    return [{"metrics": {name: {"value": v}}} for v in values]


RATE = {"name": "jobs_per_s", "better": "higher", "bound": 0.25}
LATENCY = {"name": "latency_p50_s", "better": "lower", "bound": 0.25}


@pytest.mark.parametrize(
    "metric, parent, change, ok, verdict, wins",
    [
        # medians 100 -> 137: past the bound, a gain
        (RATE, [90, 100, 110], [130, 137, 140], True, "PASS GAIN", 3),
        # medians 100 -> 120: better, but inside the bound
        (RATE, [90, 100, 110], [115, 120, 125], True, "PASS", 3),
        # medians 100 -> 70: worse by more than the bound
        (RATE, [90, 100, 110], [60, 70, 80], False, "FAIL", 0),
        # exactly at the bound on either side: neither a gain nor a failure
        (RATE, [100, 100], [125, 125], True, "PASS", 2),
        (RATE, [100, 100], [75, 75], True, "PASS", 0),
        # lower is better: medians 2.0 -> 1.4 ms is a gain, 2.0 -> 2.6 fails
        (LATENCY, [1.8e-3, 2.0e-3, 2.2e-3], [1.5e-3, 1.4e-3, 1.3e-3], True, "PASS GAIN", 3),
        (LATENCY, [1.8e-3, 2.0e-3, 2.2e-3], [2.6e-3, 2.6e-3, 1.7e-3], False, "FAIL", 1),
    ],
)
def test_compare_marks_failures_and_gains_against_the_bound(
    capsys, metric, parent, change, ok, verdict, wins
):
    name = metric["name"]
    assert bench_pairs.compare(metric, runs(name, parent), runs(name, change)) is ok
    line = capsys.readouterr().out
    assert line.rstrip().endswith(f"bound {metric['bound']}  {verdict}")
    assert f"wins {wins}/{len(parent)}" in line
