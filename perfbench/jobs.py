"""Job pools, seeded job sequences and generated Hodge datasets.

A job is one ``orbichar`` command line.  Each workload has a fixed pool;
a run is a number of passes over the pool, each pass in an order drawn
from the workload seed, so runs with different seeds do the same work in
a different order.  Hodge jobs on generated sector datasets read a JSON
file that set-up writes; the seed shuffles the sectors of each dataset and
renames their classes, which leaves every value of the report unchanged.
"""

import json
import random
from dataclasses import dataclass
from pathlib import Path

W2 = ("--workers", "2")


@dataclass(frozen=True)
class Job:
    id: str           # stable name, the key of the reference values
    argv: tuple       # orbichar arguments; a dataset job lacks its --complex
    dataset: str = ""  # name of the generated dataset the job reads, if any

    def command(self, dataset_paths: dict) -> list:
        if not self.dataset:
            return list(self.argv)
        return list(self.argv) + ["--complex", dataset_paths[self.dataset]]


def _job(*argv: str) -> Job:
    return Job(" ".join(argv), tuple(argv))


def _explicit_wreath_pool() -> list:
    # Seven cheap, seven middling and seven heavy jobs, so that the median
    # and the tail percentile each fall among jobs of similar cost.
    def verify(identity, cx, *rest):
        return _job("verify", identity, "--complex", cx, *rest, *W2)

    return [
        verify("sectors", "S0-swap", "--gamma", "Z,Z"),
        verify("sectors", "circle4-rotation", "--gamma", "Z,Z"),
        verify("exp", "S0-swap", "--order", "3"),
        verify("main", "S0-swap", "--m", "2", "--order", "3"),
        verify("macdonald", "S0-swap", "--order", "3"),
        _job("euler", "--complex", "circle(4)", "--group", "D6", "--gamma", "Z^2", *W2),
        _job("euler", "--complex", "circle(3)", "--group", "S4", "--gamma", "Z^3", *W2),
        verify("main", "circle4-rotation", "--m", "1", "--order", "2"),
        verify("main", "circle4-rotation", "--m", "2", "--order", "2"),
        verify("macdonald", "circle4-rotation", "--order", "2"),
        verify("exp", "edge-swap", "--order", "3"),
        _job("euler", "--complex", "circle(3)", "--group", "D6", "--gamma", "Z^3", *W2),
        _job("verify", "products", *W2),
        _job("wreath", "centralizers", "--group", "Z3", "--n", "3", *W2),
        verify("main", "edge-swap", "--m", "1", "--order", "3"),
        verify("main", "edge-swap", "--m", "2", "--order", "3"),
        verify("macdonald", "edge-swap", "--order", "3"),
        verify("exp", "S0-swap", "--order", "4"),
        verify("main", "S0-swap", "--m", "1", "--order", "4"),
        _job("wreath", "centralizers", "--group", "Z2", "--n", "4", *W2),
        _job("wreath", "centralizers", "--group", "Z4", "--n", "3", *W2),
    ]


# Largest order per (group, m) whose cold job stays near a second.
_POINT_ORDERS = {
    "Z2": (10, 10, 10, 8),
    "Z3": (10, 10, 8, 5),
    "S3": (10, 10, 8, 5),
    "D4": (10, 9, 5, 4),
    "S4": (10, 7, 4, 3),
}


def _point_tower_pool() -> list:
    jobs = []
    for group, orders in _POINT_ORDERS.items():
        for m, order in enumerate(orders, start=1):
            jobs.append(_job(
                "verify", "main", "--complex", "point", "--group", group,
                "--m", str(m), "--order", str(order),
            ))
    jobs.append(_job("verify", "macdonald", "--complex", "point", "--group", "S4", "--order", "10"))
    jobs.append(_job("verify", "exp", "--complex", "point", "--group", "S4", "--order", "20"))
    for group in ("S4", "D4"):
        for n in (6, 7, 8):
            jobs.append(_job("wreath", "classes", "--group", group, "--n", str(n)))
    return jobs


# Generated sector datasets: name -> (ambient dimension d, sectors, order).
HODGE_SHAPES = {
    "hodge-a": (2, 2, 6),
    "hodge-b": (2, 3, 5),
    "hodge-c": (4, 2, 5),
    "hodge-d": (0, 3, 7),
    "hodge-e": (4, 3, 5),
    "hodge-f": (2, 4, 5),
}


def _hodge_series_pool() -> list:
    # Eight cheap, eight middling and five heavy jobs (see the explicit
    # pool); orders past 8 fill the middle with small bundled datasets.
    def hodge(dataset, order):
        return _job("verify", "hodge", "--complex", dataset, "--order", str(order))

    jobs = [
        hodge("point-trivial", 8),
        hodge("point-trivial", 20),
        hodge("point-Z2", 8),
        hodge("point-Z2", 10),
        hodge("point-Z2", 12),
        hodge("two-sector-shifted", 8),
        hodge("two-sector-shifted", 10),
        hodge("abelian-surface", 5),
        hodge("abelian-surface", 6),
        _job("verify", "hodge", "--order", "5"),
        _job("verify", "hodge", "--order", "6"),
    ]
    for name, (_d, _sectors, order) in HODGE_SHAPES.items():
        argv = ("verify", "hodge", "--order", str(order))
        jobs.append(Job(" ".join(argv + ("--complex", f"@{name}")), argv, name))
    for n, m in ((12, 2), (14, 2), (16, 2), (12, 3)):
        jobs.append(_job("verify", "jcount", "--n", str(n), "--m", str(m)))
    return jobs


POOLS = {
    "explicit-wreath": _explicit_wreath_pool,
    "point-tower": _point_tower_pool,
    "hodge-series": _hodge_series_pool,
}


def job_pool(workload: str) -> list:
    return POOLS[workload]()


def job_sequence(pool: list, seed: int, passes: int) -> list:
    """``passes`` passes over the pool, each in its own seeded order."""
    rng = random.Random(seed)
    out = []
    for _ in range(passes):
        order = list(pool)
        rng.shuffle(order)
        out += order
    return out


# ---------------------------------------------------------------------------
# Hodge sector datasets, in the CLI's JSON format


def _angles(rng: random.Random, count: int) -> list:
    """``count`` angles in (0, 1] with an integer sum."""
    out = []
    while len(out) + 2 <= count:
        q = rng.choice((2, 3, 4, 6))
        p = rng.randrange(1, q)
        out += [f"{p}/{q}", f"{q - p}/{q}"]
    if len(out) < count:
        out.append("1")
    return out


def _dims(rng: random.Random, dim: int) -> dict:
    """A Hodge-symmetric table of bigraded dimensions up to degree ``dim``."""
    out = {"0,0": 1}
    for _ in range(rng.randint(1, 3)):
        s, t = rng.randint(0, dim), rng.randint(0, dim)
        value = rng.randint(1, 3)
        out[f"{s},{t}"] = out[f"{t},{s}"] = value
    return out


def hodge_dataset(name: str) -> dict:
    """The pooled dataset ``name``: even d and integer shifts, so valid."""
    d, count, _order = HODGE_SHAPES[name]
    rng = random.Random(name)
    sectors = []
    for i in range(count):
        dim = d if i == 0 else rng.randrange(0, d + 1, 2)
        sectors.append({
            "class": "e" if i == 0 else f"g{i}",
            "component": 0,
            "dims": _dims(rng, dim),
            "angles": _angles(rng, d - dim),
            "d": dim,
        })
    return {"d": d, "sectors": sectors}


def write_datasets(names, seed: int, directory: Path) -> dict:
    """Write each named dataset with seed-shuffled sectors; name -> path."""
    rng = random.Random(seed)
    directory.mkdir(parents=True, exist_ok=True)
    paths = {}
    for name in sorted(names):
        data = hodge_dataset(name)
        sectors = data["sectors"]
        rng.shuffle(sectors)
        for i, sector in enumerate(sectors):
            sector["class"] = f"c{rng.randrange(10**6)}-{i}"
        path = directory / f"{name}.json"
        path.write_text(json.dumps(data, sort_keys=True))
        paths[name] = str(path)
    return paths
