"""The acceptance battery: one test per criterion, one PASS/FAIL line each.

Run with ``pytest tests/test_acceptance.py -v`` (add ``-s`` to see the
summary lines on passing runs too).  Every check is exact rational
arithmetic; each test also enforces its runtime budget.
"""

import json
import os
import subprocess
import sys
import time
from fractions import Fraction
from pathlib import Path

import orbichar
from orbichar.complexes import euler_characteristic
from orbichar.equivariant import (
    equivariant_product,
    euler_satake,
    orbit_complex,
    regularize,
    trivial_action,
)
from orbichar.groups import cyclic_group, symmetric_group, trivial_group
from orbichar.homs import free_abelian
from orbichar.hodge import hodge_product_check, hodge_product_lhs
from orbichar.library import (
    PRODUCT_PAIRS,
    builtin_equivariant,
    hodge_datasets,
    point_s3,
    point_z2,
    s0_swap,
    suite,
    two_points,
)
from orbichar.sectors import chi_gamma_es, iterate_sectors
from orbichar.series import (
    macdonald_dimension_check,
    subgroup_count,
    sublattice_count_bruteforce,
    verify_exp_formula,
    verify_main_formula,
)
from orbichar.wreath import (
    WreathProduct,
    all_types,
    centralizer_order_by_formula,
    classify_conjugacy_by_type,
)
from helpers import euler_satake_subcomplex
from series_oracle import evaluate


def _finish(number, description, started, budget, ok, detail=""):
    elapsed = time.monotonic() - started
    verdict = "PASS" if ok else "FAIL"
    print(f"ACCEPTANCE {number} {verdict}: {description} [{elapsed:.2f}s]")
    assert ok, f"criterion {number}: {description} {detail}"
    assert elapsed < budget, f"criterion {number} over budget: {elapsed:.1f}s"


def test_criterion_01_quotient_formula():
    """chi_ES = chi_top / |G| on every bundled equivariant complex."""
    t0 = time.monotonic()
    cases = suite()
    ok = len(cases) >= 6
    for name, rec in cases:
        expected = Fraction(euler_characteristic(rec.cx), rec.group.order)
        ok = ok and euler_satake(rec) == expected
    _finish(1, "Euler-Satake quotient formula on the bundled suite", t0, 5, ok)


def _orbit_halves(rec):
    """Two invariant downward-closed halves covering the whole complex."""
    ec = rec.ec
    elements = range(ec.group.order)
    orbits, seen = [], set()
    for s in ec.cx.simplices:
        if s in seen:
            continue
        orbit = {ec.map_simplex(g, s) for g in elements}
        seen |= orbit
        orbits.append(orbit)

    def close_down(sel):
        out = set()
        for orbit in sel:
            for s in orbit:
                for mask in range(1, 1 << len(s)):
                    out.add(tuple(s[i] for i in range(len(s)) if mask >> i & 1))
        return out

    return close_down(orbits[::2]), close_down(orbits[1::2])


def test_criterion_02_multiplicative_and_additive():
    """Products multiply chi_ES; invariant decompositions add it."""
    t0 = time.monotonic()
    presets = dict(suite())
    ok = True
    for a, b in PRODUCT_PAIRS:
        prod, _group, _pairs = equivariant_product(presets[a].ec, presets[b].ec)
        got = euler_satake(regularize(prod))
        ok = ok and got == euler_satake(presets[a]) * euler_satake(presets[b])
    for name, rec in presets.items():
        half_a, half_b = _orbit_halves(rec)
        total = (
            euler_satake_subcomplex(rec, half_a)
            + euler_satake_subcomplex(rec, half_b)
            - euler_satake_subcomplex(rec, half_a & half_b)
        )
        ok = ok and total == euler_satake(rec)
    _finish(2, "product multiplicativity and subcomplex additivity", t0, 30, ok)


def test_criterion_03_wreath_conjugacy_structure():
    """Types classify wreath conjugacy; centralizer formula is exact."""
    t0 = time.monotonic()
    cases = [
        (cyclic_group(2), n) for n in (1, 2, 3, 4)
    ] + [(cyclic_group(3), n) for n in (1, 2, 3)] + [
        (symmetric_group(3), n) for n in (1, 2, 3)
    ]
    ok = True
    for base, n in cases:
        w = WreathProduct(base, n)
        # raises if type fails to separate classes or varies inside one
        by_type = classify_conjugacy_by_type(base, n)
        ok = ok and len(by_type) == len(all_types(base, n))
        for t, cls in by_type.items():
            formula = centralizer_order_by_formula(base, n, t)
            ok = ok and formula * len(cls.members) == w.order
    _finish(3, "wreath types and centralizer orders vs brute force", t0, 60, ok)


def test_criterion_04_inertia_top_characteristic():
    """chi_Z^ES equals the Euler characteristic of the inertia orbit space."""
    t0 = time.monotonic()
    z = free_abelian(1)
    ok = True
    for name, rec in suite():
        direct = chi_gamma_es(rec, z)
        orbit = euler_characteristic(orbit_complex(rec))
        ok = ok and direct == orbit
    _finish(4, "chi_Z^ES = chi_top of the orbit space, all suite cases", t0, 10, ok)


def test_criterion_05_iterated_sectors():
    """Sectors of sectors agree with product-presentation sectors."""
    t0 = time.monotonic()
    z, z2 = free_abelian(1), free_abelian(2)
    ok = True
    for rec in (point_s3(), point_z2(), s0_swap()):
        for first in (z, z2):
            for second in (z, z2):
                report = iterate_sectors(rec, first, second)
                ok = ok and report["equal"]
    _finish(5, "iterated sectors match direct product sectors", t0, 60, ok)


def test_criterion_06_wreath_series_identities():
    """Wreath generating functions match the product formulas, m <= 2."""
    t0 = time.monotonic()
    ok = True
    for rec, order in ((point_z2(), 6), (point_s3(), 6), (s0_swap(), 3)):
        ok = ok and verify_exp_formula(rec, order)["equal"]
        for m in (0, 1, 2):
            ok = ok and verify_main_formula(rec, m, order)["equal"]
    spot = verify_main_formula(point_z2(), 1, 4)
    ok = ok and spot["lhs"][:4] == ["1", "2", "5", "10"]
    _finish(6, "wreath product series identities to order 6", t0, 300, ok)


def test_criterion_07_subgroup_counts():
    """J_{r,m} formula equals brute-force sublattice enumeration."""
    t0 = time.monotonic()
    ok = subgroup_count(2, 2) == 3 and subgroup_count(4, 2) == 7
    for m in (1, 2, 3):
        for r in range(1, 13):
            ok = ok and subgroup_count(r, m) == sublattice_count_bruteforce(r, m)
    _finish(7, "index-r subgroup counts of Z^m, r <= 12, m <= 3", t0, 10, ok)


def test_criterion_08_macdonald_dimensions():
    """Both Macdonald dimension formulas to order 4."""
    t0 = time.monotonic()
    s0_trivial = regularize(trivial_action(two_points(), trivial_group()))
    ok = True
    for rec in (point_z2(), point_s3(), s0_trivial):
        report = macdonald_dimension_check(rec, 4)
        ok = ok and report["equal"]
    _finish(8, "Macdonald dimension formulas to order 4", t0, 120, ok)


def test_criterion_09_hodge_product_formula():
    """Shifted Hodge polynomial product formula, orders <= 5."""
    t0 = time.monotonic()
    datasets = hodge_datasets()
    data, d = datasets["point-trivial"]
    report = hodge_product_check(data, d, 5)
    partition_values = [
        evaluate(c, 1, 1) for c in hodge_product_lhs(data, d, 5).coefficients
    ]
    ok = report["equal"] and partition_values == [1, 1, 2, 3, 5, 7]
    data, d = datasets["two-sector-shifted"]
    shifts = sorted(datum.integer_shift() for datum in data)
    ok = ok and shifts == [0, 1]
    ok = ok and hodge_product_check(data, d, 5)["equal"]
    _finish(9, "Hodge product formula on bundled sector data", t0, 60, ok)


def test_criterion_10_deterministic_reports():
    """Reports are byte-identical across runs and worker counts."""
    t0 = time.monotonic()
    commands = [
        ["verify", "exp", "--complex", "S0-swap", "--order", "3"],
        ["verify", "main", "--complex", "point-S3", "--m", "1", "--order", "5"],
        ["verify", "main", "--complex", "S0-swap", "--m", "2", "--order", "3"],
        ["verify", "macdonald", "--complex", "point-Z2", "--order", "4"],
        ["verify", "hodge", "--order", "5"],
        ["verify", "jcount", "--n", "8", "--m", "2"],
        ["euler", "--complex", "octahedron-antipodal", "--gamma", "Z"],
        ["wreath", "classes", "--group", "Z2", "--n", "3"],
    ]
    # The subprocesses import the package this test imported, installed or not.
    src = str(Path(orbichar.__file__).resolve().parent.parent)
    path = [src] + [p for p in [os.environ.get("PYTHONPATH")] if p]
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(path))
    ok = True
    for cmd in commands:
        outputs = []
        for workers in ("1", "4"):
            proc = subprocess.run(
                [sys.executable, "-m", "orbichar.cli", *cmd, "--workers", workers],
                capture_output=True,
                check=True,
                env=env,
            )
            outputs.append(proc.stdout)
        ok = ok and outputs[0] == outputs[1] and json.loads(outputs[0])
    _finish(10, "byte-identical reports across worker counts", t0, 120, ok)
