"""Exact truncated power series and the wreath generating-function identities.

Everything here is coefficient-exact over Q: a TruncatedSeries is a tuple of
Fractions c_0..c_N, and identity checks are plain equality of coefficients,
never tolerances.

The identities themselves compare a *computed* left side against a *formula*
right side:

* exp formula: sum over n of chi_ES of the n-th wreath symmetric product
  equals exp(q * chi_ES),
* main product formula: the chi_(m) series equals a product of factors
  (1-q^r) raised to -J_{r,m} * chi_(m), where J_{r,m} counts index-r
  sublattices of Z^m,
* Macdonald dimension formulas: homology dimensions of quotients (and of
  their Z-sector decompositions) have geometric-series generating functions.

Left sides are computed by one of two routes chosen automatically: explicit
wreath powers of the complex (small n, any complex), or, for one-point
complexes, a structural recursion through the centralizer decomposition of
wreath conjugacy classes that reaches sizes far past any multiplication
table.  The two routes overlap at small n, which the tests exploit.
"""
from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from fractions import Fraction

from .complexes import (
    DEFAULT_SIMPLEX_CAP,
    betti_numbers,
    signed_total_dimension,
)
from .equivariant import (
    RegularEquivariantComplex,
    euler_satake,
    orbit_complex,
    power_with_wreath_action,
    regularize,
)
from .errors import (
    CapExceeded,
    ExpNonzeroConstant,
    InputError,
    NonIntegerExponent,
    NonInvertibleSeries,
    SizeCapExceeded,
)
from .groups import FiniteGroup, conjugacy_classes
from .homs import DEFAULT_HOM_CAP, free_abelian
from .sectors import chi_m_top, gamma_sectors
from .wreath import all_types, centralizer_extension

# Explicit wreath powers need a full multiplication table, so their order cap
# is far smaller than the caps used elsewhere.
DEFAULT_LHS_ORDER_CAP = 2000


# ---------------------------------------------------------------------------
# truncated series over Q


@dataclass(frozen=True)
class TruncatedSeries:
    """Coefficients c_0..c_N of a power series in q, exact rationals."""

    coefficients: tuple

    def __post_init__(self):
        coeffs = tuple(Fraction(c) for c in self.coefficients)
        if not coeffs:
            raise InputError("a truncated series needs at least c_0")
        object.__setattr__(self, "coefficients", coeffs)

    @property
    def order(self) -> int:
        return len(self.coefficients) - 1

    @classmethod
    def constant(cls, value, order: int) -> "TruncatedSeries":
        if order < 0:
            raise InputError("truncation order must be >= 0")
        return cls((Fraction(value),) + (Fraction(0),) * order)

    @classmethod
    def one(cls, order: int) -> "TruncatedSeries":
        return cls.constant(1, order)

    def coefficient(self, n: int) -> Fraction:
        return self.coefficients[n]

    def _same_order(self, other: "TruncatedSeries") -> None:
        if not isinstance(other, TruncatedSeries):
            raise InputError(f"expected a TruncatedSeries, got {other!r}")
        if self.order != other.order:
            raise InputError(
                f"series orders differ: {self.order} vs {other.order}"
            )

    def __add__(self, other):
        self._same_order(other)
        return TruncatedSeries(
            tuple(a + b for a, b in zip(self.coefficients, other.coefficients))
        )

    def __sub__(self, other):
        self._same_order(other)
        return TruncatedSeries(
            tuple(a - b for a, b in zip(self.coefficients, other.coefficients))
        )

    def __mul__(self, other):
        self._same_order(other)
        a, b = self.coefficients, other.coefficients
        out = [Fraction(0)] * (self.order + 1)
        for i, ai in enumerate(a):
            if not ai:
                continue
            for j in range(self.order + 1 - i):
                if b[j]:
                    out[i + j] += ai * b[j]
        return TruncatedSeries(tuple(out))

    def scale(self, value) -> "TruncatedSeries":
        v = Fraction(value)
        return TruncatedSeries(tuple(v * c for c in self.coefficients))

    def inverse(self) -> "TruncatedSeries":
        a = self.coefficients
        if a[0] == 0:
            raise NonInvertibleSeries("constant term is zero")
        out = [Fraction(0)] * (self.order + 1)
        out[0] = 1 / a[0]
        for n in range(1, self.order + 1):
            out[n] = -sum(a[k] * out[n - k] for k in range(1, n + 1)) / a[0]
        return TruncatedSeries(tuple(out))

    def __pow__(self, k) -> "TruncatedSeries":
        k = _integer_exponent(k, "series exponent")
        if k < 0:
            return self.inverse() ** (-k)
        result = TruncatedSeries.one(self.order)
        base = self
        while k:
            if k & 1:
                result = result * base
            base = base * base
            k >>= 1
        return result

    def exp(self) -> "TruncatedSeries":
        a = self.coefficients
        if a[0] != 0:
            raise ExpNonzeroConstant(f"constant term is {a[0]}, expected 0")
        out = [Fraction(0)] * (self.order + 1)
        out[0] = Fraction(1)
        for n in range(1, self.order + 1):
            out[n] = (
                sum(k * a[k] * out[n - k] for k in range(1, n + 1))
                / n
            )
        return TruncatedSeries(tuple(out))

    def log(self) -> "TruncatedSeries":
        a = self.coefficients
        if a[0] != 1:
            raise NonInvertibleSeries(f"log needs constant term 1, got {a[0]}")
        out = [Fraction(0)] * (self.order + 1)
        for n in range(1, self.order + 1):
            out[n] = a[n] - sum(
                k * out[k] * a[n - k] for k in range(1, n)
            ) / Fraction(n)
        return TruncatedSeries(tuple(out))

    def substitute_q_power(self, r: int) -> "TruncatedSeries":
        """The series in q^r, truncated at the same order."""
        if not isinstance(r, int) or r < 1:
            raise InputError(f"substitution power must be a positive int, got {r}")
        out = [Fraction(0)] * (self.order + 1)
        for i, c in enumerate(self.coefficients):
            if i * r > self.order:
                break
            out[i * r] = c
        return TruncatedSeries(tuple(out))

    def to_fraction_strings(self) -> list:
        return [str(c) for c in self.coefficients]

    def __repr__(self):
        return f"TruncatedSeries({self.to_fraction_strings()})"


def _integer_exponent(value, what: str) -> int:
    if isinstance(value, bool):
        raise NonIntegerExponent(f"{what} must be an integer, got {value!r}")
    if isinstance(value, int):
        return value
    frac = Fraction(value)
    if frac.denominator != 1:
        raise NonIntegerExponent(f"{what} must be an integer, got {frac}")
    return int(frac)


def one_minus_q_power(r: int, order: int) -> TruncatedSeries:
    """The polynomial 1 - q^r as a truncated series."""
    if r < 1:
        raise InputError(f"power must be >= 1, got {r}")
    coeffs = [Fraction(0)] * (order + 1)
    coeffs[0] = Fraction(1)
    if r <= order:
        coeffs[r] = Fraction(-1)
    return TruncatedSeries(tuple(coeffs))


# ---------------------------------------------------------------------------
# sublattice counts J_{r,m}


@dataclass(frozen=True)
class SubgroupCount:
    r: int
    m: int
    value: int


def _divisors(r: int) -> list:
    return [d for d in range(1, r + 1) if r % d == 0]


def _ordered_factorizations(r: int, m: int):
    """All tuples (j_1..j_m) of positive integers with product r."""
    if m == 1:
        yield (r,)
        return
    for d in _divisors(r):
        for rest in _ordered_factorizations(r // d, m - 1):
            yield (d,) + rest


def subgroup_count(r: int, m: int) -> SubgroupCount:
    """J_{r,m}: the number of index-r subgroups of Z^m.

    Computed as the weighted factorization sum
    J_{r,m} = sum over j_1...j_m = r of j_2 * j_3^2 * ... * j_m^(m-1),
    which counts upper-triangular normal forms by their diagonals.
    """
    if r < 1 or m < 1:
        raise InputError(f"subgroup counts need r, m >= 1, got r={r}, m={m}")
    value = 0
    for js in _ordered_factorizations(r, m):
        weight = 1
        for i in range(1, m):
            weight *= js[i] ** i
        value += weight
    return SubgroupCount(r, m, value)


def sublattice_count_bruteforce(r: int, m: int, exhaustive: bool = False) -> int:
    """Count index-r sublattices of Z^m by explicit enumeration.

    Every index-r sublattice contains r*Z^m, so the subgroup of residues it
    spans in (Z/r)^m determines it; candidates are upper-triangular generator
    matrices (diagonal product r), deduplicated by that residue subgroup.
    Off-diagonal entries range over the column's diagonal -- one candidate
    per normal form -- or, with ``exhaustive``, over all of 0..r-1, which
    revisits each lattice many times and so also checks that no lattice is
    reachable only outside the normal ranges.
    """
    if r < 1 or m < 1:
        raise InputError(f"sublattice counts need r, m >= 1, got r={r}, m={m}")
    positions = [(i, j) for i in range(m) for j in range(i + 1, m)]
    seen = set()
    for diag in _ordered_factorizations(r, m):
        ranges = [
            range(r) if exhaustive else range(diag[j]) for (_i, j) in positions
        ]
        for offs in itertools.product(*ranges):
            rows = [[0] * m for _ in range(m)]
            for i in range(m):
                rows[i][i] = diag[i]
            for (i, j), v in zip(positions, offs):
                rows[i][j] = v
            span = _residue_span(rows, r, m)
            if len(span) != r ** (m - 1):
                raise InputError("candidate lattice has the wrong index")
            seen.add(span)
    return len(seen)


def _residue_span(rows: list, r: int, m: int) -> frozenset:
    """The subgroup of (Z/r)^m generated by the rows."""
    gens = [tuple(v % r for v in row) for row in rows]
    zero = (0,) * m
    elems = {zero}
    frontier = [zero]
    while frontier:
        x = frontier.pop()
        for g in gens:
            y = tuple((a + b) % r for a, b in zip(x, g))
            if y not in elems:
                elems.add(y)
                frontier.append(y)
    return frozenset(elems)


# ---------------------------------------------------------------------------
# right-hand sides


def rhs_exp_formula(chi_es, order: int) -> TruncatedSeries:
    """exp(q * chi_ES), the Euler-Satake generating function."""
    coeffs = [Fraction(0)] * (order + 1)
    if order >= 1:
        coeffs[1] = Fraction(chi_es)
    return TruncatedSeries(tuple(coeffs)).exp()


def rhs_main_formula(m: int, chi, order: int) -> TruncatedSeries:
    """Product over r of (1-q^r) to the power -J_{r,m} * chi.

    For m = 0 the product collapses to (1-q)^(-chi), the symmetric-product
    geometric series.  chi must be an integer (it is a chi_(m), an honest
    Euler characteristic of a space).
    """
    if m < 0:
        raise InputError(f"m must be >= 0, got {m}")
    chi_int = _integer_exponent(chi, f"chi_({m})")
    if m == 0:
        return one_minus_q_power(1, order) ** (-chi_int)
    out = TruncatedSeries.one(order)
    for r in range(1, order + 1):
        j = subgroup_count(r, m).value
        out = out * one_minus_q_power(r, order) ** (-j * chi_int)
    return out


def _bounded_index_tuples(m: int, bound: int):
    """All (j_1..j_m) with product <= bound, for the uncollapsed product."""

    def rec(k: int, prod: int):
        if k == m:
            yield ()
            return
        j = 1
        while prod * j <= bound:
            for rest in rec(k + 1, prod * j):
                yield (j,) + rest
            j += 1

    yield from rec(0, 1)


def rhs_main_formula_multiindex(m: int, chi, order: int) -> TruncatedSeries:
    """The same product left uncollapsed: one factor per index tuple.

    Each (j_1..j_m) contributes (1 - q^(j_1...j_m)) to the power
    -(j_2 * j_3^2 * ... * j_m^(m-1)) * chi; grouping tuples by their product
    recovers the J_{r,m} exponents, which the tests check coefficient by
    coefficient.
    """
    if m < 0:
        raise InputError(f"m must be >= 0, got {m}")
    chi_int = _integer_exponent(chi, f"chi_({m})")
    if m == 0:
        return one_minus_q_power(1, order) ** (-chi_int)
    out = TruncatedSeries.one(order)
    for js in _bounded_index_tuples(m, order):
        weight = 1
        for i in range(1, m):
            weight *= js[i] ** i
        out = out * one_minus_q_power(math.prod(js), order) ** (
            -weight * chi_int
        )
    return out


# ---------------------------------------------------------------------------
# structural chi_(m) for wreath products over a point

# Caches are keyed by multiplication tables, so equal groups share entries
# no matter how they were built.
_POINT_CHI_CACHE: dict = {}
_EXTENSION_CACHE: dict = {}


def _extension_cached(group: FiniteGroup, class_index: int, r: int) -> FiniteGroup:
    key = (group.table, class_index, r)
    if key not in _EXTENSION_CACHE:
        rep = conjugacy_classes(group)[class_index].representative
        _EXTENSION_CACHE[key] = centralizer_extension(group, rep, r)
    return _EXTENSION_CACHE[key]


def point_wreath_chi_m(group: FiniteGroup, size: int, m: int) -> int:
    """chi_(m) of the one-point quotient by the wreath product G ~ S_size.

    Over a point, chi_(m) counts conjugacy classes of commuting m-tuples.
    Splitting a tuple as (w, tuple commuting with w) gives the recursion

        chi_(m) = sum over classes (w) of chi_(m-1) of pt x C(w),

    and the centralizer of an element of a given type is a direct product,
    over the (class, cycle length) pairs, of wreath products of the small
    extension groups attached to single cycles.  No multiplication table of
    the wreath product itself is ever built, so this reaches sizes far past
    the explicit route; the two are compared where they overlap.
    """
    if size < 0 or m < 0:
        raise InputError("size and m must be nonnegative")
    if m == 0 or size == 0:
        return 1
    key = (group.table, size, m)
    if key in _POINT_CHI_CACHE:
        return _POINT_CHI_CACHE[key]
    types = all_types(group, size)
    if m == 1:
        # One conjugacy class per type.
        result = len(types)
    else:
        result = 0
        for t in types:
            term = 1
            for ((c, r), mult) in t.entries:
                ext = _extension_cached(group, c, r)
                term *= point_wreath_chi_m(ext, mult, m - 1)
            result += term
    _POINT_CHI_CACHE[key] = result
    return result


# ---------------------------------------------------------------------------
# left-hand sides


def top_m(m: int) -> tuple:
    """The series kind selecting chi_(m); the other kind is the string "es"."""
    return ("top_m", int(m))


def _parse_kind(kind) -> tuple:
    if kind == "es":
        return ("es", None)
    if (
        isinstance(kind, tuple)
        and len(kind) == 2
        and kind[0] == "top_m"
        and isinstance(kind[1], int)
        and kind[1] >= 0
    ):
        return kind
    raise InputError(f"unknown series kind {kind!r}; use 'es' or top_m(m)")


def _is_point(rec: RegularEquivariantComplex) -> bool:
    return len(rec.cx.vertices) == 1


def _wreath_coefficient(
    rec: RegularEquivariantComplex,
    n: int,
    kind: tuple,
    order_cap: int,
    simplex_cap: int,
    hom_cap: int,
) -> Fraction:
    """The n-th coefficient of the chosen wreath series."""
    tag, m = kind
    if n == 0:
        return Fraction(1)
    if _is_point(rec):
        group = rec.group
        if tag == "es":
            return Fraction(1, group.order**n * math.factorial(n))
        return Fraction(point_wreath_chi_m(group, n, m))
    try:
        ec, _ew = power_with_wreath_action(
            rec, n, order_cap=order_cap, simplex_cap=simplex_cap
        )
        rec_n = regularize(ec)
        if tag == "es":
            return euler_satake(rec_n)
        return Fraction(chi_m_top(rec_n, m, cap=hom_cap))
    except CapExceeded as exc:
        raise SizeCapExceeded(f"wreath power n={n}: {exc}") from exc


def _collect_terms(fn, order: int) -> tuple:
    """Values fn(0..order) in order, stopping at the first capped term.

    Returns (values, note); note is None when every term landed, else the
    cap message of the first n that failed.  Terms are computed in the
    calling thread; the ``workers`` argument of the functions below is
    accepted and ignored.
    """
    values: list = []
    note = None
    for n in range(order + 1):
        try:
            values.append(Fraction(fn(n)))
        except CapExceeded as exc:
            note = str(exc)
            break
    return values, note


def lhs_wreath_series(
    rec: RegularEquivariantComplex,
    kind,
    order: int,
    order_cap: int = DEFAULT_LHS_ORDER_CAP,
    simplex_cap: int = DEFAULT_SIMPLEX_CAP,
    hom_cap: int = DEFAULT_HOM_CAP,
    workers: int | None = None,
) -> TruncatedSeries:
    """The computed series: coefficient n is the invariant of the n-th
    wreath symmetric product of the complex.  Raises SizeCapExceeded naming
    the first infeasible n; the verify_* wrappers instead report the largest
    feasible truncation."""
    parsed = _parse_kind(kind)

    def fn(n: int) -> Fraction:
        return _wreath_coefficient(rec, n, parsed, order_cap, simplex_cap, hom_cap)

    values, note = _collect_terms(fn, order)
    if note is not None:
        raise SizeCapExceeded(note)
    return TruncatedSeries(tuple(values))


# ---------------------------------------------------------------------------
# identity reports


def _compare_report(lhs_values: list, rhs: TruncatedSeries, note) -> dict:
    mismatch = None
    for i, value in enumerate(lhs_values):
        if value != rhs.coefficients[i]:
            mismatch = i
            break
    feasible = len(lhs_values) - 1
    out = {
        "lhs": [str(v) for v in lhs_values],
        "rhs": rhs.to_fraction_strings(),
        "equal_up_to": feasible if mismatch is None else mismatch - 1,
        "equal": mismatch is None and feasible == rhs.order,
    }
    if mismatch is not None:
        out["mismatch_index"] = mismatch
    if note is not None:
        out["cap"] = note
    return out


def verify_exp_formula(
    rec: RegularEquivariantComplex,
    order: int,
    order_cap: int = DEFAULT_LHS_ORDER_CAP,
    simplex_cap: int = DEFAULT_SIMPLEX_CAP,
    hom_cap: int = DEFAULT_HOM_CAP,
    workers: int | None = None,
) -> dict:
    """Check sum of chi_ES(n-th wreath product) q^n = exp(q chi_ES)."""
    chi = euler_satake(rec)
    rhs = rhs_exp_formula(chi, order)

    def fn(n: int) -> Fraction:
        return _wreath_coefficient(
            rec, n, ("es", None), order_cap, simplex_cap, hom_cap
        )

    values, note = _collect_terms(fn, order)
    report = {"identity": "exp-formula", "chi_es": str(chi), "order": order}
    report.update(_compare_report(values, rhs, note))
    return report


def verify_main_formula(
    rec: RegularEquivariantComplex,
    m: int,
    order: int,
    order_cap: int = DEFAULT_LHS_ORDER_CAP,
    simplex_cap: int = DEFAULT_SIMPLEX_CAP,
    hom_cap: int = DEFAULT_HOM_CAP,
    workers: int | None = None,
) -> dict:
    """Check the chi_(m) wreath series against the J_{r,m} product formula."""
    chi = chi_m_top(rec, m, cap=hom_cap)
    rhs = rhs_main_formula(m, chi, order)
    parsed = _parse_kind(top_m(m))

    def fn(n: int) -> Fraction:
        return _wreath_coefficient(rec, n, parsed, order_cap, simplex_cap, hom_cap)

    values, note = _collect_terms(fn, order)
    report = {
        "identity": "main-product-formula",
        "m": m,
        "chi": str(chi),
        "order": order,
    }
    report.update(_compare_report(values, rhs, note))
    return report


# ---------------------------------------------------------------------------
# Macdonald dimension formulas


def _z_sector_dimension(rec: RegularEquivariantComplex, hom_cap: int) -> int:
    """Signed homology dimension summed over the Z-sector orbit spaces."""
    decomposition = gamma_sectors(rec, free_abelian(1), cap=hom_cap)
    return sum(
        signed_total_dimension(betti_numbers(orbit_complex(s.fixed)))
        for s in decomposition.sectors
    )


def macdonald_dimension_check(
    rec: RegularEquivariantComplex,
    order: int,
    order_cap: int = DEFAULT_LHS_ORDER_CAP,
    simplex_cap: int = DEFAULT_SIMPLEX_CAP,
    hom_cap: int = DEFAULT_HOM_CAP,
    workers: int | None = None,
) -> dict:
    """Both dimension formulas, as one report.

    Part 1: signed homology dimensions of the wreath-product quotients have
    generating function (1-q)^(-D) with D the dimension for the quotient of
    the complex itself.  Part 2: the same with every space replaced by its
    Z-sector decomposition, where the right side becomes the product of
    (1-q^j)^(-D_Z) over j >= 1.
    """
    point = _is_point(rec)
    if point:
        d1 = 1
        d2 = len(conjugacy_classes(rec.group))
    else:
        d1 = signed_total_dimension(betti_numbers(orbit_complex(rec)))
        d2 = _z_sector_dimension(rec, hom_cap)

    rhs1 = one_minus_q_power(1, order) ** (-d1)
    rhs2 = TruncatedSeries.one(order)
    for j in range(1, order + 1):
        rhs2 = rhs2 * one_minus_q_power(j, order) ** (-d2)

    def quotient_dim(n: int) -> Fraction:
        if n == 0:
            return Fraction(1)
        if point:
            return Fraction(1)
        try:
            ec, _ew = power_with_wreath_action(
                rec, n, order_cap=order_cap, simplex_cap=simplex_cap
            )
            rec_n = regularize(ec)
            return Fraction(
                signed_total_dimension(betti_numbers(orbit_complex(rec_n)))
            )
        except CapExceeded as exc:
            raise SizeCapExceeded(f"wreath power n={n}: {exc}") from exc

    def sector_dim(n: int) -> Fraction:
        if n == 0:
            return Fraction(1)
        if point:
            # Each conjugacy class is a sector over a point, so the
            # coefficient is the number of classes, i.e. of types.
            return Fraction(point_wreath_chi_m(rec.group, n, 1))
        try:
            ec, _ew = power_with_wreath_action(
                rec, n, order_cap=order_cap, simplex_cap=simplex_cap
            )
            rec_n = regularize(ec)
            return Fraction(_z_sector_dimension(rec_n, hom_cap))
        except CapExceeded as exc:
            raise SizeCapExceeded(f"wreath power n={n}: {exc}") from exc

    lhs1, note1 = _collect_terms(quotient_dim, order)
    lhs2, note2 = _collect_terms(sector_dim, order)
    part1 = {"dimension": d1}
    part1.update(_compare_report(lhs1, rhs1, note1))
    part2 = {"dimension": d2}
    part2.update(_compare_report(lhs2, rhs2, note2))
    return {
        "identity": "macdonald-dimensions",
        "order": order,
        "part1": part1,
        "part2": part2,
        "equal": part1["equal"] and part2["equal"],
    }
