"""Series oracles: routes the library no longer takes, kept for the tests.

Test-only.  The library builds each power of a factor in closed form
(``series.binomial_coefficients``), deduplicates jcount candidates by
their annihilators from m = 3 on, closed as sums of cyclic subgroups, and
walks the sector types of the Hodge left side as one trie
(``wreath.type_trie``).
The functions here are the routes those replaced -- inverses and powers
by repeated squaring, the count by row spans, the generator-orbit span,
the flat type enumeration -- plus an annihilator found by testing every
vector, evaluations and the wreath-series wrapper that only tests call.
Each computes its answer independently of the code it checks.

Hodge polynomials are sorted tuples of nonzero ((s, t), c) terms, as the
library keeps them.  Their arithmetic here (sum, product, the shift by
(xy)^k, the substitution (-x, -y) and evaluation) is the polynomial
arithmetic the library dropped once each of its routes summed into one
int dict.
"""
import itertools
import operator
from fractions import Fraction

from orbichar.errors import InputError, SizeCapExceeded
from orbichar.groups import orbit
from orbichar.hodge import HodgeSeries
from orbichar.series import (
    TruncatedSeries,
    _generator_rows,
    _integer_exponent,
    _packing,
    _residue_span,
    _wreath_terms,
)


HODGE_ONE = (((0, 0), 1),)


def poly_add(*polys) -> tuple:
    """The sum of any number of term sequences, in normal form: sorted,
    like bidegrees merged, zeros dropped."""
    acc = {}
    for poly in polys:
        for key, c in poly:
            acc[key] = acc.get(key, 0) + c
    return tuple((key, c) for key, c in sorted(acc.items()) if c != 0)


def poly_mul(a, b) -> tuple:
    """The product of two Hodge polynomials."""
    return poly_add(
        [((s1 + s2, t1 + t2), c1 * c2) for (s1, t1), c1 in a for (s2, t2), c2 in b]
    )


def poly_shift(poly, k: int) -> tuple:
    """The polynomial times (xy)^k: (s, t) moves to (s + k, t + k)."""
    return tuple(((s + k, t + k), c) for (s, t), c in poly)


def poly_neg_xy(poly) -> tuple:
    """The polynomial at (-x, -y): each term picks up (-1)^(s+t)."""
    return tuple(((s, t), (-1) ** (s + t) * c) for (s, t), c in poly)


class NonInvertibleSeries(InputError):
    """Inverse of a series whose constant term is zero (or a non-unit)."""


def inverse(series):
    """The inverse series, one coefficient at a time: of a TruncatedSeries
    with a nonzero constant term, or of a HodgeSeries with constant term 1."""
    a = series.coefficients
    if isinstance(series, HodgeSeries):
        if a[0] != HODGE_ONE:
            raise NonInvertibleSeries("series inverse requires constant coefficient 1")
        u, minus_u, zero, add, mul = HODGE_ONE, (((0, 0), -1),), (), poly_add, poly_mul
    else:
        if a[0] == 0:
            raise NonInvertibleSeries("constant term is zero")
        u = Fraction(1) / a[0]
        minus_u, zero, add, mul = -u, 0, operator.add, operator.mul
    left = [(k, ak) for k, ak in enumerate(a) if k and ak]
    out = [u]
    for n in range(1, series.order + 1):
        acc = zero
        for k, ak in left:
            if k > n:
                break
            if out[n - k]:
                acc = add(acc, mul(ak, out[n - k]))
        out.append(mul(acc, minus_u))
    return type(series)(tuple(out))


def power(series, k):
    """series ** k for any int k: the inverse first when k < 0, then
    repeated squaring."""
    k = _integer_exponent(k, "series exponent")
    if k < 0:
        return power(inverse(series), -k)
    result = series.one(series.order)
    base = series
    while k:
        if k & 1:
            result = result * base
        base = base * base
        k >>= 1
    return result


def log(series: TruncatedSeries) -> TruncatedSeries:
    """The logarithm of a series with constant term 1."""
    a = series.coefficients
    if a[0] != 1:
        raise NonInvertibleSeries(f"log needs constant term 1, got {a[0]}")
    out = [Fraction(0)] * (series.order + 1)
    for n in range(1, series.order + 1):
        out[n] = a[n] - sum(k * out[k] * a[n - k] for k in range(1, n)) / Fraction(n)
    return TruncatedSeries(tuple(out))


def evaluate(poly, x, y) -> Fraction:
    """The Hodge polynomial's value at (x, y)."""
    xv, yv = Fraction(x), Fraction(y)
    return sum((c * xv**s * yv**t for (s, t), c in poly), Fraction(0))


def evaluate_xy(series: HodgeSeries, x, y) -> TruncatedSeries:
    """Collapse to a plain q-series by evaluating every coefficient."""
    return TruncatedSeries(tuple(evaluate(c, x, y) for c in series.coefficients))


def lhs_wreath_series(rec, order: int, on_point, on_power) -> TruncatedSeries:
    """The computed series: coefficient n is ``on_power`` of the n-th wreath
    symmetric product of the complex, or ``on_point()`` read through
    ``order`` on a point.  Raises SizeCapExceeded naming the first
    infeasible n; the verify_* wrappers instead report the largest feasible
    truncation."""
    values, note = _wreath_terms(rec, order, on_point, on_power, {})
    if note is not None:
        raise SizeCapExceeded(note)
    return TruncatedSeries(tuple(values))


def residue_span_bfs(rows: list, r: int, m: int) -> frozenset:
    """The subgroup of (Z/r)^m generated by the rows, packed as
    ``series._residue_span`` packs it, closed by a breadth-first walk over
    the generators (one packed add per residue and generator)."""
    w = r.bit_length() + 1
    fields = range(0, w * m, w)
    offset = sum(((1 << (w - 1)) - r) << f for f in fields)
    top = sum(1 << (f + w - 1) for f in fields)

    def add(x: int, g: int) -> int:
        s = x + g
        return s - (((s + offset) & top) >> (w - 1)) * r

    gens = [sum((v % r) << f for v, f in zip(row, fields)) for row in rows]
    return frozenset(orbit(0, gens, add))


def sublattice_count_by_row_spans(r: int, m: int, exhaustive: bool = False) -> int:
    """Index-r sublattices of Z^m counted by the residue span of each
    candidate's rows, r^(m-1) residues per candidate: the route
    ``series.sublattice_count_bruteforce`` still takes for m <= 2 and took
    for every m before it deduplicated by annihilators."""
    seen = set()
    for rows in _generator_rows(r, m, exhaustive):
        span = _residue_span(rows, r, m, _packing(r, m))
        if len(span) != r ** (m - 1):
            raise InputError("candidate lattice has the wrong index")
        seen.add(span)
    return len(seen)


def annihilator_bfs(rows: list, r: int, m: int) -> frozenset:
    """{y in (Z/r)^m : rows . y = 0 mod r}, packed as
    ``series._residue_span`` packs it, by testing all r^m vectors y."""
    w = r.bit_length() + 1
    return frozenset(
        sum(v << (w * i) for i, v in enumerate(y))
        for y in itertools.product(range(r), repeat=m)
        if all(sum(a * b for a, b in zip(row, y)) % r == 0 for row in rows)
    )


def type_entries(k: int, size: int) -> list:
    """Every map (index, cycle length r) -> multiplicity m with indices
    below k and sum of r * m equal to ``size``, as sorted entry tuples
    (((index, r), m), ...) without zero multiplicities, by a flat
    recursion over the keys."""
    keys = [(c, r) for c in range(k) for r in range(1, size + 1)]

    out = []

    def rec(i: int, remaining: int, acc: list) -> None:
        if remaining == 0:
            out.append(tuple(acc))
            return
        if i == len(keys):
            return
        (c, r) = keys[i]
        if r > remaining:
            # the later lengths of class c are longer still
            rec((c + 1) * size, remaining, acc)
            return
        rec(i + 1, remaining, acc)
        for m in range(1, remaining // r + 1):
            rec(i + 1, remaining - r * m, acc + [((c, r), m)])

    rec(0, size, [])
    return out
