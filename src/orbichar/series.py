"""Exact truncated power series and the wreath generating-function identities.

Everything here is coefficient-exact over Q: a TruncatedSeries is a tuple of
exact rationals c_0..c_N (ints where given ints, else Fractions), and identity
checks are plain equality of coefficients, never tolerances.

The identities themselves compare a *computed* left side against a *formula*
right side:

* exp formula: sum over n of chi_ES of the n-th wreath symmetric product
  equals exp(q * chi_ES),
* main product formula: the chi_(m) series equals a product of factors
  (1-q^r) raised to -J_{r,m} * chi_(m), where J_{r,m} counts index-r
  sublattices of Z^m,
* Macdonald dimension formulas: homology dimensions of quotients (and of
  their Z-sector decompositions) have geometric-series generating functions.

The exp and main left sides, on every complex, are fixed-point counts over
the product cells of M^n: one factor per orbit of simplices (a point is
one), each a signed power of one series per stabilizer, keyed by the
group and m alone.  That series is a recursion through the centralizer
decomposition of wreath conjugacy classes that builds no wreath product,
so it reaches sizes far past any multiplication table.  Macdonald's left
sides are read off the explicit, triangulated wreath powers; the routes
overlap at small n.
"""
from __future__ import annotations

import itertools
import math
import operator
from collections import Counter
from dataclasses import dataclass
from fractions import Fraction

from .complexes import betti_numbers, signed_total_dimension
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
)
from .groups import FiniteGroup, conjugacy_classes, subgroup
from .homs import free_abelian
from .sectors import chi_m_top, gamma_sectors
from .wreath import class_centralizers, type_counts


# ---------------------------------------------------------------------------
# truncated series with exact rational coefficients


def same_order(a, b) -> int:
    """The common truncation order of two series, else InputError."""
    if a.order != b.order:
        raise InputError(f"series orders differ: {a.order} vs {b.order}")
    return a.order


@dataclass(frozen=True)
class TruncatedSeries:
    """Coefficients c_0..c_N of a power series in q, truncated at q^N: ints
    where the series is integral, so integer series multiply as ints, and
    Fractions otherwise."""

    coefficients: tuple

    @property
    def order(self) -> int:
        return len(self.coefficients) - 1

    @classmethod
    def one(cls, order: int) -> "TruncatedSeries":
        if order < 0:
            raise InputError("truncation order must be >= 0")
        return cls((1,) + (0,) * order)

    def __mul__(self, other: "TruncatedSeries") -> "TruncatedSeries":
        top = same_order(self, other)
        right = [(j, b) for j, b in enumerate(other.coefficients) if b]
        out = [0] * (top + 1)
        for i, a in enumerate(self.coefficients):
            if a:
                for j, b in right:
                    if i + j > top:
                        break
                    out[i + j] += a * b
        return TruncatedSeries(tuple(out))

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


def _integer_exponent(value, what: str) -> int:
    if isinstance(value, bool):
        raise NonIntegerExponent(f"{what} must be an integer, got {value!r}")
    if isinstance(value, int):
        return value
    frac = Fraction(value)
    if frac.denominator != 1:
        raise NonIntegerExponent(f"{what} must be an integer, got {frac}")
    return int(frac)


# ---------------------------------------------------------------------------
# sublattice counts J_{r,m}


# Residues the jcount brute force may close in all, counting each entry of
# its m x m generator matrices and each adjugate step as one: the sum of
# J_{r,m} * (r^(m-1) + m^2), or J_{r,m} * (r + m^2 + m (m+1) (m+2) / 6) for
# m >= 3.
JCOUNT_RESIDUE_CAP = 2 * 10**6


def _divisors(r: int) -> list:
    return [d for d in range(1, r + 1) if r % d == 0]


def _ordered_factorizations(r: int, m: int):
    """All tuples (j_1..j_m) of positive integers with product r, in
    lexicographic order: the diagonals of the brute force's normal forms.
    The walk keeps its own stack, so a large m costs no recursion depth;
    once the product is used up, the remaining coordinates are all 1."""
    stack = [((), r)]
    while stack:
        prefix, rest = stack.pop()
        if rest == 1 or len(prefix) == m - 1:
            yield prefix + (rest,) + (1,) * (m - 1 - len(prefix))
            continue
        for d in reversed(_divisors(rest)):
            stack.append((prefix + (d,), rest // d))


def subgroup_count(r: int, m: int) -> int:
    """J_{r,m}: the number of index-r subgroups of Z^m.

    Its Dirichlet series is zeta(s) zeta(s-1) ... zeta(s-m+1), so J_{r,m}
    is multiplicative in r, and at a prime power it is the Gaussian
    binomial

        J_{p^e,m} = prod over i = 1..m-1 of (p^(e+i) - 1) / (p^i - 1).

    The product through i is itself a Gaussian binomial, an integer, so
    every division is exact.
    """
    if r < 1 or m < 1:
        raise InputError(f"subgroup counts need r, m >= 1, got r={r}, m={m}")
    out, p = 1, 2
    while r > 1:
        if p * p > r:
            p = r  # what is left of r is prime
        if r % p == 0:
            top, bottom, factor = 1, 1, 1
            while r % p == 0:
                r //= p
                top *= p  # p^e, then p^(e+i)
            for _ in range(1, m):
                top *= p
                bottom *= p
                factor = factor * (top - 1) // (bottom - 1)
            out *= factor
        p += 1
    return out


def sublattice_count_bruteforce(r: int, m: int, exhaustive: bool = False) -> int:
    """Count index-r sublattices of Z^m by explicit enumeration.

    Candidates are upper-triangular generator matrices B (diagonal product
    r).  Off-diagonal entries range over the column's diagonal -- one
    candidate per normal form -- or, with ``exhaustive``, over all of
    0..r-1, which revisits each lattice many times and so also checks that
    no lattice is reachable only outside the normal ranges.

    The rows of B span a lattice L that contains r*Z^m.  As the dot product
    on (Z/r)^m is perfect, L is told apart by L^perp = {y : B y = 0 mod r},
    the span mod r of the columns of adj(B) = r B^-1: B adj(B) = r I, and
    adj(B) Z^m contains r Z^m with index r^(m-1), so its image has order r.
    For m <= 2 the row span (r^(m-1) <= r residues, no adjugate) is used.
    """
    if r < 1 or m < 1:
        raise InputError(f"sublattice counts need r, m >= 1, got r={r}, m={m}")
    packing = _packing(r, m)
    order = r if m > 2 else r ** (m - 1)
    seen = set()
    for rows in _generator_rows(r, m, exhaustive):
        vectors = _adjugate_columns(rows, r) if m > 2 else rows
        span = _residue_span(vectors, r, m, packing)
        if len(span) != order:
            raise InputError("candidate lattice has the wrong index")
        seen.add(span)
    return len(seen)


def capped_jcount_formulas(r_max: int, m_max: int) -> list:
    """The (r, m, J_{r,m}) of every r <= r_max and m <= m_max, once the
    work of ``sublattice_count_bruteforce`` on them is predicted within
    ``JCOUNT_RESIDUE_CAP``; else CapExceeded, before any span is closed.

    Each normal form fills an m x m matrix and closes a span of r^(m-1)
    residues, or from m = 3 on of r residues after m (m+1) (m+2) / 6
    adjugate steps.  Every row closes at least one residue, so the row
    count is checked first.
    """
    cap = JCOUNT_RESIDUE_CAP

    def over_cap(residues: int, where: str, entries: int = 0) -> CapExceeded:
        filled = (
            f" and takes {entries} matrix entries and adjugate steps,"
            f" {residues + entries} in all"
            if entries
            else ""
        )
        return CapExceeded(
            f"jcount brute force closes at least {residues} residues ({where})"
            f"{filled}, above the residue cap {cap}"
        )

    if r_max * m_max > cap:
        raise over_cap(r_max * m_max, "one per row")
    formulas = []
    residues = entries = 0
    for m in range(1, m_max + 1):
        adjugate = m * (m + 1) * (m + 2) // 6 if m > 2 else 0
        for r in range(1, r_max + 1):
            formula = subgroup_count(r, m)
            residues += formula * (r if m > 2 else r ** (m - 1))
            entries += formula * (m * m + adjugate)
            if residues + entries > cap:
                # the entries are named where the residues alone fit
                named = entries if residues <= cap else 0
                raise over_cap(residues, f"through r={r}, m={m}", named)
            formulas.append((r, m, formula))
    return formulas


def _adjugate_columns(rows: list, r: int) -> list:
    """The columns of adj(B) = r B^-1 for the upper-triangular B with these
    rows, each cut after its diagonal entry, by back substitution in B adj(B)
    = r I; a remainder (det B is not r) raises the wrong-index InputError."""
    columns = []
    for j in range(len(rows)):
        col = [0] * j + [r]
        for i in range(j, -1, -1):
            row, rest = rows[i], col[i]
            for k in range(i + 1, j + 1):
                rest -= row[k] * col[k]
            col[i], remainder = divmod(rest, row[i])
            if remainder:
                raise InputError("candidate lattice has the wrong index")
        columns.append(col)
    return columns


def _generator_rows(r: int, m: int, exhaustive: bool = False):
    """The candidate generator matrices of ``sublattice_count_bruteforce``,
    each as a list of m rows."""
    positions = [(i, j) for i in range(m) for j in range(i + 1, m)]
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
            yield rows


def _packing(r: int, m: int) -> tuple:
    """How ``_residue_span`` packs (Z/r)^m.  Coordinate i fills bits w*i ..
    w*i + w - 1, with w = r.bit_length() + 1, so a field holds the sum of two
    residues without a carry into the next.  A sum mod r adds the packed
    ints, then adds 2^(w-1) - r to every field (the offset): its top bit is
    set exactly where the sum reached r, and r is subtracted there."""
    w = r.bit_length() + 1
    fields = range(0, w * m, w)
    offset = sum(((1 << (w - 1)) - r) << f for f in fields)
    top = sum(1 << (f + w - 1) for f in fields)
    return fields, offset, top, w - 1


def _residue_span(vectors: list, r: int, m: int, packing: tuple) -> frozenset:
    """The subgroup of (Z/r)^m generated by the vectors, packed by ``packing``
    = ``_packing(r, m)``: the sum S of their cyclic subgroups, in order.  The
    multiples of the next vector g run until one, t g, lies in S (t = 1 for
    g = 0 mod r); S + <g> is the union of the t disjoint cosets S + k g,
    k < t, so each of its residues comes from exactly one packed add."""
    fields, offset, top, high = packing
    span = {0}
    for vector in vectors:
        g = 0
        for v, f in zip(vector, fields):
            g += (v % r) << f
        multiples = [0]
        x = g
        while x not in span:
            multiples.append(x)
            x += g
            x -= (((x + offset) & top) >> high) * r
        if len(multiples) > 1:
            span = {
                (s := a + b) - (((s + offset) & top) >> high) * r
                for a in span
                for b in multiples
            }
    return frozenset(span)


# ---------------------------------------------------------------------------
# right-hand sides


def rhs_exp_formula(chi_es, order: int) -> TruncatedSeries:
    """exp(q * chi_ES), the Euler-Satake generating function."""
    if order < 0:
        raise InputError("truncation order must be >= 0")
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
    out = TruncatedSeries.one(order)  # refuses a negative order
    if m == 0:
        return _binomial_factor(1, chi_int, order)
    for r in range(1, order + 1):
        j = subgroup_count(r, m)
        out = out * _binomial_factor(r, j * chi_int, order)
    return out


def binomial_coefficients(k: int, c: int, count: int) -> list:
    """The first ``count`` coefficients of (1 + c z)^k, for any int k and
    int c: b_i = C(k, i) * c^i, with C(k, i) = k (k-1) ... (k-i+1) / i!.
    b_i * (k - i) * c is (i + 1) * b_(i+1), so each division is exact,
    negative k included; for k >= 0 the row ends in zeros past i = k."""
    out = []
    b = 1
    for i in range(count):
        out.append(b)
        b = b * (k - i) * c // (i + 1)
    return out


def _binomial_factor(r: int, k: int, order: int) -> TruncatedSeries:
    """(1 - q^r)^(-k) truncated at q^order, for r >= 1 and any int k.
    Its coefficient of q^(r*i) is C(k + i - 1, i) = (-1)^i C(-k, i)."""
    coeffs = [0] * (order + 1)
    coeffs[::r] = binomial_coefficients(-k, -1, order // r + 1)
    return TruncatedSeries(tuple(coeffs))


# ---------------------------------------------------------------------------
# structural chi_(m) for wreath products over a point

# _POINT_CHI_CACHE maps (group, m) to the coefficients of F^m_group, the
# series of ``_point_chi_coefficients``, as far as they have been asked
# for.  Groups hash and compare by their tables, so equal groups share
# entries no matter how they were built.
_POINT_CHI_CACHE: dict = {}


def point_wreath_chi_m(group: FiniteGroup, size: int, m: int) -> int:
    """chi_(m) of the one-point quotient by the wreath product G ~ S_size.

    Over a point, chi_(m) counts conjugacy classes of commuting m-tuples.
    Splitting a tuple as (w, tuple commuting with w) gives the recursion

        chi_(m) = sum over classes (w) of chi_(m-1) of pt x C(w),

    and the centralizer of an element of a given type is a direct product,
    over the (class c, cycle length r) pairs, of wreath products
    E(c, r) ~ S_mult of the groups attached to single cycles
    (Bryan and Fulman, Ann. Comb. 2, 1998): C_G(c) extended by a central
    a with a^r = c.  A type is any choice of multiplicities, so the sum
    over types factors:

        sum_n chi_(m)(pt x G ~ S_n) q^n
            = prod over (c, r) of F^(m-1)_E(c, r)(q^r),

    where F^m_E(q) = sum_k chi_(m)(pt x E ~ S_k) q^k.  C_G(c) has index r
    in E(c, r) = C_G(c)<a>, a central, so F^(m-1)_E(c, r) is F^(m-1)_C_G(c)
    to the power r^(m-1) (``_point_chi_coefficients``): no extension group
    or wreath table is built, and the cost is polynomial in ``size``.

    It reads class lists and never calls J_{r,m}; the right side of
    ``verify main`` takes chi_(m) from the abelian subgroup lattice
    (``sectors.chi_m_top``) instead.
    """
    if size < 0 or m < 0:
        raise InputError("size and m must be nonnegative")
    if m == 0 or size == 0:
        return 1
    return _point_chi_coefficients(group, m, size)[size]


def _point_chi_coefficients(group: FiniteGroup, m: int, order: int) -> list:
    """Coefficients 0..order (or more) of F^m_H, H = ``group``, as ints:
    F^0 = 1 / (1 - q), F^1_H = prod over r >= 1 of (1 - q^r)^(-k(H))
    (``type_counts``), and for m >= 2

        F^m_H(q) = prod over classes h of H, r >= 1, of F^(m-1)_C_H(h)(q^r)^(r^(m-1))
                 = prod over r >= 1 of B(q^r)^(r^(m-1)),  B = prod over h of F^(m-1)_C_H(h).

    For E = H.A, A central of index N, coefficient k of F^m_(H, N),e is the
    average of e^(orbits of the image on the k factors) over Hom(Z^(m+1),
    E ~ S_k).  E's classes are H's times A, with centralizers C_H(h).A; an
    r-th root of h a extends C_H(h) centrally with index N r; the orbits
    are the last level's, so e passes down.  So ``point_wreath_chi_m``'s
    decomposition gives F^0_e = (1 - q)^(-e), F^1_(H, N),e = (F^1_H)^(e N)
    and F^m_(H, N),e = prod over h, r of F^(m-1)_(C_H(h), N r),e(q^r)^N.
    Power law: F^m_(H, N),e = (F^m_H)^(e N^m).  The bases read it off, and
    by induction on m the step is

        prod over h, r of F^(m-1)_(C, N r),e(q^r)^N
            = prod over h, r of F^(m-1)_C(q^r)^(e (N r)^(m-1) N) = (F^m_H)^(e N^m),

    at (H, 1),1 the recursion above.  Only centralizer subgroups of G are
    built, each once per group (``class_centralizers``).
    """
    key = (group, m)
    cached = _POINT_CHI_CACHE.get(key)
    if cached is not None and len(cached) > order:
        return cached
    if m == 0:
        out = [1] * (order + 1)
    elif m == 1:
        out = type_counts(len(conjugacy_classes(group)), order)
    else:  # the classes' factors at q^r are the r-th stretch of their product
        cents = class_centralizers(group)
        base = _point_chi_coefficients(cents[0], m - 1, order)[: order + 1]
        for cent in cents[1:]:
            _times(base, _point_chi_coefficients(cent, m - 1, order), 1)
        out = base[:]
        for r in range(2, order + 1):
            _times(out, _miller_power(base, r ** (m - 1), order // r), r)
    _POINT_CHI_CACHE[key] = out
    return out


def _times(out: list, factor: list, r: int) -> None:
    """Multiply the coefficient list ``out`` in place by factor(q^r)."""
    before = out[:]
    for at, f in zip(range(r, len(out), r), factor[1:]):
        out[at:] = map(operator.add, out[at:], map(f.__mul__, before))


def _miller_power(a: list, exponent: int, order: int) -> list:
    """Coefficients 0..order of a^k, k = ``exponent`` any int, for a list a
    with a_0 = 1 through a_order, by Miller's power recurrence: a p' = k a' p
    gives n p_n = sum over i = 1..n of ((k + 1) i - n) a_i p_(n-i), an exact
    division for integral a, summed as (k + 1) sum(i a_i p_(n-i)) - n
    sum(a_i p_(n-i))."""
    if exponent == 1:
        return a[: order + 1]
    p, weighted = [1], [i * x for i, x in enumerate(a[: order + 1])]
    for n in range(1, order + 1):
        back = p[::-1]  # p_(n-1) .. p_0
        first, plain = (sum(map(operator.mul, b[1 : n + 1], back)) for b in (weighted, a))
        p.append(((exponent + 1) * first - n * plain) // n)
    return p


# ---------------------------------------------------------------------------
# left-hand sides


def _wreath_terms(
    rec: RegularEquivariantComplex, order: int, on_point, on_power, built: dict
) -> tuple:
    """Coefficients 0..order of a wreath series, as (values, note), from the
    triangulated wreath powers (Macdonald's route).

    On a one-point complex they are ``on_point()``, a list through at least
    ``order``, read once.  Otherwise coefficient 0 is 1 and coefficient n
    is ``on_power`` of the regularized n-th wreath power, which is kept in
    ``built`` under n, so callers that pass the same dict build it once.
    The values stop at the first n whose power or term trips a cap; note
    is then that cap's message naming n, and None when every term landed.
    """
    if len(rec.cx.vertices) == 1:
        return on_point()[: order + 1], None
    values = [1]
    for n in range(1, order + 1):
        try:
            if n not in built:
                built[n] = regularize(power_with_wreath_action(rec, n)[0])
            values.append(on_power(built[n]))
        except CapExceeded as exc:
            return values, f"wreath power n={n}: {exc}"
    return values, None


def _cell_blocks(rec: RegularEquivariantComplex) -> Counter:
    """The simplex orbits of the base, counted by (stabilizer as a group,
    whether the dimension is odd): the blocks of ``_cell_terms``' product.
    A block's factor depends only on the stabilizer's table, so stabilizers
    with equal tables share a block."""
    ec = rec.ec
    blocks, seen = Counter(), set()
    for t in ec.cx.simplices:  # t opens its orbit, as in ``groups.orbits``
        if t not in seen:
            at = [ec._vpos[v] for v in t]  # t's columns of the action rows
            images = [tuple(sorted([row[i] for i in at])) for row in ec.action]
            seen.update(images)
            stab = [g for g, image in enumerate(images) if image == t]
            blocks[subgroup(rec.group, stab)[0], len(t) % 2 == 0] += 1  # True: odd dimension
    return blocks


def _cell_terms(
    rec: RegularEquivariantComplex, order: int, m, blocks: Counter | None = None
) -> list:
    """Coefficients 0..order of sum_n chi(M^n x| G~S_n) q^n: chi_ES when m
    is None, else chi_(m), summed over product cells with no power built,
    from ``blocks`` = ``_cell_blocks(rec)`` (computed when not given).

    W = G~S_n permutes the open cells e = s_1 x ... x s_n of M^n.  By
    Tamanoi's fixed-point form (Algebr. Geom. Topol. 1, 2001), chi_(m) is
    (1/|W|) times the sum over phi in Hom(Z^(m+1), W) of chi(Fix <phi>).
    A point fixed by <phi> lies in a cell that <phi> preserves, and there
    the fixed set is an open ball, so chi_(m)(M^n x| W) is the sum over
    W-orbits of cells e of (1/|W_e|) sum_(phi in Hom(Z^(m+1), W_e))
    (-1)^dim Fix_phi(e).  An orbit of cells takes k_t factors from each
    simplex orbit t of M (sum k_t = n); let the cell repeat t's least
    simplex.  The base is regular, so the stabilizer G_t fixes t
    vertexwise: W_e is the product of the G_t~S_(k_t), whose tuple parts
    act trivially on the cell.  Fix_phi(e) is then the points constant
    along each <phi>-orbit of factors, of dimension the sum over those
    orbits of dim t, with sign the product of e_t^(orbits), e_t =
    (-1)^dim t.  So the series is the product over simplex orbits t of
    sum_k a_t(k) q^k, a_t(k) the average of e_t^(orbits of <phi> on the k
    factors) over Hom(Z^(m+1), G_t~S_k): F^m_(G_t, 1),e_t = (F^m_G_t)^e_t
    by the power law of ``_point_chi_coefficients``.  A block of count_t
    such orbits gives (F^m_G_t)^(e_t count_t), by ``_miller_power`` save
    (1 - q)^(-e_t count_t) at m = 0 and, at m = 1, an odd block's inverse
    prod over r of (1 - q^r)^k(G_t).  chi_ES takes the trivial phi alone:
    the block's a(k) is (e_t count_t [G : G_t])^k held over |G|^k k!, so
    products are binomial convolutions of ints.  A point is one orbit,
    with stabilizer G and e = 1.  Nothing here reads a sector, the
    Euler-Satake sum or a J_{r,m}.
    """
    group, exponential = rec.group, m is None
    if blocks is None:
        blocks = _cell_blocks(rec)
    values = [1] + [0] * order  # the empty product
    for j, ((base, odd), count) in enumerate(blocks.items()):
        exponent = -count if odd else count
        if exponential:
            x = exponent * (group.order // base.order)
            a = [x**k for k in range(order + 1)]
        elif m == 0:  # F^0 = 1 / (1 - q)
            a = binomial_coefficients(-exponent, -1, order + 1)
        elif m == 1 and odd:  # (F^1)^-1 = prod over r of (1 - q^r)^k(G_t)
            a = _miller_power(type_counts(-len(conjugacy_classes(base)), order), count, order)
        else:
            a = _miller_power(_point_chi_coefficients(base, m, order), exponent, order)
        if j == 0:  # the product so far is 1; a is a fresh list, never cached
            values = a
        elif exponential:
            values = [
                sum(w[i] * values[i] * a[n - i] for i in range(n + 1))
                for n, w in enumerate(_weight_rows(order))
            ]
        else:  # every block series starts with 1
            _times(values, a, 1)
    if exponential:
        return [Fraction(v, group.order**n * math.factorial(n)) for n, v in enumerate(values)]
    return values


def _weight_rows(order: int):
    """Rows n = 0..order of the weights C(n, i) of x_i y_(n-i) in
    coefficient n of a product of series held over k! (chi_ES)."""
    row = [1]
    for n in range(order + 1):
        yield row
        row = [1, *map(operator.add, row, row[1:]), 1]


# ---------------------------------------------------------------------------
# identity reports


def _compare_report(lhs_values: list, rhs: TruncatedSeries, note=None) -> dict:
    mismatch = None
    for i, value in enumerate(lhs_values):
        if value != rhs.coefficients[i]:
            mismatch = i
            break
    feasible = len(lhs_values) - 1
    out = {
        "lhs": [str(v) for v in lhs_values],
        "rhs": [str(c) for c in rhs.coefficients],
        "equal_up_to": feasible if mismatch is None else mismatch - 1,
        "equal": mismatch is None and feasible == rhs.order,
    }
    if mismatch is not None:
        out["mismatch_index"] = mismatch
    if note is not None:
        out["cap"] = note
    return out


# Most digits a printed integer may have: Python's default limit for
# ``str`` of an int.
PRINTED_DIGITS_CAP = 4300

# Most coefficient products an exp or main check may take before it runs.
SERIES_WORK_CAP = 2 * 10**8

# Largest m a main check takes: the left side's recursion and its work
# prediction descend one stack frame per level of m, and half of Python's
# default limit of 1000 frames leaves the rest to their callers.
MAIN_M_CAP = 500


def exp_printed_digits(chi: Fraction, order: int) -> int:
    """Digits of max(|a|, b)^order * order! for chi = a/b (1 when a = 0),
    which bounds every numerator and denominator of chi^n / n!, n <= order.

    Estimated from logarithms, as ``WreathProduct.order_text`` does; the
    product is computed only when the estimate is within a few digits of
    ``PRINTED_DIGITS_CAP``, so the cap is exact where it matters."""
    if not chi:
        return 1
    base = max(abs(chi.numerator), chi.denominator)
    estimate = order * math.log10(base) + math.lgamma(order + 1) / math.log(10)
    if abs(estimate - PRINTED_DIGITS_CAP) > 3:
        return math.floor(estimate) + 1
    bound = base**order * math.factorial(order)
    digits = max(math.floor(estimate) - 2, 0)
    while 10**digits <= bound:
        digits += 1
    return digits


def main_printed_digits(m: int, chi: int, order: int) -> int:
    """Digits bounding chi and every coefficient, through q^order, of the
    main formula's product P = prod over r <= order of (1 - q^r)^(-J_{r,m}
    chi) (``rhs_main_formula``), before it is multiplied out.

    P is bounded coefficientwise by its majorant F, the same product with
    |chi|, whose coefficients are positive and grow with n.  As (1 - q^r)^-1
    <= (1 - q)^-1, F <= (1 - q)^-T with T = |chi| sum over r of J_{r,m},
    so every coefficient is at most C(T + order - 1, order) <= (T +
    order)^order / order!.  That bound is returned when it is within
    ``PRINTED_DIGITS_CAP``.  Otherwise Cauchy's bound is taken: for every
    x in (0, 1) each coefficient through q^order is at most F(x) / x^order,
    which with x = e^-s is the exponential of

        f(s) = order s + |chi| sum over r of J_{r,m} L(r s),  L(t) = -log(1 - e^-t),

    a convex function of s, whose least value a golden-section search on
    log s approaches from above (any s gives a bound).  It stays within a
    few digits of the largest coefficient on the point probes.
    """
    digits = math.floor(abs(chi).bit_length() * math.log10(2)) + 1
    if order < 1 or chi == 0:
        return digits
    # at m = 0 the product is (1 - q)^(-chi) alone
    js = [subgroup_count(r, m) for r in range(1, order + 1)] if m else [1]
    binomial = order * math.log10(abs(chi) * sum(js) + order)
    binomial -= math.lgamma(order + 1) / math.log(10)
    if binomial * (1 + 1e-9) < PRINTED_DIGITS_CAP:  # float rounding, upward
        return max(digits, math.floor(binomial * (1 + 1e-9)) + 1)
    logs = [math.log(j * abs(chi)) for j in js]

    def f(s: float) -> float:
        total = order * s
        for r, log_j in enumerate(logs, 1):
            t = r * s
            # log L(t), or above it by less than 1e-12 past t = 30
            log_l = math.log(-math.log1p(-math.exp(-t))) if t < 30 else 1e-12 - t
            if log_j + log_l > 700:  # past floats: this s bounds nothing useful
                return math.inf
            total += math.exp(log_j + log_l)
        return total

    golden = (math.sqrt(5) - 1) / 2
    lo, hi = math.log(1e-9), math.log(1e6)
    a, b = hi - golden * (hi - lo), lo + golden * (hi - lo)
    fa, fb = f(math.exp(a)), f(math.exp(b))
    for _ in range(60):
        if fa <= fb < math.inf:  # the least value is left of b
            hi, b, fb = b, a, fa
            a = hi - golden * (hi - lo)
            fa = f(math.exp(a))
        else:
            lo, a, fa = a, b, fb
            b = lo + golden * (hi - lo)
            fb = f(math.exp(b))
    nats = min(fa, fb) * (1 + 1e-9)  # float rounding, upward
    return max(digits, math.floor(nats / math.log(10)) + 1)


def check_series_work(identity: str, order: int, m, blocks: Counter) -> int:
    """The coefficient products the exp (m None) or main check to ``order``
    predicts on the cell product ``blocks`` (``_cell_blocks``), before
    either side runs; CapExceeded, with the sum so far, once it passes
    ``SERIES_WORK_CAP``.

    The rule, with D = (order + 1)^2 for a product or power of two series:
    the right side takes D for chi_ES (its exponential), order + 1 at
    m = 0, or (order + 1) (order // r + 1) per factor r <= order.  The
    left side takes D per block for its product with the blocks before,
    and no more for chi_ES or at m = 0.  At m = 1 an odd block takes k(G_t)
    order (order + 1) / 2 for its inverse and D for its power (count above
    1); any other block D for its ``_miller_power`` (exponent other than 1)
    and its recursion as it runs (``_recursion_work``)."""
    work, seen = 0, {}

    def add(products: int) -> None:
        nonlocal work
        work += products
        if work > SERIES_WORK_CAP:
            raise CapExceeded(
                f"{identity} to order {order} predicts at least {work} coefficient"
                f" products, above the series-work cap {SERIES_WORK_CAP}"
            )

    dense = (order + 1) ** 2
    if m is None or m == 0:
        add(dense if m is None else order + 1)
    for r in range(1, order + 1 if m else 1):
        add((order + 1) * (order // r + 1))
    for j, ((base, odd), count) in enumerate(blocks.items()):
        add(dense * (j > 0))
        if m == 1 and odd:  # type counts of the inverse, then the power
            add(len(conjugacy_classes(base)) * order * (order + 1) // 2)
            add(dense * (count > 1))
        elif m:
            add(dense * (odd or count > 1))
            _recursion_work(base, m, order, seen, add)
    return work


def _recursion_work(group, m: int, n: int, seen, add) -> None:
    """Pass ``add`` a bound on the products of ``_point_chi_coefficients(
    group, m, n)``, m >= 1, skipping a key that ``seen`` (key -> order) or
    the cache holds at order n or more: k(H) n (n + 1) / 2 at m = 1, else
    per class of H and r <= n, (n + 1) (n // r + 1) for a product with a
    factor at q^r and, for r > 1, (n // r + 1)^2 for its power.  The node
    takes those per r once, for the classes' product, and (k(H) - 1) (n +
    1)^2 to form it; the rest is room for the numbers' growth, unseen by a
    count, without which admitted orders would run several times longer."""
    key = (group, m)
    if seen.get(key, -1) >= n or len(_POINT_CHI_CACHE.get(key, ())) > n:
        return
    seen[key] = n
    if m == 1:
        add(len(conjugacy_classes(group)) * n * (n + 1) // 2)
        return
    cents = class_centralizers(group)
    tops = [n // r + 1 for r in range(1, n + 1)]
    add(len(cents) * ((n + 1) * sum(tops) + sum(t * t for t in tops[1:])))
    for cent in cents:  # each child is asked for through order n
        _recursion_work(cent, m - 1, n, seen, add)


def verify_exp_formula(rec: RegularEquivariantComplex, order: int) -> dict:
    """Check sum of chi_ES(n-th wreath product) q^n = exp(q chi_ES).

    Raises CapExceeded, before any term is computed, when the numbers of
    either side could pass ``PRINTED_DIGITS_CAP``: chi_ES = a/b has |a| <=
    S, the number of simplices, and b <= |G|, and the left side holds
    coefficient k as about S^k over |G|^k k!, so max(S, |G|)^order *
    order! bounds both (on a point, 1/(|G|^order * order!) is the last
    term); or when ``check_series_work`` does."""
    chi = euler_satake(rec)
    blocks = _cell_blocks(rec)
    bound = max(len(rec.cx.simplices), rec.group.order)
    digits = exp_printed_digits(Fraction(bound), order) if order > 0 else 1
    if digits > PRINTED_DIGITS_CAP:
        raise CapExceeded(
            f"exp formula to order {order} handles numbers of up to {digits}"
            f" digits ({bound}^order * order!, {bound} = max(simplices, |G|)),"
            f" above the printed-digit cap {PRINTED_DIGITS_CAP}"
        )
    check_series_work("exp formula", order, None, blocks)
    rhs = rhs_exp_formula(chi, order)
    values = _cell_terms(rec, order, None, blocks)
    report = {"identity": "exp-formula", "chi_es": str(chi), "order": order}
    report.update(_compare_report(values, rhs))
    return report


def verify_main_formula(rec: RegularEquivariantComplex, m: int, order: int) -> dict:
    """Check the chi_(m) wreath series against the J_{r,m} product formula.

    Raises CapExceeded, before either series is computed, when m passes
    ``MAIN_M_CAP``, when ``check_series_work`` does, or when the numbers
    that either side prints could pass ``PRINTED_DIGITS_CAP``: the sides
    are equal when the identity holds, so ``main_printed_digits`` bounds
    the left side's numbers too."""
    if m > MAIN_M_CAP:
        raise CapExceeded(
            f"main formula at m = {m} recurses {m} levels deep, above the"
            f" m cap {MAIN_M_CAP}"
        )
    blocks = _cell_blocks(rec)
    check_series_work(f"main formula at m = {m}", order, m, blocks)
    chi = chi_m_top(rec, m)
    digits = main_printed_digits(m, chi, order)
    if digits > PRINTED_DIGITS_CAP:
        raise CapExceeded(
            f"main formula at m = {m} to order {order} handles numbers of up to"
            f" {digits} digits (Cauchy's bound on the product's coefficients),"
            f" above the printed-digit cap {PRINTED_DIGITS_CAP}"
        )
    rhs = rhs_main_formula(m, chi, order)
    values = _cell_terms(rec, order, m, blocks)
    report = {
        "identity": "main-product-formula",
        "m": m,
        "chi": str(chi),
        "order": order,
    }
    report.update(_compare_report(values, rhs))
    return report


# ---------------------------------------------------------------------------
# Macdonald dimension formulas


def _quotient_dimension(rec: RegularEquivariantComplex) -> int:
    """Signed homology dimension of the orbit space."""
    return signed_total_dimension(betti_numbers(orbit_complex(rec)))


def _z_sector_dimension(rec: RegularEquivariantComplex) -> int:
    """Signed homology dimension summed over the Z-sector orbit spaces."""
    decomp = gamma_sectors(rec, free_abelian(1))
    return sum(decomp.per_sector(lambda s: _quotient_dimension(s.fixed)))


def macdonald_dimension_check(rec: RegularEquivariantComplex, order: int) -> dict:
    """Both dimension formulas, as one report.

    Part 1: signed homology dimensions of the wreath-product quotients have
    generating function (1-q)^(-D) with D the dimension for the quotient of
    the complex itself.  Part 2: the same with every space replaced by its
    Z-sector decomposition, where the right side becomes the product of
    (1-q^j)^(-D_Z) over j >= 1.

    Over a point, D = 1 and D_Z = k(G), one Z-sector per class.  Part 2
    is two computations there: its right side takes k(G) from the
    homomorphism walk of ``gamma_sectors``, which reads no class list,
    and its left side counts the types of G ~ S_n from the classes that
    ``groups.conjugacy_classes`` stores on G.
    """
    d1 = _quotient_dimension(rec)
    d2 = _z_sector_dimension(rec)

    # The m = 0 product is (1-q)^(-d1), and J_{r,1} = 1 for every r, so the
    # m = 1 product is that of (1-q^r)^(-d2) over r >= 1.
    rhs1 = rhs_main_formula(0, d1, order)
    rhs2 = rhs_main_formula(1, d2, order)

    # Both parts read the same wreath powers; each is built once.
    built: dict = {}
    lhs1, note1 = _wreath_terms(
        rec, order, lambda: [1] * (order + 1), _quotient_dimension, built
    )
    lhs2, note2 = _wreath_terms(
        rec,
        order,
        lambda: _point_chi_coefficients(rec.group, 1, order),
        _z_sector_dimension,
        built,
    )
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
