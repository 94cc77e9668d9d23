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

Left sides on a one-point complex come from a structural recursion through
the centralizer decomposition of wreath conjugacy classes, which reaches
sizes far past any multiplication table.  On any other complex, the exp and
main left sides are fixed-point counts over the product cells of M^n, and
Macdonald's are read off the explicit, triangulated wreath powers.  The
routes overlap at small n, which the tests exploit.
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
from .groups import FiniteGroup, conjugacy_classes, generators, orbit, orbits, subgroup
from .homs import _check_hom_cap, free_abelian
from .sectors import chi_m_top, gamma_sectors
from .wreath import WreathProduct, centralizer_extension, type_counts


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
    lexicographic order.  The walk keeps its own stack, so a large m
    costs no recursion depth; once the product is used up, the remaining
    coordinates are all 1."""
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

    Computed as the weighted factorization sum
    J_{r,m} = sum over j_1...j_m = r of j_2 * j_3^2 * ... * j_m^(m-1),
    which counts upper-triangular normal forms by their diagonals.
    """
    if r < 1 or m < 1:
        raise InputError(f"subgroup counts need r, m >= 1, got r={r}, m={m}")
    return sum(_weight(js) for js in _ordered_factorizations(r, m))


def _weight(js) -> int:
    """j_2 * j_3^2 * ... * j_m^(m-1): the number of upper-triangular normal
    forms with diagonal (j_1..j_m)."""
    return math.prod(j**i for i, j in enumerate(js))


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

# _POINT_CHI_CACHE maps (group, index, m) to the coefficients of
# F^m_(group, index), the series of ``_point_chi_coefficients``, as far as
# they have been asked for.  Groups hash and compare by their tables, so
# equal groups share entries no matter how they were built.
_POINT_CHI_CACHE: dict = {}


def point_wreath_chi_m(group: FiniteGroup, size: int, m: int) -> int:
    """chi_(m) of the one-point quotient by the wreath product G ~ S_size.

    Over a point, chi_(m) counts conjugacy classes of commuting m-tuples.
    Splitting a tuple as (w, tuple commuting with w) gives the recursion

        chi_(m) = sum over classes (w) of chi_(m-1) of pt x C(w),

    and the centralizer of an element of a given type is a direct product,
    over the (class c, cycle length r) pairs, of wreath products
    E(c, r) ~ S_mult of the groups attached to single cycles
    (``centralizer_extension``): C_G(c) extended by a central a with
    a^r = c.  A type is any choice of multiplicities, so the sum over
    types factors:

        sum_n chi_(m)(pt x G ~ S_n) q^n
            = prod over (c, r) of F_{E(c, r)}(q^r),

    where F_E(q) = sum_k chi_(m-1)(pt x E ~ S_k) q^k, and F_E = 1/(1-q) at
    m = 1.  ``_point_chi_coefficients`` evaluates the product through
    pairs (subgroup of G, index) that stand for the extension groups, so
    no extension group, and no table of a wreath product, is ever built;
    the cost is polynomial in ``size``.  The explicit route is compared
    with this one where they overlap.

    ``verify main`` on a point is two computations: this side recurses
    through centralizer subgroups, never calls J_{r,m} or
    ``rhs_main_formula``, and reads every class list from
    ``groups.conjugacy_classes``; the right side's chi_(m) comes from the
    homomorphism walk (``homs.hom_classes``), which reads no class list.
    """
    if size < 0 or m < 0:
        raise InputError("size and m must be nonnegative")
    if m == 0 or size == 0:
        return 1
    return _point_chi_coefficients(group, m, size)[size]


def _point_chi_coefficients(
    group: FiniteGroup, m: int, order: int, index: int = 1
) -> list:
    """Coefficients 0..order (or more) of F^m_(H, N), for m >= 1, as ints.

    (H, N) stands for a group E = H.A with A a central abelian subgroup
    and [E : H] = N, here H = ``group`` and N = ``index``; G itself is
    (G, 1), and F^m_(H, N) is sum_n chi_(m)(pt x E ~ S_n) q^n.  A being
    central, E conjugates as H does, so each coset H.a holds one class
    h.a per class of H: k(E) = N * k(H), and C_E(h.a) = C_H(h).A is
    (C_H(h), N) again.  The r-th root extension of h.a adjoins a central
    b with b^r = h.a, which gives (C_H(h), N * r).  So class counts and
    every deeper centralizer depend only on (H, N), not on which element
    of A the root was taken of, and

        F^1_(H, N) = prod over r >= 1 of (1 - q^r)^(-N k(H)),
        F^m_(H, N)(q) = prod over classes h of H, r >= 1, of
                        F^(m-1)_(C_H(h), N r)(q^r)^N.

    Only centralizer subgroups of G are built, each once for all r.
    """
    key = (group, index, m)
    cached = _POINT_CHI_CACHE.get(key)
    if cached is not None and len(cached) > order:
        return cached
    if m == 1:
        # every factor is 1/(1 - q^r): the coefficients count types
        out = type_counts(index * len(conjugacy_classes(group)), order)
    else:
        out = [1] + [0] * order
        for cls in conjugacy_classes(group):
            # the subgroup only: the recursion takes the degrees index * r
            cent, _ = centralizer_extension(group, cls.representative, 1)
            for r in range(1, order + 1):
                factor = _point_chi_coefficients(cent, m - 1, order // r, index * r)
                # multiply by factor(q^r) N times, top coefficient first
                for _ in range(index):
                    for i in range(order, r - 1, -1):
                        terms = map(operator.mul, factor[1 : i // r + 1], out[i - r :: -r])
                        out[i] += sum(terms)
    _POINT_CHI_CACHE[key] = out
    return out


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


def _cell_terms(rec: RegularEquivariantComplex, order: int, m) -> tuple:
    """Coefficients 0..order of sum_n chi(M^n x| G~S_n) q^n, as (values,
    note) like ``_wreath_terms``: chi_ES when m is None, else chi_(m),
    summed over product cells with no power built.

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
    factors) over Hom(Z^(m+1), G_t~S_k) (``_sign_averages``); chi_ES takes
    the trivial phi alone, a_t(k) = e_t^k / |G_t~S_k|.  Each factor is
    computed once per (stabilizer, sign) and raised to the number of its
    orbits.

    The terms stop at the first n whose W passes the table cap or, for
    m >= 1, whose |W|^m passes the hom cap, with the note the
    triangulated route gives there.  Nothing here reads a sector, the
    Euler-Satake sum or a J_{r,m}.
    """
    group, ec = rec.group, rec.ec
    top, note = order, None
    for n in range(1, order + 1):
        wreath = WreathProduct(group, n)
        try:
            wreath.check_table_order()
            if m:
                _check_hom_cap(free_abelian(m), wreath)
        except CapExceeded as exc:
            top, note = n - 1, f"wreath power n={n}: {exc}"
            break
    blocks = Counter()
    for members in orbits(
        ec.cx.simplices, lambda s: {ec.map_simplex(g, s) for g in group.elements()}
    ):
        t = members[0]
        stab = tuple(g for g in group.elements() if ec.map_simplex(g, t) == t)
        blocks[stab, len(t) % 2 == 0] += 1  # True for odd dimension
    levels = 0 if m is None else m + 1
    averages = {}
    values = [Fraction(1)] + [Fraction(0)] * top
    for (stab, odd), count in blocks.items():
        if stab not in averages:
            base, _ = subgroup(group, stab)
            averages[stab] = [
                _sign_averages(WreathProduct(base, k), levels) for k in range(top + 1)
            ]
        a = [pair[odd] for pair in averages[stab]]
        # p = a^count by Miller's power recurrence (a_0 = 1), whatever the
        # count: n p_n = sum over i >= 1 of ((count + 1) i - n) a_i p_(n-i)
        p = [Fraction(1)] * (top + 1)
        for n in range(1, top + 1):
            terms = (((count + 1) * i - n) * a[i] * p[n - i] for i in range(1, n + 1))
            p[n] = sum(terms) / n
        values = [
            sum(values[i] * p[n - i] for i in range(n + 1)) for n in range(top + 1)
        ]
    return values, note


def _sign_averages(wreath: WreathProduct, levels: int) -> tuple:
    """The averages of 1 and of (-1)^(orbits of <phi> on the factors) over
    phi in Hom(Z^levels, W), W = ``wreath``.

    Bryan and Fulman's class-first walk (Ann. Comb. 2, 1998): the average
    over Hom(Z^j, H) of a conjugation-invariant f is the sum over classes
    (x) of H of the average over Hom(Z^(j-1), C_H(x)) of f(x, .).  Classes
    are generator orbits under conjugation, centralizers are filtered from
    the members, and the last image runs over the members as they are.
    A node's value depends only on its members, the orbits of the images
    chosen so far and the images left, so each such node is walked once.
    """
    size = wreath.size
    identity = tuple(range(size))  # the permutation of the empty tuple
    commute = wreath.commute
    walked = {}

    def walk(members: list, gens, perms: list, left: int) -> tuple:
        if left <= 1:
            lasts = Counter(x.perm for x in members) if left else {identity: 1}
            tally = [0, 0]
            for perm, count in lasts.items():
                tally[len(_factor_orbits(perms + [perm], size)) % 2] += count
            return (
                Fraction(tally[0] + tally[1], len(members)),
                Fraction(tally[0] - tally[1], len(members)),
            )
        key = (tuple(members), _factor_orbits(perms, size), left)
        if key not in walked:
            gens = gens or generators(wreath, members)
            conjs = [wreath.conjugator(g) for g in gens]
            plus = minus = 0
            for cls in orbits(members, lambda x: orbit(x, conjs, lambda y, c: c(y))):
                x, cent = cls[0], members  # members, when x is central
                if not all(commute(g, x) for g in gens):
                    cent = [g for g in members if commute(g, x)]
                a, b = walk(cent, None, perms + [x.perm], left - 1)
                plus, minus = plus + a, minus + b
            walked[key] = plus, minus
        return walked[key]

    averages = walk(list(wreath.elements()), wreath.generators(), [], levels)
    del walk  # walk refers to itself through its cell; unbinding frees the nodes
    return averages


def _factor_orbits(perms: list, size: int) -> tuple:
    """The orbits of the permutations' group on the factors 0..size-1."""
    return tuple(orbits(range(size), lambda i: orbit(i, perms, lambda j, p: p[j])))


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


def verify_exp_formula(rec: RegularEquivariantComplex, order: int) -> dict:
    """Check sum of chi_ES(n-th wreath product) q^n = exp(q chi_ES).

    Raises CapExceeded, before any term is computed, when the report's
    numbers could pass ``PRINTED_DIGITS_CAP``: on a point, chi_ES = 1/|G|
    and the last term is exactly 1/(|G|^order * order!)."""
    chi = euler_satake(rec)
    if order > 0:
        digits = exp_printed_digits(chi, order)
        if digits > PRINTED_DIGITS_CAP:
            raise CapExceeded(
                f"exp formula to order {order} prints numbers of up to {digits}"
                f" digits (max(|a|, b)^order * order! for chi_ES = {chi}),"
                f" above the printed-digit cap {PRINTED_DIGITS_CAP}"
            )
    rhs = rhs_exp_formula(chi, order)
    if len(rec.cx.vertices) > 1:
        values, note = _cell_terms(rec, order, None)
    else:
        size = rec.group.order
        values = [Fraction(1, size**n * math.factorial(n)) for n in range(order + 1)]
        note = None
    report = {"identity": "exp-formula", "chi_es": str(chi), "order": order}
    report.update(_compare_report(values, rhs, note))
    return report


def verify_main_formula(rec: RegularEquivariantComplex, m: int, order: int) -> dict:
    """Check the chi_(m) wreath series against the J_{r,m} product formula."""
    chi = chi_m_top(rec, m)
    rhs = rhs_main_formula(m, chi, order)
    if len(rec.cx.vertices) > 1:
        values, note = _cell_terms(rec, order, m)
    elif m:
        values, note = _point_chi_coefficients(rec.group, m, order)[: order + 1], None
    else:
        values, note = [1] * (order + 1), None
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
