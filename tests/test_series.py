import math
import random
import types
from fractions import Fraction

import pytest
from hypothesis import example, given, settings, strategies as st

from orbichar.equivariant import euler_satake, power_with_wreath_action, regularize
from orbichar.errors import (
    ExpNonzeroConstant,
    InputError,
    NonIntegerExponent,
    SizeCapExceeded,
)
from orbichar.groups import (
    cyclic_group,
    dihedral_group,
    symmetric_group,
    trivial_group,
)
from orbichar.groups import conjugacy_classes, orbit
from orbichar.library import (
    builtin_equivariant,
    point_s3,
    point_z2,
    s0_swap,
    torus_trivial,
)
from orbichar.sectors import chi_m_top
from orbichar import series as series_module
from orbichar.series import (
    TruncatedSeries,
    _adjugate_columns,
    _binomial_factor,
    _cell_terms,
    _generator_rows,
    _integer_exponent,
    _ordered_factorizations,
    _packing,
    _residue_span as _packed_residue_span,
    _weight,
    _wreath_terms,
    exp_printed_digits,
    macdonald_dimension_check,
    point_wreath_chi_m,
    rhs_exp_formula,
    rhs_main_formula,
    subgroup_count,
    sublattice_count_bruteforce,
    verify_exp_formula,
    verify_main_formula,
)
from orbichar.wreath import all_types
from group_oracle import extension_table, point_chi_by_extension_tables
from series_oracle import (
    NonInvertibleSeries,
    annihilator_bfs,
    inverse,
    lhs_wreath_series,
    log,
    power,
    residue_span_bfs,
    sublattice_count_by_row_spans,
)


def series(*coeffs):
    return TruncatedSeries(tuple(Fraction(c) for c in coeffs))


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
# arithmetic


def test_multiplication_truncates():
    a = series(1, 1, 0)
    assert (a * a).coefficients == (1, 2, 1)
    b = series(0, 1, 0)
    assert (b * b).coefficients == (0, 0, 1)


def test_mixed_orders_rejected():
    with pytest.raises(InputError, match="series orders differ: 1 vs 2"):
        series(1, 2) * series(1, 2, 3)


# mostly zeros, so the series are sparse with runs of zeros and often a
# zero constant term
_sparse_coefficient = st.one_of(
    st.just(0),
    st.just(0),
    st.just(0),
    st.integers(-9, 9),
    st.fractions(min_value=-5, max_value=5, max_denominator=6),
)


@settings(max_examples=200, deadline=None)
@given(
    st.integers(0, 12).flatmap(
        lambda top: st.tuples(
            *[st.lists(_sparse_coefficient, min_size=top + 1, max_size=top + 1)] * 2
        )
    ),
    st.booleans(),
)
@example(([0, 0, 3, 0, 0, 0, 1], [0, 5, 0, 0, 0, 0, 0]), False)
@example(([0, Fraction(1, 2), 0, 0], [Fraction(-2, 3), 0, 0, 4]), True)
def test_product_matches_schoolbook_convolution(pair, as_fractions):
    a, b = pair
    if as_fractions:
        a = [Fraction(c) for c in a]
    product = TruncatedSeries(tuple(a)) * TruncatedSeries(tuple(b))
    top = len(a) - 1
    dense = tuple(sum(a[i] * b[n - i] for i in range(n + 1)) for n in range(top + 1))
    assert product.order == top
    assert product.coefficients == dense
    if all(type(c) is int for c in a + b):
        assert all(type(c) is int for c in product.coefficients)


def test_inverse():
    a = series(1, -1, 0, 0)  # 1 - q
    inv = inverse(a)
    assert inv.coefficients == (1, 1, 1, 1)
    ints = TruncatedSeries((3, 1, 0, 0))  # int coefficients stay ints
    assert inverse(ints).coefficients == tuple(Fraction(-1, 3) ** i / 3 for i in range(4))
    with pytest.raises(NonInvertibleSeries):
        inverse(series(0, 1))


def test_integer_powers():
    a = series(1, 1, 0, 0)
    assert power(a, 2).coefficients == (1, 2, 1, 0)
    assert power(a, 0) == TruncatedSeries.one(3)
    assert (power(a, -1) * a).coefficients == (1, 0, 0, 0)
    with pytest.raises(NonIntegerExponent):
        power(a, Fraction(1, 2))
    with pytest.raises(NonIntegerExponent):
        power(a, True)


def test_exp_log_round_trip():
    a = series(0, 1, Fraction(1, 2), -2, Fraction(3, 7))
    assert log(a.exp()).coefficients == a.coefficients
    b = series(1, 3, -1, Fraction(2, 5))
    assert log(b).exp().coefficients == b.coefficients


def test_exp_of_q_is_exponential_series():
    e = series(0, 1, 0, 0, 0).exp()
    assert e.coefficients == (1, 1, Fraction(1, 2), Fraction(1, 6), Fraction(1, 24))
    with pytest.raises(ExpNonzeroConstant):
        series(1, 0).exp()


def test_one_minus_q_power():
    s = one_minus_q_power(3, 5)
    assert s.coefficients == (1, 0, 0, -1, 0, 0)


def test_geometric_series_identity():
    # (1-q)^-2 = sum (n+1) q^n
    s = power(one_minus_q_power(1, 6), -2)
    assert s.coefficients == (1, 2, 3, 4, 5, 6, 7)


@settings(max_examples=40)
@given(
    st.lists(st.integers(-4, 4), min_size=1, max_size=6),
    st.lists(st.integers(-4, 4), min_size=1, max_size=6),
    st.integers(0, 4),
)
def test_product_powers_commute(a, b, k):
    n = max(len(a), len(b))
    a = a + [0] * (n - len(a))
    b = b + [0] * (n - len(b))
    a[0], b[0] = 1, 1  # keep everything invertible
    sa, sb = series(*a), series(*b)
    assert power(sa * sb, k).coefficients == (power(sa, k) * power(sb, k)).coefficients


@settings(max_examples=40)
@given(st.lists(st.integers(-3, 3), min_size=2, max_size=6))
def test_exp_turns_sums_into_products(c):
    c[0] = 0
    a = series(*c)
    doubled = series(*(2 * x for x in c))
    assert doubled.exp().coefficients == (a.exp() * a.exp()).coefficients


# ---------------------------------------------------------------------------
# subgroup counts


# J_{r,2} = sigma(r), J_{r,3} hand-computed through the factorization sum
J_ORACLE = {
    (1, 1): 1,
    (5, 1): 1,
    (2, 2): 3,
    (4, 2): 7,
    (6, 2): 12,
    (12, 2): 28,
    (2, 3): 7,
    (4, 3): 35,
    (8, 3): 155,
}


@pytest.mark.parametrize("rm,expected", sorted(J_ORACLE.items()))
def test_subgroup_count_oracle(rm, expected):
    r, m = rm
    assert subgroup_count(r, m) == expected


def test_subgroup_count_matches_bruteforce():
    for m in (1, 2, 3):
        for r in range(1, 13):
            assert subgroup_count(r, m) == sublattice_count_bruteforce(r, m)


def _residue_span(rows: list, r: int, m: int) -> frozenset:
    """The subgroup of (Z/r)^m generated by the rows."""
    gens = [tuple(v % r for v in row) for row in rows]
    return frozenset(
        orbit((0,) * m, gens, lambda x, g: tuple((a + b) % r for a, b in zip(x, g)))
    )


def _unpack(x: int, r: int, m: int) -> tuple:
    w = r.bit_length() + 1
    return tuple((x >> (w * i)) & ((1 << w) - 1) for i in range(m))


def test_packed_residue_span_matches_tuples():
    # every r <= 16, with r = 1 and the powers of two, where a field's top
    # bit sits right above r's; every normal form for m <= 2, a seeded
    # sample of them for m = 3 and 4
    rng = random.Random(0)
    for m in range(1, 5):
        for r in range(1, 17):
            forms = list(_generator_rows(r, m))
            if m > 2:
                forms = rng.sample(forms, min(5, len(forms)))
            for rows in forms:
                packed = _packed_residue_span(rows, r, m, _packing(r, m))
                unpacked = {_unpack(x, r, m) for x in packed}
                assert len(unpacked) == len(packed), (r, m, rows)
                assert unpacked == _residue_span(rows, r, m), (r, m, rows)


def test_residue_span_matches_orbit_walks():
    # the sum of cyclic subgroups against the generator-orbit walk, packed
    # and on tuples, for every candidate with r <= 8 and m <= 3, the
    # exhaustive off-diagonal ranges included
    for m in range(1, 4):
        for r in range(1, 9):
            for exhaustive in (False, True):
                for rows in _generator_rows(r, m, exhaustive):
                    span = _packed_residue_span(rows, r, m, _packing(r, m))
                    assert span == residue_span_bfs(rows, r, m), (r, m, rows)
                    unpacked = {_unpack(x, r, m) for x in span}
                    assert unpacked == _residue_span(rows, r, m), (r, m, rows)


def test_adjugate_spans_are_the_annihilators():
    # the span of adj(B)'s columns mod r against every y with B y = 0 mod r,
    # for each candidate with r <= 6 and m <= 3, exhaustive ranges included
    for m in range(1, 4):
        for r in range(1, 7):
            for exhaustive in (False, True):
                for rows in _generator_rows(r, m, exhaustive):
                    span = _packed_residue_span(
                        _adjugate_columns(rows, r), r, m, _packing(r, m)
                    )
                    assert len(span) == r, (r, m, rows)
                    assert span == annihilator_bfs(rows, r, m), (r, m, rows)


def test_annihilator_count_matches_row_span_count():
    for m in range(1, 4):
        for r in range(1, 9):
            assert sublattice_count_bruteforce(r, m) == sublattice_count_by_row_spans(
                r, m
            ), (r, m)


@pytest.mark.parametrize("position", [(0, 1), (0, 2), (1, 2)])
def test_wrong_adjugate_entry_is_caught(monkeypatch, position):
    # one off-diagonal entry of adj(B) off by one either gives a span of the
    # wrong order or changes the count.  (At m = 2 the one entry off by one
    # only relabels the normal forms of each diagonal, so m = 3 is used.)
    i, j = position
    real = _adjugate_columns

    def mutated(rows, r):
        columns = real(rows, r)
        columns[j][i] += 1
        return columns

    monkeypatch.setattr(series_module, "_adjugate_columns", mutated)
    for r in range(2, 9):
        for exhaustive in (False, True):
            try:
                count = sublattice_count_bruteforce(r, 3, exhaustive)
            except InputError as exc:
                assert str(exc) == "candidate lattice has the wrong index"
            else:
                assert count != subgroup_count(r, 3), (r, exhaustive)


def test_adjugate_refuses_a_wrong_determinant():
    # diagonal product 6 where r = 5: 5 / 3 leaves a remainder
    with pytest.raises(InputError, match="wrong index"):
        _adjugate_columns([[2, 1], [0, 3]], 5)
    assert _adjugate_columns([[2, 1], [0, 3]], 6) == [[3], [-1, 2]]


def _ordered_factorizations_recursive(r: int, m: int):
    if m == 1:
        yield (r,)
        return
    for d in range(1, r + 1):
        if r % d == 0:
            for rest in _ordered_factorizations_recursive(r // d, m - 1):
                yield (d,) + rest


def test_ordered_factorizations_without_recursion():
    for m in range(1, 6):
        for r in range(1, 25):
            expected = list(_ordered_factorizations_recursive(r, m))
            assert list(_ordered_factorizations(r, m)) == expected, (r, m)
    # a coordinate count far past the interpreter's recursion limit
    assert list(_ordered_factorizations(1, 5000)) == [(1,) * 5000]
    assert subgroup_count(2, 3000) == 2**3000 - 1


def test_bruteforce_exhaustive_agrees():
    for m in (1, 2, 3):
        for r in (1, 2, 3, 4, 6):
            assert sublattice_count_bruteforce(
                r, m, exhaustive=True
            ) == sublattice_count_bruteforce(r, m)


def test_subgroup_count_validation():
    with pytest.raises(InputError):
        subgroup_count(0, 2)
    with pytest.raises(InputError):
        subgroup_count(2, 0)


# ---------------------------------------------------------------------------
# right-hand sides


def test_rhs_exp_formula_point_z2():
    # exp(q/2): coefficient n is (1/2)^n / n!
    s = rhs_exp_formula(Fraction(1, 2), 4)
    assert s.coefficients == (
        1,
        Fraction(1, 2),
        Fraction(1, 8),
        Fraction(1, 48),
        Fraction(1, 384),
    )


def test_rhs_main_formula_m0_collapses():
    assert rhs_main_formula(0, 1, 8).coefficients == (1,) * 9
    assert rhs_main_formula(0, 2, 5).coefficients == (1, 2, 3, 4, 5, 6)


def test_rhs_main_formula_m1_partitions():
    # chi=1, m=1: the partition generating function
    s = rhs_main_formula(1, 1, 8)
    assert s.coefficients == (1, 1, 2, 3, 5, 7, 11, 15, 22)


def test_rhs_main_formula_m1_chi2():
    s = rhs_main_formula(1, 2, 6)
    assert s.coefficients == (1, 2, 5, 10, 20, 36, 65)


def test_rhs_main_formula_stays_integral():
    # ints multiply as ints, to the same values as the Fraction factors
    for m, chi, order in ((0, 3, 10), (1, 2, 40), (2, -3, 20), (3, 5, 15)):
        s = rhs_main_formula(m, chi, order)
        assert all(type(c) is int for c in s.coefficients)
        factors = [
            _binomial_factor(r, (subgroup_count(r, m) if m else 1) * chi, order)
            for r in range(1, order + 1 if m else 2)
        ]
        product = series(1, *[0] * order)
        for f in factors:
            product = product * series(*f.coefficients)
        assert all(type(c) is Fraction for c in product.coefficients)
        assert s.coefficients == product.coefficients
    exp = rhs_exp_formula(2, 6)
    assert all(type(c) is Fraction for c in exp.coefficients)
    assert exp.coefficients[6] == Fraction(2**6, math.factorial(6))


def test_rhs_negative_chi():
    # chi = -1 flips the product to prod (1 - q^r)^{J_{r,m}}
    s = rhs_main_formula(1, -1, 5)
    euler = one_minus_q_power(1, 5)
    for r in range(2, 6):
        euler = euler * one_minus_q_power(r, 5)
    assert s.coefficients == euler.coefficients


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
        return power(one_minus_q_power(1, order), -chi_int)
    out = TruncatedSeries.one(order)
    for js in _bounded_index_tuples(m, order):
        out = out * power(
            one_minus_q_power(math.prod(js), order), -_weight(js) * chi_int
        )
    return out


def test_multiindex_matches_collapsed():
    for m in (0, 1, 2, 3):
        for chi in (-2, 1, 3):
            a = rhs_main_formula(m, chi, 6)
            b = rhs_main_formula_multiindex(m, chi, 6)
            assert a.coefficients == b.coefficients, (m, chi)


def rhs_main_formula_by_powers(m: int, chi: int, order: int) -> TruncatedSeries:
    """The right side with every factor taken as a power of the inverse of
    1 - q^r, the route ``rhs_main_formula`` used before its factors were
    built from binomial coefficients."""
    if m == 0:
        return power(one_minus_q_power(1, order), -chi)
    out = TruncatedSeries.one(order)
    for r in range(1, order + 1):
        j = subgroup_count(r, m)
        out = out * power(one_minus_q_power(r, order), -j * chi)
    return out


def test_binomial_factor_matches_powers():
    for order in range(13):
        for r in range(1, max(order, 1) + 1):
            for k in range(-6, 7):
                expected = power(one_minus_q_power(r, order), -k)
                assert _binomial_factor(r, k, order) == expected, (r, k, order)
    # the exponents J_{r,m} * chi that the right side meets, up to 600 * 7
    ks = {subgroup_count(r, m) * chi for r in range(1, 8) for m in (2, 3, 4)
          for chi in (-3, 7)}
    for k in sorted(ks):
        for r in (1, 2, 5, 12):
            expected = power(one_minus_q_power(r, 12), -k)
            assert _binomial_factor(r, k, 12) == expected, (r, k)


def test_rhs_main_formula_matches_powers():
    for m in range(5):
        for chi in (-3, 0, 1, 7):
            for order in (0, 1, 4, 9, 12):
                expected = rhs_main_formula_by_powers(m, chi, order)
                assert rhs_main_formula(m, chi, order) == expected, (m, chi, order)


def test_rhs_requires_integer_chi():
    with pytest.raises(NonIntegerExponent):
        rhs_main_formula(1, Fraction(1, 2), 4)


# ---------------------------------------------------------------------------
# wreath series left-hand sides


def test_point_wreath_chi_m_small():
    z2 = cyclic_group(2)
    # m=1 counts conjugacy classes of Z2 wr S_n, i.e. types
    assert [point_wreath_chi_m(z2, n, 1) for n in range(5)] == [1, 2, 5, 10, 20]
    # m=2 counts classes of commuting pairs.  Z2 wr S2 is dihedral of
    # order 8, whose class-by-class centralizer count is 5+5+4+4+4 = 22
    assert point_wreath_chi_m(z2, 2, 2) == 22
    d4 = dihedral_group(4)
    assert point_wreath_chi_m(d4, 1, 2) == 22


def test_point_wreath_chi_m_trivial_base():
    t = trivial_group()
    # over the trivial group, chi_(1) of S_n on a point = partitions of n
    assert [point_wreath_chi_m(t, n, 1) for n in range(7)] == [1, 1, 2, 3, 5, 7, 11]
    # chi_(0) is always 1 (the quotient is a point)
    assert all(point_wreath_chi_m(t, n, 0) == 1 for n in range(7))


def test_point_wreath_chi_m_matches_explicit_sectors():
    # cross-validate the structural recursion against brute-force sector
    # counts on explicit wreath actions
    from orbichar.equivariant import power_with_wreath_action, regularize, trivial_action
    from orbichar.library import point
    from orbichar.sectors import chi_m_top

    for group, n_max in [(cyclic_group(2), 3), (symmetric_group(3), 2)]:
        rec = regularize(trivial_action(point(), group))
        for n in range(1, n_max + 1):
            power, _ = power_with_wreath_action(rec, n)
            wrec = regularize(power)
            for m in (0, 1, 2):
                assert point_wreath_chi_m(group, n, m) == chi_m_top(wrec, m), (
                    group.order,
                    n,
                    m,
                )


def test_lhs_series_es_point():
    # the closed form 1/(|G|^n n!) of a point against its explicit powers
    rec = point_z2()
    assert verify_exp_formula(rec, 3)["lhs"] == ["1", "1/2", "1/8", "1/48"]
    s = lhs_wreath_series(rec, 3, lambda: [1, 2, 3, 4, 5], None)
    assert s.coefficients == (1, 2, 3, 4)
    explicit = [
        euler_satake(regularize(power_with_wreath_action(rec, n)[0]))
        for n in (1, 2, 3)
    ]
    assert explicit == [Fraction(1, 2), Fraction(1, 8), Fraction(1, 48)]


def test_lhs_series_chi_m_s0():
    rec = s0_swap()
    s = lhs_wreath_series(rec, 3, None, lambda rec_n: chi_m_top(rec_n, 1))
    # hand-enumerated sector counts of (S0)^n with the Z2 wr S_n action
    assert s.coefficients == (1, 1, 2, 3)


def test_lhs_order_cap_reports_largest_feasible():
    # |Z2 wr S5| = 3840 exceeds the default wreath order cap of 2000.
    rec = s0_swap()
    with pytest.raises(SizeCapExceeded, match="n=5"):
        lhs_wreath_series(rec, 6, None, euler_satake)


# ---------------------------------------------------------------------------
# left sides over product cells


# the largest n each non-point preset's triangulated wreath power reaches
# before a cap trips (circle4-rotation's chain enumeration at n = 4, the
# octahedra's and the torus's at n = 2, S0-swap's and edge-swap's
# wreath table at n = 5)
CELL_ORACLE_REACH = {
    "S0-swap": 4,
    "edge-swap": 4,
    "circle4-rotation": 3,
    "octahedron-antipodal": 1,
    "octahedron-reflection": 1,
    "torus-trivial": 1,
}


@pytest.mark.parametrize("name", sorted(CELL_ORACLE_REACH))
def test_cell_terms_equal_the_triangulated_powers(name):
    rec = builtin_equivariant(name)
    reach = CELL_ORACLE_REACH[name]
    built: dict = {}  # each power is built once for every m
    explicit, note = _wreath_terms(rec, reach, None, euler_satake, built)
    assert note is None
    assert _cell_terms(rec, reach, None) == (explicit, None)
    for m in range(4):
        explicit, note = _wreath_terms(
            rec, reach, None, lambda rec_n: chi_m_top(rec_n, m), built
        )
        assert note is None
        assert _cell_terms(rec, reach, m) == (explicit, None), m


@pytest.mark.parametrize("rec", [point_z2(), point_s3()], ids=["Z2", "S3"])
@pytest.mark.parametrize("m", [0, 1, 2])
def test_cell_terms_on_a_point_equal_the_point_recursion(rec, m):
    # the stabilizer is the whole group, so the walk runs on G ~ S_k
    values, note = _cell_terms(rec, 3, m)
    assert note is None
    assert values == [point_wreath_chi_m(rec.group, n, m) for n in range(4)]
    size = rec.group.order
    closed = [Fraction(1, size**n * math.factorial(n)) for n in range(4)]
    assert _cell_terms(rec, 3, None) == (closed, None)


def test_cell_terms_read_no_sector_or_right_side(monkeypatch):
    import orbichar

    cases = [("edge-swap", 3, m) for m in (None, 0, 1, 2)]
    cases += [("circle4-rotation", 3, 1), ("octahedron-reflection", 2, 1)]
    expected = [_cell_terms(builtin_equivariant(n), o, m) for n, o, m in cases]

    def forbidden(*args, **kwargs):
        raise AssertionError("the left side read the right side's routines")

    names = ("euler_satake", "chi_m_top", "gamma_sectors", "hom_classes",
             "subgroup_count", "rhs_main_formula")
    modules = [m for m in vars(orbichar).values() if isinstance(m, types.ModuleType)]
    for module in modules:
        for name in names:
            if hasattr(module, name):
                monkeypatch.setattr(module, name, forbidden)
    recs = {n: builtin_equivariant(n) for n, _o, _m in cases}
    got = [_cell_terms(recs[n], o, m) for n, o, m in cases]
    assert got == expected
    with pytest.raises(AssertionError):  # the right sides do read them
        verify_main_formula(recs["edge-swap"], 1, 2)


@pytest.mark.parametrize("name", ["edge-swap", "circle4-rotation"])
def test_cell_sign_reads_the_fixed_dimension(monkeypatch, name):
    # a mutant signing each cell by its own dimension, not by that of its
    # fixed set, must break the main identity
    assert verify_main_formula(builtin_equivariant(name), 1, 3)["equal"]

    def singletons(perms, size):
        return tuple((i,) for i in range(size))

    monkeypatch.setattr(series_module, "_factor_orbits", singletons)
    assert not verify_main_formula(builtin_equivariant(name), 1, 3)["equal"]


def test_exp_left_side_does_not_read_euler_satake(monkeypatch):
    rec = builtin_equivariant("edge-swap")
    before = verify_exp_formula(rec, 3)
    assert before["equal"]
    real = series_module.euler_satake
    monkeypatch.setattr(series_module, "euler_satake", lambda r: 2 * real(r))
    after = verify_exp_formula(rec, 3)
    assert not after["equal"] and after["lhs"] == before["lhs"]


# ---------------------------------------------------------------------------
# the identities end to end


def test_exp_formula_point_orbifolds():
    for rec in (point_z2(), point_s3()):
        report = verify_exp_formula(rec, 6)
        assert report["equal"], report


def test_exp_formula_s0():
    report = verify_exp_formula(s0_swap(), 3)
    assert report["equal"], report


@pytest.mark.parametrize("m", [0, 1, 2])
def test_main_formula_point_orbifolds(m):
    for rec in (point_z2(), point_s3()):
        report = verify_main_formula(rec, m, 6)
        assert report["equal"], report


@pytest.mark.parametrize("m", [0, 1, 2])
def test_main_formula_s0(m):
    report = verify_main_formula(s0_swap(), m, 3)
    assert report["equal"], report


def test_main_formula_m1_point_z2_series_values():
    report = verify_main_formula(point_z2(), 1, 4)
    assert report["lhs"] == ["1", "2", "5", "10", "20"]
    assert report["rhs"] == report["lhs"]


def test_chi_m_recursion_values():
    z2 = cyclic_group(2)
    s3 = symmetric_group(3)
    assert [point_wreath_chi_m(z2, n, 2) for n in range(7)] == [
        1,
        4,
        22,
        84,
        325,
        1096,
        3632,
    ]
    assert [point_wreath_chi_m(s3, n, 2) for n in range(5)] == [
        1,
        8,
        60,
        344,
        1806,
    ]


def test_macdonald_point_orbifolds():
    for rec in (point_z2(), point_s3()):
        report = macdonald_dimension_check(rec, 4)
        assert report["equal"], report


def test_macdonald_s0_trivial():
    from orbichar.equivariant import regularize, trivial_action
    from orbichar.library import two_points

    rec = regularize(trivial_action(two_points(), trivial_group()))
    report = macdonald_dimension_check(rec, 4)
    assert report["equal"], report
    # dim H^*(S0) = 2: part 1 is (1-q)^{-2} = 1,2,3,4,5
    assert report["part1"]["lhs"] == ["1", "2", "3", "4", "5"]


def test_macdonald_part2_point_s3():
    report = macdonald_dimension_check(point_s3(), 4)
    # Z-sector dimension of pt x S3 = 3 classes: product over n of
    # (1-q^n)^{-3}: 1, 3, 9, 22, 51
    assert report["part2"]["lhs"] == ["1", "3", "9", "22", "51"]


def _chi_m_by_types(group, size, m, memo):
    """chi_(m) of pt x G ~ S_size as the sum over types of G ~ S_size of
    the product, over the type's (class c, cycle length r) entries of
    multiplicity k, of chi_(m-1) of pt x E(c, r) ~ S_k: the form before
    it factors into a product of series.  Recurses into itself."""
    if m == 0 or size == 0:
        return 1
    key = (group, size, m)
    if key not in memo:
        types = all_types(group, size)
        if m == 1:
            memo[key] = len(types)
        else:
            reps = [cls.representative for cls in conjugacy_classes(group)]
            total = 0
            for t in types:
                term = 1
                for (c, r), k in t.entries:
                    ext_key = ("E", group, c, r)
                    if ext_key not in memo:
                        memo[ext_key] = extension_table(group, reps[c], r)
                    term *= _chi_m_by_types(memo[ext_key], k, m - 1, memo)
                total += term
            memo[key] = total
    return memo[key]


@pytest.mark.parametrize(
    "group",
    [
        trivial_group(),
        cyclic_group(2),
        cyclic_group(3),
        symmetric_group(3),
        dihedral_group(4),
        symmetric_group(4),
    ],
    ids=["trivial", "Z2", "Z3", "S3", "D4", "S4"],
)
def test_point_chi_product_matches_type_sum(group):
    memo: dict = {}
    for m in (1, 2, 3):
        for n in range(7):
            assert point_wreath_chi_m(group, n, m) == _chi_m_by_types(
                group, n, m, memo
            ), (n, m)


@pytest.mark.parametrize(
    "group",
    [
        trivial_group(),
        cyclic_group(2),
        cyclic_group(3),
        cyclic_group(4),
        symmetric_group(3),
        dihedral_group(4),
        dihedral_group(5),
        symmetric_group(4),
    ],
    ids=["trivial", "Z2", "Z3", "Z4", "S3", "D4", "D5", "S4"],
)
def test_point_chi_pairs_match_extension_tables(group):
    # the (centralizer subgroup, index) recursion against the one that
    # builds every extension group E(c, r) as a table and recurses into it
    memo: dict = {}
    for m in (1, 2, 3, 4):
        tables = point_chi_by_extension_tables(group, m, 8, memo)
        assert [point_wreath_chi_m(group, n, m) for n in range(9)] == tables[:9], m


def test_point_chi_product_past_type_enumeration():
    # (sum of partition numbers)^3 at q^40: 481,225,800 types of S3 ~ S_40
    assert point_wreath_chi_m(symmetric_group(3), 40, 1) == 481_225_800
    # the value the type sum gave for D4 ~ S_12 (about 10 s)
    assert point_wreath_chi_m(dihedral_group(4), 12, 2) == 97_060_768_563


def test_equal_tables_share_cache_entries():
    from orbichar import series
    from orbichar.groups import FiniteGroup

    a = symmetric_group(3)
    b = FiniteGroup([list(row) for row in a.table])
    assert a is not b
    assert a == b and hash(a) == hash(b)
    assert a != cyclic_group(6)
    first = point_wreath_chi_m(a, 4, 3)
    size = len(series._POINT_CHI_CACHE)
    assert point_wreath_chi_m(b, 4, 3) == first
    assert len(series._POINT_CHI_CACHE) == size


def test_point_chi_left_side_builds_its_coefficients_once(monkeypatch):
    from orbichar import series as series_mod

    monkeypatch.setattr(series_mod, "_POINT_CHI_CACHE", {})
    orders = []
    real = series_mod.type_counts

    def counted(k, order):
        orders.append(order)
        return real(k, order)

    monkeypatch.setattr(series_mod, "type_counts", counted)
    report = verify_main_formula(point_z2(), 1, 30)
    assert report["equal"] and len(report["lhs"]) == 31
    assert orders == [30]


def test_macdonald_point_builds_its_class_counts_once(monkeypatch):
    from orbichar import series as series_mod

    monkeypatch.setattr(series_mod, "_POINT_CHI_CACHE", {})
    orders = []
    real = series_mod.type_counts

    def counted(k, order):
        orders.append(order)
        return real(k, order)

    monkeypatch.setattr(series_mod, "type_counts", counted)
    report = macdonald_dimension_check(point_s3(), 30)
    assert report["equal"] and len(report["part2"]["lhs"]) == 31
    assert orders == [30]


def test_point_identities_are_two_computations(monkeypatch):
    # The left sides read the classes stored on G, the right sides' chi_(m)
    # comes from the homomorphism walk: with the stored list one class
    # short, every point identity must fail.
    from orbichar import library, series as series_mod

    monkeypatch.setattr(series_mod, "_POINT_CHI_CACHE", {})
    rec = library.load_equivariant("point", "S3")
    rec.group._classes = conjugacy_classes(rec.group)[:-1]
    report = verify_main_formula(rec, 1, 4)
    assert (report["lhs"][:3], report["rhs"][:3]) == (["1", "2", "5"], ["1", "3", "9"])
    assert not report["equal"]
    assert not verify_main_formula(rec, 2, 4)["equal"]
    assert not macdonald_dimension_check(rec, 4)["equal"]


def test_exp_printed_digits():
    # digits of max(|a|, b)^order * order!, estimated or exact
    for a, b in ((1, 1), (1, 2), (1, 6), (-7, 3), (5, 24)):
        for order in (1, 5, 50, 300):
            bound = max(abs(a), b) ** order * math.factorial(order)
            assert exp_printed_digits(Fraction(a, b), order) == len(str(bound))
    assert exp_printed_digits(Fraction(0), 10**4) == 1
    # near the cap the product is compared with 10^4300 exactly
    for size, last in ((2, 1423), (6, 1249), (24, 1080)):
        chi = Fraction(1, size)
        assert size**last * math.factorial(last) < 10**4300
        assert exp_printed_digits(chi, last) == 4300
        assert size ** (last + 1) * math.factorial(last + 1) >= 10**4300
        assert exp_printed_digits(chi, last + 1) > 4300


def test_torus_series_low_order():
    # chi = 0 makes every rhs constant 1; the lhs must agree
    rec = torus_trivial()
    report = verify_exp_formula(rec, 1)
    assert report["equal"], report
