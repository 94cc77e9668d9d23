import math
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from orbichar.errors import (
    ExpNonzeroConstant,
    InputError,
    NonIntegerExponent,
    NonInvertibleSeries,
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
    point_s3,
    point_z2,
    s0_swap,
    torus_trivial,
)
from orbichar.series import (
    TruncatedSeries,
    _binomial_factor,
    _generator_rows,
    _integer_exponent,
    _ordered_factorizations,
    _residue_span as _packed_residue_span,
    _weight,
    macdonald_dimension_check,
    point_wreath_chi_m,
    rhs_exp_formula,
    rhs_main_formula,
    subgroup_count,
    sublattice_count_bruteforce,
    top_m,
    verify_exp_formula,
    verify_main_formula,
)
from orbichar.wreath import all_types, centralizer_extension
from series_oracle import inverse, lhs_wreath_series, log, power, residue_span_bfs


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


def test_addition_and_scaling():
    a = series(1, 2, 3)
    b = series(0, 1, 1)
    assert (a + b).coefficients == (1, 3, 4)
    assert (a - b).coefficients == (1, 1, 2)
    assert a.scale(2).coefficients == (2, 4, 6)


def test_multiplication_truncates():
    a = series(1, 1, 0)
    assert (a * a).coefficients == (1, 2, 1)
    b = series(0, 1, 0)
    assert (b * b).coefficients == (0, 0, 1)


def test_mixed_orders_rejected():
    with pytest.raises(InputError):
        series(1, 2) + series(1, 2, 3)


def test_inverse():
    a = series(1, -1, 0, 0)  # 1 - q
    inv = inverse(a)
    assert inv.coefficients == (1, 1, 1, 1)
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
    doubled = a + a
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
    assert subgroup_count(r, m).value == expected


def test_subgroup_count_matches_bruteforce():
    for m in (1, 2, 3):
        for r in range(1, 13):
            assert subgroup_count(r, m).value == sublattice_count_bruteforce(r, m)


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
                packed = _packed_residue_span(rows, r, m)
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
                    span = _packed_residue_span(rows, r, m)
                    assert span == residue_span_bfs(rows, r, m), (r, m, rows)
                    unpacked = {_unpack(x, r, m) for x in span}
                    assert unpacked == _residue_span(rows, r, m), (r, m, rows)


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
    assert subgroup_count(2, 3000).value == 2**3000 - 1


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
        j = subgroup_count(r, m).value
        out = out * power(one_minus_q_power(r, order), -j * chi)
    return out


def test_binomial_factor_matches_powers():
    for order in range(13):
        for r in range(1, max(order, 1) + 1):
            for k in range(-6, 7):
                expected = power(one_minus_q_power(r, order), -k)
                assert _binomial_factor(r, k, order) == expected, (r, k, order)
    # the exponents J_{r,m} * chi that the right side meets, up to 600 * 7
    ks = {subgroup_count(r, m).value * chi for r in range(1, 8) for m in (2, 3, 4)
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
    rec = point_z2()
    s = lhs_wreath_series(rec, "es", 3)
    assert s.coefficients == (
        1,
        Fraction(1, 2),
        Fraction(1, 8),
        Fraction(1, 48),
    )


def test_lhs_series_chi_m_s0():
    rec = s0_swap()
    s = lhs_wreath_series(rec, top_m(1), 3)
    # hand-enumerated sector counts of (S0)^n with the Z2 wr S_n action
    assert s.coefficients == (1, 1, 2, 3)


def test_lhs_series_kind_validation():
    rec = point_z2()
    with pytest.raises(InputError):
        lhs_wreath_series(rec, "nonsense", 2)
    with pytest.raises(InputError):
        lhs_wreath_series(rec, top_m(-1), 2)


def test_lhs_order_cap_reports_largest_feasible():
    # |Z2 wr S5| = 3840 exceeds the default wreath order cap of 2000.
    rec = s0_swap()
    with pytest.raises(SizeCapExceeded, match="n=5"):
        lhs_wreath_series(rec, "es", 6)


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
                        memo[ext_key] = centralizer_extension(group, reps[c], r)
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
    sizes = (len(series._POINT_CHI_CACHE), len(series._EXTENSION_CACHE))
    assert point_wreath_chi_m(b, 4, 3) == first
    assert (len(series._POINT_CHI_CACHE), len(series._EXTENSION_CACHE)) == sizes


def test_torus_series_low_order():
    # chi = 0 makes every rhs constant 1; the lhs must agree
    rec = torus_trivial()
    report = verify_exp_formula(rec, 1)
    assert report["equal"], report
