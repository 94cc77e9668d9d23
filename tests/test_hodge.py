import importlib.util
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

from orbichar import hodge, wreath
from orbichar.errors import (
    AngleOutOfRange,
    InputError,
    NonIntegerExponentOfXY,
    NonIntegerShift,
    SizeCapExceeded,
)
from orbichar.hodge import (
    BigradedDims,
    HodgeSeries,
    SectorHodgeDatum,
    _binomial_power,
    _check_xy_exponent,
    _validate_inputs,
    h_cr_polynomial,
    hodge_product_check,
    hodge_product_lhs,
    hodge_product_rhs,
    sector_data_from_json,
    shift_number,
    sp_generating,
)
from orbichar.library import hodge_dataset_from_json, hodge_datasets
from orbichar.series import rhs_main_formula
from series_oracle import (
    HODGE_ONE,
    NonInvertibleSeries,
    evaluate,
    evaluate_xy,
    inverse,
    poly_add,
    poly_mul,
    poly_neg_xy,
    poly_shift,
    power,
    type_entries,
)


def _perfbench_jobs():
    path = Path(__file__).resolve().parents[1] / "perfbench" / "jobs.py"
    spec = importlib.util.spec_from_file_location("perfbench_jobs", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def poly(d):
    """The Hodge polynomial of a {(s, t): c} dict, as a sorted term tuple."""
    return poly_add(d.items())


# ---------------------------------------------------------------------------
# polynomials


def test_polynomial_arithmetic():
    a = poly({(0, 0): 1, (1, 1): 2})
    b = poly({(1, 1): -2, (2, 0): 3})
    assert poly_add(a, b) == ((((0, 0)), Fraction(1)), ((2, 0), Fraction(3)))
    assert poly_mul(a, poly({(1, 0): 1})) == (
        ((1, 0), Fraction(1)),
        ((2, 1), Fraction(2)),
    )


def test_polynomial_shift():
    a = poly({(0, 0): 1, (1, 0): 2})
    assert poly_shift(a, 2) == (((2, 2), Fraction(1)), ((3, 2), Fraction(2)))


def test_polynomial_substitute_neg():
    a = poly({(0, 0): 1, (1, 0): 1, (1, 1): 1, (2, 1): 1})
    assert poly_neg_xy(a) == (
        ((0, 0), Fraction(1)),
        ((1, 0), Fraction(-1)),
        ((1, 1), Fraction(1)),
        ((2, 1), Fraction(-1)),
    )


def test_polynomial_evaluate():
    a = poly({(0, 0): 1, (1, 1): 2, (2, 2): 1})
    assert evaluate(a, 1, 1) == 4
    assert evaluate(a, -1, -1) == 4
    assert evaluate(a, 2, 1) == 1 + 4 + 4


def _all_int(p):
    return all(type(c) is int for _k, c in p)


def test_polynomial_coefficients_stay_int():
    # every polynomial the library builds is a sorted tuple of nonzero int
    # terms, whichever route built it
    data, d = hodge_datasets()["two-sector-shifted"]
    dims = hodge_datasets()["abelian-surface"][0][0].dims
    built = [h_cr_polynomial(data)]
    for series in (
        sp_generating(dims, 4),
        hodge_product_lhs(data, d, 5),
        hodge_product_rhs(data, d, 5),
    ):
        built.extend(series.coefficients)
    for p in built:
        assert _all_int(p), p
        _assert_normal(p)


def test_evaluation_commutes_with_series_ring():
    dims = hodge_datasets()["abelian-surface"][0][0].dims
    s = sp_generating(dims, 5)
    data, d = hodge_datasets()["two-sector-shifted"]
    t = hodge_product_rhs(data, d, 5)
    s1, t1 = evaluate_xy(s, 1, 1), evaluate_xy(t, 1, 1)
    assert evaluate_xy(s * t, 1, 1) == s1 * t1
    for k in (-2, -1, 2, 3):
        assert evaluate_xy(power(s, k), 1, 1) == power(s1, k), k
    assert all(_all_int(c) for c in (s * power(t, -1)).coefficients)


def test_series_rejects_bad_coefficients():
    two = HodgeSeries((poly({(0, 0): 2}), ()))
    with pytest.raises(NonInvertibleSeries):
        inverse(two)
    with pytest.raises(InputError):
        two * HodgeSeries.one(2)


def test_series_inverse_geometric():
    s = inverse(HodgeSeries((HODGE_ONE, poly({(1, 1): -1}), ())))
    assert s.coefficients[2] == poly({(2, 2): 1})


def _one_plus_monomial(s: int, t: int, n: int, c: int, order: int) -> HodgeSeries:
    """The series 1 + c x^s y^t q^n, truncated at q^order."""
    coeffs = [HODGE_ONE] + [()] * order
    if n <= order:
        coeffs[n] = (((s, t), c),)
    return HodgeSeries(tuple(coeffs))


@settings(max_examples=200, deadline=None)
@given(
    st.integers(0, 3),
    st.integers(0, 3),
    st.integers(1, 4),
    st.sampled_from((-1, 1)),
    st.integers(-6, 6),
    st.integers(0, 10),
)
def test_closed_form_factor_matches_powers(s, t, n, c, k, order):
    expected = power(_one_plus_monomial(s, t, n, c, order), k)
    assert _binomial_power(s, t, n, c, k, order) == expected


# ---------------------------------------------------------------------------
# sector data and shifts


def test_shift_number():
    assert shift_number([]) == 0
    assert shift_number([Fraction(1, 3), Fraction(2, 3)]) == 1
    assert shift_number([Fraction(1, 2)]) == Fraction(1, 2)
    with pytest.raises(AngleOutOfRange):
        shift_number([Fraction(0)])
    with pytest.raises(AngleOutOfRange):
        shift_number([Fraction(4, 3)])


def test_wreath_cycle_shift():
    assert wreath_cycle_shift(Fraction(3, 4), 5, 1) == Fraction(3, 4)
    assert wreath_cycle_shift(Fraction(1, 2), 1, 2) == 1
    assert wreath_cycle_shift(Fraction(0), 2, 3) == 2


def test_sector_datum_validation():
    dims = BigradedDims.from_dict({(0, 0): 1})
    with pytest.raises(AngleOutOfRange):
        SectorHodgeDatum("g", 0, dims, (Fraction(3, 2),), 0)
    with pytest.raises(InputError):
        SectorHodgeDatum("g", 0, dims, (), -1)
    with pytest.raises(InputError):
        SectorHodgeDatum("g", 0, BigradedDims.from_dict({(3, 0): 1}), (), 2)


def test_sector_datum_shift():
    dims = BigradedDims.from_dict({(0, 0): 1})
    datum = SectorHodgeDatum("g", 0, dims, (Fraction(1, 2), Fraction(1, 2)), 0)
    assert datum.shift == 1
    assert datum.integer_shift() == 1
    odd = SectorHodgeDatum("g", 0, dims, (Fraction(1, 2),), 0)
    with pytest.raises(NonIntegerShift):
        odd.integer_shift()


def wreath_cycle_shift(shift, d: int, r: int) -> Fraction:
    """The shift of an r-cycle sector over a component with shift F:
    F + d(r-1)/2, from the eigenvalues of the cyclic block matrix."""
    if not isinstance(r, int) or r < 1:
        raise InputError(f"cycle length must be a positive int, got {r}")
    if not isinstance(d, int) or d < 0:
        raise InputError(f"complex dimension must be >= 0, got {d}")
    return Fraction(shift) + Fraction(d * (r - 1), 2)


def wreath_type_shift(rho, data, d: int, require_integer: bool = True):
    """Total shift of the sector indexed by the assignment rho.

    rho maps (datum index, cycle length r) -> multiplicity; the shift is the
    multiplicity-weighted sum of per-cycle shifts, additive across disjoint
    assignments.  With ``require_integer`` (the default, matching the
    integer-shift restriction) a fractional total raises NonIntegerShift.
    """
    total = Fraction(0)
    for (idx, r), mult in dict(rho).items():
        if not isinstance(mult, int) or mult < 0:
            raise InputError(f"multiplicity {mult!r} must be a nonnegative int")
        if not 0 <= idx < len(data):
            raise InputError(f"datum index {idx} out of range")
        if mult:
            total += mult * wreath_cycle_shift(data[idx].shift, d, r)
    if require_integer and total.denominator != 1:
        raise NonIntegerShift(f"type shift {total} is not an integer")
    return total


def test_wreath_type_shift_additive():
    data, d = hodge_datasets()["two-sector-shifted"]
    rho_a = {(0, 1): 2}
    rho_b = {(1, 2): 1}
    merged = {(0, 1): 2, (1, 2): 1}
    total = wreath_type_shift(merged, data, d)
    assert total == wreath_type_shift(rho_a, data, d) + wreath_type_shift(
        rho_b, data, d
    )


def test_wreath_type_shift_integer_mode():
    dims = BigradedDims.from_dict({(0, 0): 1})
    datum = SectorHodgeDatum("g", 0, dims, (Fraction(1, 2),), 0)
    with pytest.raises(NonIntegerShift):
        wreath_type_shift({(0, 1): 1}, (datum,), 1)
    value = wreath_type_shift({(0, 1): 1}, (datum,), 1, require_integer=False)
    assert value == Fraction(1, 2)


def test_h_cr_polynomial_point_z2():
    data, _ = hodge_datasets()["point-Z2"]
    assert h_cr_polynomial(data) == (((0, 0), Fraction(2)),)


def test_h_cr_polynomial_shifted():
    data, _ = hodge_datasets()["two-sector-shifted"]
    # identity sector at (0,0) plus the shifted sector at (1,1)
    assert h_cr_polynomial(data) == (
        ((0, 0), Fraction(1)),
        ((1, 1), Fraction(1)),
    )


def test_sector_data_json_round_trip():
    items = [
        {
            "class": "g",
            "component": 0,
            "dims": {"0,0": 1, "1,1": 2},
            "angles": ["1/2", "1/2"],
            "d": 2,
        }
    ]
    data = sector_data_from_json(items)
    assert data[0].shift == 1
    assert data[0].dims.entries == (((0, 0), 1), ((1, 1), 2))
    with pytest.raises(InputError):
        sector_data_from_json([{"class": "g"}])


# ---------------------------------------------------------------------------
# symmetric-power generating functions


def test_sp_generating_even_is_geometric():
    dims = BigradedDims.from_dict({(0, 0): 1})
    s = sp_generating(dims, 4)
    for n in range(5):
        assert s.coefficients[n] == poly({(0, 0): 1})


def test_sp_generating_odd_truncates():
    # a single odd class: the symmetric algebra is exterior, so SP^n
    # vanishes for n >= 2
    dims = BigradedDims.from_dict({(1, 0): 1})
    s = sp_generating(dims, 3)
    assert s.coefficients[0] == HODGE_ONE
    assert s.coefficients[1] == poly({(1, 0): 1})
    assert s.coefficients[2] == ()
    assert s.coefficients[3] == ()


def test_sp_generating_product_identity():
    # per-bidegree product formula: prod (1 - x^s y^t q)^{-h} for an
    # even-class sector, expanded and compared coefficient by coefficient
    dims = BigradedDims.from_dict({(0, 0): 1, (1, 1): 2})
    s = sp_generating(dims, 3)
    # n=1 coefficient is the Hodge polynomial itself
    assert s.coefficients[1] == poly({(0, 0): 1, (1, 1): 2})
    # n=2: SP^2 of 1 even dim at (0,0) and 2 even dims at (1,1)
    assert s.coefficients[2] == poly({(0, 0): 1, (1, 1): 2, (2, 2): 3})


# ---------------------------------------------------------------------------
# the product formula


def test_rhs_point_dataset_is_partition_series():
    data, d = hodge_datasets()["point-trivial"]
    series = hodge_product_rhs(data, d, 6)
    values = [evaluate(c, 1, 1) for c in series.coefficients]
    assert values == [1, 1, 2, 3, 5, 7, 11]


def test_lhs_point_dataset_is_partition_series():
    data, d = hodge_datasets()["point-trivial"]
    series = hodge_product_lhs(data, d, 6)
    values = [evaluate(c, 1, 1) for c in series.coefficients]
    assert values == [1, 1, 2, 3, 5, 7, 11]


@pytest.mark.parametrize("name", sorted(hodge_datasets()))
def test_product_formula_bundled_datasets(name):
    data, d = hodge_datasets()[name]
    order = 3 if name == "abelian-surface" else 5
    report = hodge_product_check(data, d, order)
    assert report["equal"], (name, report)


def hodge_product_lhs_per_type(data, d: int, order: int) -> HodgeSeries:
    """The computed side: coefficient n enumerates the sector types of the
    n-th wreath symmetric product.  Each type contributes the product of
    symmetric-power dimension polynomials of its entries, moved up by
    (xy)^(type shift); the whole coefficient is then taken at (-x,-y)."""
    _validate_inputs(data, d, order)
    sp_tables = [sp_generating(datum.dims, order) for datum in data]
    coefficients = [HODGE_ONE]
    for n in range(1, order + 1):
        acc = ()
        for rho in type_entries(len(data), n):
            shift = wreath_type_shift(dict(rho), data, d)
            term = HODGE_ONE
            for (idx, r), mult in rho:
                term = poly_mul(term, sp_tables[idx].coefficients[mult])
            acc = poly_add(acc, poly_shift(term, int(shift)))
        coefficients.append(poly_neg_xy(acc))
    return HodgeSeries(tuple(coefficients))


def sp_generating_by_powers(dims: BigradedDims, order: int) -> HodgeSeries:
    """``sp_generating`` with each factor raised to its power by repeated
    squaring, the route it took before its factors were built in closed
    form."""
    out = HodgeSeries.one(order)
    for (s, t), dim in dims.entries:
        sign = 1 if (s + t) % 2 else -1
        out = out * power(_one_plus_monomial(s, t, 1, sign, order), sign * dim)
    return out


def hodge_product_rhs_by_powers(data, d: int, order: int) -> HodgeSeries:
    """``hodge_product_rhs`` with each factor raised to its power by
    repeated squaring."""
    _validate_inputs(data, d, order)
    h = h_cr_polynomial(data)
    out = HodgeSeries.one(order)
    for n in range(1, order + 1):
        e = _check_xy_exponent(d, n)
        for (s, t), coeff in h:
            exponent = -coeff if (s + t) % 2 == 0 else coeff
            out = out * power(_one_plus_monomial(s + e, t + e, n, -1, order), exponent)
    return out


# the largest order each bundled dataset runs at in the hodge-series pool
_POOL_ORDERS = {"point-trivial": 20, "point-Z2": 12, "two-sector-shifted": 10}


def _lhs_cases():
    for name, (data, d) in sorted(hodge_datasets().items()):
        yield name, data, d, _POOL_ORDERS.get(name, 6)
    jobs = _perfbench_jobs()
    for name, (_d, _sectors, order) in sorted(jobs.HODGE_SHAPES.items()):
        data, d = hodge_dataset_from_json(jobs.hodge_dataset(name))
        yield name, data, d, order


_LHS_CASES = list(_lhs_cases())


@pytest.mark.parametrize("name, data, d, order", _LHS_CASES, ids=[c[0] for c in _LHS_CASES])
def test_lhs_matches_per_type_oracle(name, data, d, order):
    assert hodge_product_lhs(data, d, order) == hodge_product_lhs_per_type(data, d, order)


@pytest.mark.parametrize("name, data, d, order", _LHS_CASES, ids=[c[0] for c in _LHS_CASES])
def test_rhs_matches_powers_oracle(name, data, d, order):
    assert hodge_product_rhs(data, d, order) == hodge_product_rhs_by_powers(data, d, order)
    for datum in data:
        assert sp_generating(datum.dims, order) == sp_generating_by_powers(datum.dims, order)


def test_products_start_from_their_first_factor(monkeypatch):
    # the right side's f factors take f - 1 products; only an empty product
    # is the series one.  The symmetric powers are built in place, with no
    # series product at all
    dims = BigradedDims.from_dict({(0, 0): 1, (1, 1): 2, (1, 0): 1})
    data, d = hodge_datasets()["two-sector-shifted"]
    terms = len(h_cr_polynomial(data))
    expected_sp = sp_generating_by_powers(dims, 4)
    expected_rhs = hodge_product_rhs_by_powers(data, d, 4)
    calls = []
    real = HodgeSeries.__mul__

    def counted(self, other):
        calls.append(1)
        return real(self, other)

    monkeypatch.setattr(HodgeSeries, "__mul__", counted)
    assert sp_generating(dims, 4) == expected_sp
    assert len(calls) == 0
    assert hodge_product_rhs(data, d, 4) == expected_rhs
    assert len(calls) == 4 * terms - 1
    assert hodge_product_rhs(data, d, 0) == HodgeSeries.one(0)
    with pytest.raises(InputError, match="order must be >= 0"):
        sp_generating(BigradedDims.from_dict({}), -1)


@pytest.mark.parametrize("name, data, d, order", _LHS_CASES, ids=[c[0] for c in _LHS_CASES])
def test_lhs_uses_neither_closed_form_factors_nor_series_products(
    monkeypatch, name, data, d, order
):
    # the two sides of the product formula run on different evaluators
    expected = hodge_product_lhs(data, d, order)

    def refused(*args, **kwargs):
        raise AssertionError("the left side reached a right-side evaluator")

    monkeypatch.setattr(hodge, "_binomial_power", refused)
    monkeypatch.setattr(HodgeSeries, "__mul__", refused)
    assert hodge_product_lhs(data, d, order) == expected
    with pytest.raises(AssertionError, match="right-side evaluator"):
        hodge_product_rhs(data, d, min(order, 2))


_SMALL_DIMS = st.dictionaries(
    st.tuples(st.integers(0, 3), st.integers(0, 3)), st.integers(0, 3), max_size=5
)


@settings(max_examples=150, deadline=None)
@given(_SMALL_DIMS, st.integers(0, 8))
def test_sp_generating_in_place_matches_powers(mapping, order):
    dims = BigradedDims.from_dict(mapping)
    assert sp_generating(dims, order) == sp_generating_by_powers(dims, order)


def test_lhs_type_cap_trips_before_enumerating(monkeypatch):
    # point-Z2 has two sectors: 2 + 5 + 10 + 20 = 37 types for n <= 4, and
    # about 4.8 * 10^9 for n <= 60
    data, d = hodge_datasets()["point-Z2"]
    monkeypatch.setattr(wreath, "TYPE_CAP", 37)
    hodge_product_lhs(data, d, 4)
    monkeypatch.setattr(wreath, "TYPE_CAP", 36)
    with pytest.raises(SizeCapExceeded, match="sums 37 sector types"):
        hodge_product_lhs(data, d, 4)
    monkeypatch.undo()

    def refuse(*args):
        raise AssertionError("types enumerated past the cap")

    monkeypatch.setattr("orbichar.hodge.type_trie", refuse)
    with pytest.raises(SizeCapExceeded, match=f"type cap {wreath.TYPE_CAP}"):
        hodge_product_lhs(data, d, 60)


# ---------------------------------------------------------------------------
# series products on term tuples, against the raw term lists


_polys = st.dictionaries(
    st.tuples(st.integers(0, 3), st.integers(0, 3)), st.integers(-3, 3), max_size=5
).map(poly)


def _raw_products(a, b):
    return tuple(
        ((s1 + s2, t1 + t2), c1 * c2) for (s1, t1), c1 in a for (s2, t2), c2 in b
    )


def _assert_normal(p):
    keys = [k for k, _c in p]
    assert keys == sorted(set(keys))
    for (s, t), c in p:
        assert type(s) is int and type(t) is int and s >= 0 and t >= 0
        assert type(c) is int and c != 0


@settings(max_examples=80, deadline=None)
@given(st.lists(_polys, min_size=4, max_size=4), st.lists(_polys, min_size=4, max_size=4))
def test_trusted_series_arithmetic(first, second):
    a = HodgeSeries(tuple(first))
    b = HodgeSeries(tuple(second))
    product = a * b
    for n in range(4):
        raw = sum((_raw_products(first[i], second[n - i]) for i in range(n + 1)), ())
        assert product.coefficients[n] == poly_add(raw)
        _assert_normal(product.coefficients[n])
    unit = HodgeSeries((HODGE_ONE,) + tuple(first[1:]))
    inverse_series = inverse(unit)
    out = [HODGE_ONE]
    for n in range(1, 4):
        raw = sum((_raw_products(first[k], out[n - k]) for k in range(1, n + 1)), ())
        out.append(poly_add(tuple((key, -c) for key, c in raw)))
    assert list(inverse_series.coefficients) == out
    for c in inverse_series.coefficients:
        _assert_normal(c)


def test_two_sector_q2_coefficient():
    data, d = hodge_datasets()["two-sector-shifted"]
    lhs = hodge_product_lhs(data, d, 2)
    assert lhs.coefficients[2] == poly({(0, 0): 1, (1, 1): 2, (2, 2): 2})
    rhs = hodge_product_rhs(data, d, 2)
    assert rhs.coefficients[2] == lhs.coefficients[2]


def test_specialization_to_euler_product():
    # x = y = 1 collapses the Hodge product to the m=1 Euler product with
    # chi = the signed total sector dimension
    for name in ("point-trivial", "point-Z2", "two-sector-shifted"):
        data, d = hodge_datasets()[name]
        series = evaluate_xy(hodge_product_rhs(data, d, 5), 1, 1)
        chi = int(evaluate(poly_neg_xy(h_cr_polynomial(data)), 1, 1))
        expected = rhs_main_formula(1, chi, 5)
        assert series.coefficients == expected.coefficients, name


def test_half_integral_xy_exponent_rejected():
    dims = BigradedDims.from_dict({(0, 0): 1})
    data = (SectorHodgeDatum("e", 0, dims, (), 1),)
    with pytest.raises(NonIntegerExponentOfXY):
        hodge_product_rhs(data, 1, 2)
    # order 1 never forms a 2-cycle, so d odd is fine there
    assert hodge_product_rhs(data, 1, 1).coefficients[1] == poly({(0, 0): 1})


def test_fractional_shift_rejected_in_product():
    dims = BigradedDims.from_dict({(0, 0): 1})
    data = (SectorHodgeDatum("g", 0, dims, (Fraction(1, 2),), 0),)
    with pytest.raises(NonIntegerShift):
        hodge_product_rhs(data, 0, 2)


def test_empty_data_is_one():
    series = hodge_product_rhs((), 0, 3)
    assert all(
        c == (HODGE_ONE if n == 0 else ())
        for n, c in enumerate(series.coefficients)
    )
