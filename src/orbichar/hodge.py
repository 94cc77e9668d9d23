"""Shift numbers, bigraded Hodge polynomials, and the wreath product formula.

This module works on abstract sector data: for each conjugacy class (c) and
each component j of its fixed set, the bigraded dimensions h^{s,t} of the
sector's Dolbeault cohomology, the rotation angles of c on the normal
directions (rationals in (0,1]), and the component's complex dimension.
Nothing here touches simplicial complexes -- the product formula for shifted
Hodge polynomials is an identity in this data, and that identity is what
gets verified.

Conventions, fixed once:

* the shift number of a sector component is the sum of its angles; all
  shifts must be integers (the half-integer case is rejected, not
  approximated),
* dimensions are unsigned; the sign bookkeeping of the product formula is
  carried by substituting (-x,-y) into assembled polynomials and by the
  exponent -(-1)^(s+t) h^{s,t} on the right side, both applied literally,
* in the right side's (xy)^((r-1)d/2) the index r is the cycle length, read
  off the outer product index n.

A Hodge polynomial is the sorted tuple of its nonzero ((s, t), c) terms.
Validation happens at the JSON boundary only: ``sector_data_from_json``
and ``BigradedDims`` check every field, bidegree and dimension.  The
arithmetic after them (``h_cr_polynomial``, ``sp_generating``,
``HodgeSeries.__mul__`` and the left side's (-x,-y) substitution) sums
into int dicts and sorts once, without checking again.  The two
sides of the product formula share no evaluator: the right side
multiplies ``_binomial_power`` factors by ``HodgeSeries.__mul__``, the
left side builds ``sp_generating`` in place and walks the type trie.
"""
from __future__ import annotations

import operator
from dataclasses import dataclass, field
from functools import reduce
from fractions import Fraction

from . import wreath
from .errors import (
    AngleOutOfRange,
    InputError,
    NonIntegerExponentOfXY,
    NonIntegerShift,
)
from .series import binomial_coefficients, same_order
from .wreath import type_counts, type_trie


# ---------------------------------------------------------------------------
# bigraded polynomials in x, y


_ONE = (((0, 0), 1),)


def _from_sums(acc: dict) -> tuple:
    """The polynomial of an int dict {(s, t): coefficient}: sorted once,
    zeros dropped."""
    return tuple([kc for kc in sorted(acc.items()) if kc[1]])


def _add_products(acc: dict, left, right) -> None:
    """Add every product of a (bidegree, coefficient) term of ``left`` with
    one of ``right`` into ``acc``."""
    get = acc.get
    for (s1, t1), c1 in left:
        for (s2, t2), c2 in right:
            key = (s1 + s2, t1 + t2)
            acc[key] = get(key, 0) + c1 * c2


@dataclass(frozen=True)
class HodgeSeries:
    """A q-series whose coefficients are Hodge polynomials, truncated."""

    coefficients: tuple

    @property
    def order(self) -> int:
        return len(self.coefficients) - 1

    @classmethod
    def one(cls, order: int) -> "HodgeSeries":
        if order < 0:
            raise InputError("truncation order must be >= 0")
        return cls((_ONE,) + ((),) * order)

    def __mul__(self, other: "HodgeSeries") -> "HodgeSeries":
        top = same_order(self, other)
        right = [(j, b) for j, b in enumerate(other.coefficients) if b]
        sums = [{} for _ in range(top + 1)]
        for i, a in enumerate(self.coefficients):
            if a:
                for j, b in right:
                    if i + j > top:
                        break
                    _add_products(sums[i + j], a, b)
        return HodgeSeries(tuple(map(_from_sums, sums)))

    def to_json(self) -> list:
        return [{f"{s},{t}": str(c) for (s, t), c in p} for p in self.coefficients]


# ---------------------------------------------------------------------------
# sector data


@dataclass(frozen=True)
class BigradedDims:
    """A finite map (s,t) -> nonnegative dimension."""

    entries: tuple  # sorted ((s, t), positive int)

    def __post_init__(self):
        acc: dict = {}
        for (s, t), dim in self.entries:
            if not isinstance(s, int) or not isinstance(t, int) or s < 0 or t < 0:
                raise InputError(f"bidegree ({s},{t}) must be nonnegative integers")
            if not isinstance(dim, int) or dim < 0:
                raise InputError(f"dimension at ({s},{t}) must be a nonnegative int")
            if dim:
                acc[(s, t)] = acc.get((s, t), 0) + dim
        object.__setattr__(self, "entries", tuple(sorted(acc.items())))

    @classmethod
    def from_dict(cls, mapping) -> "BigradedDims":
        return cls(tuple(mapping.items()))

    def max_degree(self) -> int:
        return max((max(s, t) for (s, t), _ in self.entries), default=0)


def shift_number(angles) -> Fraction:
    """Sum of rotation angles; every angle must lie in (0, 1]."""
    total = Fraction(0)
    for theta in angles:
        theta = Fraction(theta)
        if not 0 < theta <= 1:
            raise AngleOutOfRange(f"angle {theta} outside (0, 1]")
        total += theta
    return total


@dataclass(frozen=True)
class SectorHodgeDatum:
    """One (conjugacy class, fixed-set component) with its Hodge data.

    ``d`` is the complex dimension of the component, which bounds the
    bidegree support; the angles are those of the class representative on
    the normal directions, so the trivial sector has an empty list.
    ``shift`` is their sum, taken once on construction.
    """

    class_label: str
    component: int
    dims: BigradedDims
    angles: tuple
    d: int
    shift: Fraction = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        object.__setattr__(
            self, "angles", tuple(Fraction(a) for a in self.angles)
        )
        object.__setattr__(self, "shift", shift_number(self.angles))
        if not isinstance(self.d, int) or self.d < 0:
            raise InputError(f"component dimension must be >= 0, got {self.d}")
        if self.dims.max_degree() > self.d:
            raise InputError(
                f"dims support exceeds component dimension {self.d}"
            )

    def integer_shift(self) -> int:
        value = self.shift
        if value.denominator != 1:
            raise NonIntegerShift(
                f"sector ({self.class_label}, {self.component}) has "
                f"non-integer shift {value}"
            )
        return int(value)


def _json_int(value, what: str) -> int:
    """A JSON int field as it is: a float, a bool or a string is refused,
    not truncated."""
    if type(value) is not int:
        raise TypeError(f"{what} must be an int, got {value!r}")
    return value


def sector_data_from_json(items) -> tuple:
    """Parse [{"class", "component", "dims": {"s,t": dim}, "angles", "d"}]."""
    if not isinstance(items, list):
        raise InputError("hodge sectors must be a JSON list")
    data = []
    for item in items:
        if not isinstance(item, dict):
            raise InputError(f"bad sector datum {item!r}: not a JSON object")
        try:
            dims = {}
            for key, dim in dict(item["dims"]).items():
                s, t = (int(p) for p in str(key).split(","))
                if (s, t) in dims:
                    raise ValueError(f"bidegree ({s},{t}) is given twice")
                dims[(s, t)] = _json_int(dim, f"dimension at {key!r}")
            datum = SectorHodgeDatum(
                class_label=str(item["class"]),
                component=_json_int(item["component"], "'component'"),
                dims=BigradedDims.from_dict(dims),
                angles=tuple(Fraction(a) for a in item.get("angles", [])),
                d=_json_int(item["d"], "'d'"),
            )
        except (KeyError, TypeError, ValueError, ZeroDivisionError) as exc:
            raise InputError(f"bad sector datum {item!r}: {exc}") from exc
        data.append(datum)
    return tuple(data)


# ---------------------------------------------------------------------------
# shifts


def h_cr_polynomial(data) -> tuple:
    """The shifted polynomial: each sector's dims moved up by (xy)^shift.

    All dimensions enter unsigned; signs belong to the product formula, not
    to the polynomial.
    """
    acc: dict = {}
    for datum in data:
        k = datum.integer_shift()
        for (s, t), dim in datum.dims.entries:
            key = (s + k, t + k)
            acc[key] = acc.get(key, 0) + dim
    return _from_sums(acc)


# ---------------------------------------------------------------------------
# symmetric powers


def sp_generating(dims: BigradedDims, order: int) -> HodgeSeries:
    """Generating series of graded symmetric-power dimensions.

    Coefficient m is the bigraded dimension polynomial of the m-th symmetric
    power, where even-total-degree classes contribute symmetric powers and
    odd ones exterior powers: the product of (1 - x^s y^t q)^(-dim) over
    even (s,t) and (1 + x^s y^t q)^(dim) over odd.  All coefficients are
    nonnegative.  Built in place for the left side, one int dict per
    coefficient and one pass per (s,t) with P = (1 + c x^s y^t q)^dim, c = 1
    for odd (s,t) and -1 for even: multiply by P, top coefficient first, or
    divide by P, bottom first; at most order^2 steps, however large dim is.
    """
    coeffs = [dict(c) for c in HodgeSeries.one(order).coefficients]
    for (s, t), dim in dims.entries:
        c = 1 if (s + t) % 2 else -1
        row = binomial_coefficients(dim, c, order + 1)
        # c_n += c b_i (x^s y^t)^i c_(n-i) for 1 <= i <= min(n, dim)
        terms = [(i, (((i * s, i * t), c * b),)) for i, b in enumerate(row) if i and b]
        for n in range(order, 0, -1) if c == 1 else range(1, order + 1):
            for i, term in terms[:n]:
                _add_products(coeffs[n], coeffs[n - i].items(), term)
    return HodgeSeries(tuple(map(_from_sums, coeffs)))


def _binomial_power(s: int, t: int, n: int, c: int, k: int, order: int) -> HodgeSeries:
    """The series (1 + c x^s y^t q^n)^k for n >= 1 and any int k, truncated
    at q^order, in closed form: its coefficient of q^(n*i) is
    C(k, i) c^i x^(i*s) y^(i*t)."""
    coeffs = [()] * (order + 1)
    row = binomial_coefficients(k, c, order // n + 1)
    for i, b in enumerate(row):
        coeffs[n * i] = (((i * s, i * t), b),) if b else ()
    return HodgeSeries(tuple(coeffs))


# ---------------------------------------------------------------------------
# the product formula, both sides


def _check_xy_exponent(d: int, n: int) -> int:
    """(n-1)d/2 as an integer, else NonIntegerExponentOfXY."""
    num = (n - 1) * d
    if num % 2:
        raise NonIntegerExponentOfXY(
            f"(n-1)d/2 = {num}/2 is fractional at n={n}, d={d}"
        )
    return num // 2


def _validate_inputs(data, d: int, order: int) -> None:
    if not isinstance(d, int) or d < 0:
        raise InputError(f"complex dimension must be >= 0, got {d}")
    if order < 0:
        raise InputError("truncation order must be >= 0")
    for datum in data:
        datum.integer_shift()
    if order >= 2:
        # (n-1)d/2 is fractional for some n <= order exactly when it is at 2
        _check_xy_exponent(d, 2)


def hodge_product_rhs(data, d: int, order: int) -> HodgeSeries:
    """The product side: over cycle lengths n and shifted bidegrees (s,t),
    the factor (1 - x^s y^t q^n (xy)^((n-1)d/2)) to the power
    -(-1)^(s+t) h^{s,t}, with h the unsigned shifted polynomial of the
    sector data.

    Each factor is built in closed form.  They are multiplied in from the
    longest cycle length down: a factor in q^n touches only every n-th
    coefficient, so the running product stays short in most degrees until
    the dense q^1 factors come last.  On the bundled datasets and the
    generated ones of ``perfbench``, that is a quarter of the term products
    of the upward order.
    """
    _validate_inputs(data, d, order)
    h = h_cr_polynomial(data)
    factors = []
    for n in range(order, 0, -1):
        e = _check_xy_exponent(d, n)
        for (s, t), coeff in h:
            exponent = -coeff if (s + t) % 2 == 0 else coeff
            factors.append(_binomial_power(s + e, t + e, n, -1, exponent, order))
    return reduce(operator.mul, factors) if factors else HodgeSeries.one(order)


def hodge_product_lhs(data, d: int, order: int) -> HodgeSeries:
    """The computed side: coefficient n sums over the sector types of the
    n-th wreath symmetric product.  Each type contributes the product of
    symmetric-power dimension polynomials of its entries, moved up by
    (xy)^(type shift); the whole coefficient is then taken at (-x,-y).

    The types of weight 1..order are the nodes of one trie
    (``wreath.type_trie``): a node's product is its parent's times the
    polynomial of its last entry, and its shift is its parent's plus that
    entry's, so each type costs one polynomial product.  Every type still
    adds its own term; this is a sum over types, not the product formula.

    The type count is predicted first, on doubling prefixes of the order
    (``wreath.capped_type_count``), and a count over ``wreath.TYPE_CAP``
    raises SizeCapExceeded before the trie is built.
    """
    _validate_inputs(data, d, order)

    def over_cap(k: int, count: int) -> str:
        at_least = "" if k == order else "at least "
        note = "" if k == order else f" ({count} to order {k})"
        return (
            f"the Hodge left side to order {order} sums {at_least}{count} sector"
            f" types of {len(data)} sectors{note}, above the type cap"
            f" {wreath.TYPE_CAP}"
        )

    wreath.capped_type_count(lambda k: sum(type_counts(len(data), k)[1:]), order, over_cap)
    sp_tables = [sp_generating(datum.dims, order).coefficients for datum in data]
    # the shift F + (r-1)d/2 of an r-cycle over each sector, from the
    # eigenvalues of the cyclic block matrix: ints, since the inputs passed
    # _validate_inputs (integer sector shifts, (r-1)d even)
    half = [(r - 1) * d // 2 for r in range(1, order + 1)]
    cycle_shift = []
    for datum in data:
        shift = datum.integer_shift()
        cycle_shift.append([0] + [shift + e for e in half])
    sums = [{} for _ in range(order + 1)]
    # the product terms and the shift of the open node at each depth
    products = [_ONE]
    shifts = [0]
    for depth, (idx, r), m, weight in type_trie(len(data), order):
        partial: dict = {}
        _add_products(partial, products[depth], sp_tables[idx][m])
        term = partial.items()
        shift = shifts[depth] + m * cycle_shift[idx][r]
        del products[depth + 1 :], shifts[depth + 1 :]
        products.append(term)
        shifts.append(shift)
        acc = sums[weight]
        get = acc.get
        for (s, t), c in term:
            key = (s + shift, t + shift)
            acc[key] = get(key, 0) + c
    # each coefficient is taken at (-x, -y): a term picks up (-1)^(s+t)
    coefficients = [_ONE]
    for acc in sums[1:]:
        coefficients.append(tuple([
            ((s, t), -c if (s + t) & 1 else c) for (s, t), c in _from_sums(acc)
        ]))
    return HodgeSeries(tuple(coefficients))


def hodge_product_check(data, d: int, order: int) -> dict:
    """Both sides of the product formula, as a JSON-ready report."""
    lhs = hodge_product_lhs(data, d, order)
    rhs = hodge_product_rhs(data, d, order)
    mismatch = None
    for i in range(order + 1):
        if lhs.coefficients[i] != rhs.coefficients[i]:
            mismatch = i
            break
    report = {
        "identity": "hodge-product-formula",
        "d": d,
        "order": order,
        "lhs": lhs.to_json(),
        "rhs": rhs.to_json(),
        "equal": mismatch is None,
    }
    if mismatch is not None:
        report["mismatch_index"] = mismatch
    return report
