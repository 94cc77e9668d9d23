"""Extension-table oracles: the route the point recursion no longer takes.

Test-only.  The library builds only C_G(c) for the extension group
E(c, r) of a cycle (``wreath.centralizer_extension``), and reads E's
series as a power of C_G(c)'s (``series._point_chi_coefficients``).  The
functions here build E(c, r) as an explicit multiplication table
instead, and recurse through those tables for point chi_(m), so the
tests can check the power law against groups that were really built.
"""
import operator

from orbichar.errors import InputError
from orbichar.groups import FiniteGroup, centralizer, conjugacy_classes, subgroup
from orbichar.wreath import type_counts


class BadExtension(InputError):
    """Central-extension datum is inconsistent with the given action."""


def is_central(group: FiniteGroup, z: int) -> bool:
    table = group.table
    return all(table[z][x] == table[x][z] for x in range(group.order))


def central_cyclic_extension(
    group: FiniteGroup, z: int, r: int
) -> tuple[FiniteGroup, list]:
    """The extension K<a> with a^r = z for a central element z of K.

    Elements are pairs (k, i) with 0 <= i < r, indexed k*r + i, multiplied
    by (k1, i1)(k2, i2) = (k1 k2 z^((i1+i2) div r), (i1+i2) mod r); the new
    generator a = (e, 1) is central, and <a> meets K exactly in <z> = <a^r>.
    """
    if r < 1:
        raise BadExtension("extension degree r must be >= 1")
    if not 0 <= z < group.order:
        raise BadExtension(f"element index {z} out of range")
    if not is_central(group, z):
        raise BadExtension(f"element {z} is not central")
    t = group.table
    # For k = k1 k2 and s = i1 + i2, the product is low[k][s] = (k, s) when
    # s < r and high[k][s - r] = (k z, s - r) when the exponents carry.
    low = [[k * r + s for s in range(r)] for k in group.elements()]
    high = [[t[k][z] * r + s for s in range(r)] for k in group.elements()]
    table = []
    for k1 in group.elements():
        row_k = t[k1]
        for i1 in range(r):
            row = []
            for k2 in group.elements():
                k = row_k[k2]
                row += low[k][i1:] + high[k][:i1]
            table.append(row)
    pairs = [(k, i) for k in group.elements() for i in range(r)]
    return FiniteGroup(table, _skip_validation=True), pairs


def extension_table(base: FiniteGroup, c: int, r: int) -> FiniteGroup:
    """E(c, r) = C_G(c)<a> with a central and a^r = c, as a table of order
    r * |C_G(c)|."""
    k, carrier = subgroup(base, centralizer(base, [c]))
    ext, _pairs = central_cyclic_extension(k, carrier.index(c), r)
    return ext


def point_chi_by_extension_tables(
    group: FiniteGroup, m: int, order: int, memo: dict
) -> list:
    """Coefficients 0..order (or more) of sum_n chi_(m)(pt x G ~ S_n) q^n,
    for m >= 1: the product over classes c of G and r >= 1 of the
    (E(c, r), m - 1) series read at q^r, with every E(c, r) built by
    ``extension_table`` and recursed into, at m = 2 as well.  ``memo``
    maps (group, m) to the lists built so far, and ("E", group, c, r) to
    the tables."""
    key = (group, m)
    cached = memo.get(key)
    if cached is not None and len(cached) > order:
        return cached
    if m == 1:
        out = type_counts(len(conjugacy_classes(group)), order)
    else:
        out = [1] + [0] * order
        for cls in conjugacy_classes(group):
            for r in range(1, order + 1):
                ext_key = ("E", group, cls.representative, r)
                if ext_key not in memo:
                    memo[ext_key] = extension_table(group, cls.representative, r)
                factor = point_chi_by_extension_tables(
                    memo[ext_key], m - 1, order // r, memo
                )
                # multiply by factor(q^r), top coefficient first
                for i in range(order, r - 1, -1):
                    terms = map(operator.mul, factor[1 : i // r + 1], out[i - r :: -r])
                    out[i] += sum(terms)
    memo[key] = out
    return out
