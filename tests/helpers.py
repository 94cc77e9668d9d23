"""Small group and complex computations that only the tests need.

``element_order`` and ``is_abelian`` read a group's table; the library
never asks for either.  ``euler_satake_subcomplex`` restricts the
Euler-Satake orbit sum to an invariant subcomplex, which the tests use to
check additivity over unions.
"""
from fractions import Fraction

from orbichar.equivariant import RegularEquivariantComplex, _require_regular, _satake_sum
from orbichar.errors import InputError
from orbichar.groups import FiniteGroup


def element_order(group: FiniteGroup, a: int) -> int:
    k, x = 1, a
    while x != group.identity:
        x = group.table[x][a]
        k += 1
    return k


def is_abelian(group: FiniteGroup) -> bool:
    t = group.table
    return all(t[a][b] == t[b][a] for a in range(group.order) for b in range(a))


def euler_satake_subcomplex(rec: RegularEquivariantComplex, simplices) -> Fraction:
    """Euler-Satake sum restricted to an invariant subcomplex."""
    ec = _require_regular(rec)
    subset = set(simplices)
    for s in subset:
        if s not in ec.cx.simplex_set:
            raise InputError(f"{s} is not a simplex of the complex")
        for i in range(len(s)):
            if len(s) > 1 and s[:i] + s[i + 1 :] not in subset:
                raise InputError(f"subset is not closed under faces at {s}")
    return _satake_sum(ec, sorted(subset), subset)
