"""Small group and complex computations that only the tests need.

``element_order`` and ``is_abelian`` read a group's table; the library
never asks for either.  ``euler_satake_subcomplex`` restricts the
Euler-Satake orbit sum to an invariant subcomplex, which the tests use to
check additivity over unions.
"""
from fractions import Fraction

from orbichar.equivariant import RegularEquivariantComplex, _require_regular
from orbichar.errors import InputError
from orbichar.groups import FiniteGroup, orbits


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
    """Euler-Satake sum restricted to an invariant subcomplex: (-1)^dim /
    |isotropy| over the orbits through ``simplices``, each orbit checked
    to stay inside them."""
    ec = _require_regular(rec)
    subset = set(simplices)
    whole = set(ec.cx.simplices)
    for s in subset:
        if s not in whole:
            raise InputError(f"{s} is not a simplex of the complex")
        for i in range(len(s)):
            if len(s) > 1 and s[:i] + s[i + 1 :] not in subset:
                raise InputError(f"subset is not closed under faces at {s}")
    order = ec.group.order

    def images(s: tuple) -> set:
        out = {ec.map_simplex(g, s) for g in range(order)}
        if not out <= subset:
            raise InputError("subset is not invariant under the action")
        return out

    total = Fraction(0)
    for members in orbits(sorted(subset), images):
        total += Fraction((-1) ** (len(members[0]) - 1), order // len(members))
    return total
