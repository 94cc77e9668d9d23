"""Small group and complex computations that only the tests need.

``element_order`` and ``is_abelian`` read a group's table; the library
never asks for either.  ``euler_satake_subcomplex`` restricts the
Euler-Satake orbit sum to an invariant subcomplex, which the tests use to
check additivity over unions.  ``orbit_complex_by_relabel``,
``euler_satake_by_fractions``, ``wreath_inv`` and ``wreath_conj`` are
the plain routes that the library's orbit complex, Euler-Satake sum and
wreath conjugation are checked against.
"""
from fractions import Fraction

from orbichar.complexes import SimplicialComplex
from orbichar.equivariant import RegularEquivariantComplex, _require_regular
from orbichar.errors import InputError
from orbichar.groups import FiniteGroup, orbits, perm_inverse
from orbichar.wreath import WreathElement, WreathProduct


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


def orbit_complex_by_relabel(rec: RegularEquivariantComplex) -> SimplicialComplex:
    """The quotient complex by relabelling every simplex with the indices
    of its vertices' orbits and sorting it."""
    ec = _require_regular(rec)
    label = {}
    for i, orbit in enumerate(ec.vertex_orbits()):
        for v in orbit:
            label[v] = i
    return SimplicialComplex(
        {tuple(sorted(label[v] for v in s)) for s in ec.cx.simplices},
        _skip_validation=True,
    )


def euler_satake_by_fractions(rec: RegularEquivariantComplex) -> Fraction:
    """(-1)^dim / |isotropy| summed as Fractions over simplex orbits, each
    orbit the images of its first simplex under every element."""
    ec = _require_regular(rec)
    order = ec.group.order
    total = Fraction(0)
    for members in orbits(
        ec.cx.simplices, lambda s: {ec.map_simplex(g, s) for g in range(order)}
    ):
        total += Fraction((-1) ** (len(members[0]) - 1), order // len(members))
    return total


def wreath_inv(wreath: WreathProduct, a: WreathElement) -> WreathElement:
    """(h, s^-1) with g . s(h) = 1 for a = (g, s): h[j] = g[s(j)]^-1."""
    binv = wreath.base.inverse
    comps = tuple(binv[a.components[j]] for j in a.perm)
    return WreathElement(comps, perm_inverse(a.perm))


def wreath_conj(wreath: WreathProduct, g: WreathElement, x: WreathElement):
    """g x g^-1 from two products and an inverse."""
    return wreath.mul(wreath.mul(g, x), wreath_inv(wreath, g))
