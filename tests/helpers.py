"""Small group and complex computations that only the tests need.

``element_order`` and ``is_abelian`` read a group's table; the library
never asks for either.  ``abelian_subgroups_by_closure`` is the naive
closure that the library's abelian subgroup lattice is checked against.
``perm_inverse``, ``apply``, ``evaluate_word``, ``evaluate_hom``,
``json_text`` and ``suite`` are conveniences over library data that only
tests call.
``euler_satake_subcomplex`` restricts the Euler-Satake orbit sum to an
invariant subcomplex, which the tests use to check additivity over
unions.  ``orbit_complex_by_relabel``,
``euler_satake_by_fractions``, ``wreath_inv`` and ``wreath_conj`` are
the plain routes that the library's orbit complex, Euler-Satake sum and
wreath conjugation are checked against.  ``sign_averages`` walks the
classes of a wreath product element by element (with ``wreath_commute``
and ``factor_orbits``), the route that the product-cell left sides'
signed centralizer recursion is checked against.
``subdivision_rows_by_simplex`` and ``product_rows_by_pair`` key the
action rows of a subdivision and of a product by their simplices, the
plain routes that the library's coded rows are checked against.
"""
from collections import Counter
from fractions import Fraction

from orbichar.cli import _text
from orbichar.complexes import (
    SimplicialComplex,
    barycentric_subdivision,
    product_complex,
)
from orbichar.equivariant import (
    EquivariantComplex,
    RegularEquivariantComplex,
    _require_regular,
)
from orbichar.errors import InputError
from orbichar.groups import FiniteGroup, direct_product, generators, orbit, orbits
from orbichar.homs import GroupHom, _evaluate, validate_word
from orbichar.library import EQUIVARIANT_PRESETS, SUITE_NAMES
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


def abelian_subgroups_by_closure(group: FiniteGroup) -> set:
    """Every abelian subgroup as a frozenset: from the trivial one, adjoin
    each element that commutes with a subgroup found so far and close the
    generators by products, until nothing new turns up."""
    t, e = group.table, group.identity
    found = {frozenset([e]): (e,)}  # subgroup -> generators
    frontier = list(found)
    while frontier:
        sub = frontier.pop()
        for g in range(group.order):
            if g not in sub and all(t[g][a] == t[a][g] for a in sub):
                gens = found[sub] + (g,)
                bigger = frozenset(orbit(e, gens, group.mul))
                if bigger not in found:
                    found[bigger] = gens
                    frontier.append(bigger)
    return set(found)


def perm_inverse(p: tuple) -> tuple:
    out = [0] * len(p)
    for i, v in enumerate(p):
        out[v] = i
    return tuple(out)


def apply(ec: EquivariantComplex, g: int, v: int) -> int:
    """The image of vertex v under g, read from g's action row."""
    return ec.action[g][ec._vpos[v]]


def evaluate_word(group: FiniteGroup, images, word) -> int:
    """The image of a word in the generators (negative letters for
    inverses) under the generator images, after the word is checked."""
    return _evaluate(group, images, validate_word(word, len(images)))


def evaluate_hom(phi: GroupHom, word) -> int:
    """phi of a word in the generators (negative letters for inverses)."""
    return evaluate_word(phi.group, phi.images, word)


def json_text(obj) -> str:
    """The report writer's text of ``obj`` as one string."""
    out = []
    _text(obj, "\n", out)
    return "".join(out)


def suite() -> list:
    """The bundled equivariant complexes as (name, complex) pairs."""
    return [(name, EQUIVARIANT_PRESETS[name]()) for name in SUITE_NAMES]


def subdivision_rows_by_simplex(ec: EquivariantComplex) -> tuple:
    """The action rows on the first subdivision of ``ec``: g sends the
    vertex of simplex s to the vertex of g.s."""
    sd, vertex_of = barycentric_subdivision(ec.cx)
    simps = ec.cx.simplices
    return tuple(
        tuple(vertex_of[ec.map_simplex(g, simps[i])] for i in sd.vertices)
        for g in ec.group.elements()
    )


def product_rows_by_pair(a: EquivariantComplex, b: EquivariantComplex) -> tuple:
    """The action rows of (g, h), in ``direct_product`` order, on the
    order complex of the product face poset: the vertex of (s, t) goes to
    the vertex of (g.s, h.t)."""
    _cx, tuples = product_complex([a.cx, b.cx])
    ids = {t: i for i, t in enumerate(tuples)}
    _group, pairs = direct_product(a.group, b.group)
    return tuple(
        tuple(ids[(a.map_simplex(g, s), b.map_simplex(h, t))] for s, t in tuples)
        for g, h in pairs
    )


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


def wreath_commute(wreath: WreathProduct, a: WreathElement, b: WreathElement) -> bool:
    """Whether a b = b a, with no product built: for a = (g, s) and
    b = (h, p), a b puts g[s p j] h[p j] at s p j and b a puts
    h[p s j] g[s j] at p s j, so both must agree for every j."""
    t, g, s, h, p = wreath.base.table, a.components, a.perm, b.components, b.perm
    for j, k in enumerate(p):
        i = s[k]
        if i != p[s[j]] or t[g[i]][h[k]] != t[h[i]][g[s[j]]]:
            return False
    return True


def factor_orbits(perms: list, size: int) -> tuple:
    """The orbits of the permutations' group on the factors 0..size-1."""
    return tuple(orbits(range(size), lambda i: orbit(i, perms, lambda j, p: p[j])))


def sign_averages(wreath: WreathProduct, levels: int) -> tuple:
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
    walked = {}

    def walk(members: list, gens, perms: list, left: int) -> tuple:
        if left <= 1:
            lasts = Counter(x.perm for x in members) if left else {identity: 1}
            tally = [0, 0]
            for perm, count in lasts.items():
                tally[len(factor_orbits(perms + [perm], size)) % 2] += count
            return (
                Fraction(tally[0] + tally[1], len(members)),
                Fraction(tally[0] - tally[1], len(members)),
            )
        key = (tuple(members), factor_orbits(perms, size), left)
        if key not in walked:
            gens = gens or generators(wreath, members)
            conjs = [wreath.conjugator(g) for g in gens]
            plus = minus = 0
            for cls in orbits(members, lambda x: orbit(x, conjs, lambda y, c: c(y))):
                x, cent = cls[0], members  # members, when x is central
                if not all(wreath_commute(wreath, g, x) for g in gens):
                    cent = [g for g in members if wreath_commute(wreath, g, x)]
                a, b = walk(cent, None, perms + [x.perm], left - 1)
                plus, minus = plus + a, minus + b
            walked[key] = plus, minus
        return walked[key]

    averages = walk(list(wreath.elements()), wreath.generators(), [], levels)
    del walk  # walk refers to itself through its cell; unbinding frees the nodes
    return averages
