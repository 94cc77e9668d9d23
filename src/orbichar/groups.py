"""Finite groups given by explicit multiplication tables.

Elements of a group of order n are the integers 0..n-1; the table stores
``table[a][b] = a*b``.  Everything downstream (conjugacy classes,
centralizers, homomorphism enumeration, wreath products) works purely with
these indices, so a group built from permutations, from a table file, or as
a subgroup of something larger all behave identically.

All outputs are canonically ordered: conjugacy classes are sorted by their
least element, centralizers are sorted tuples, and so on.  Nothing in this
module depends on dict iteration order or other incidental state.
"""
from __future__ import annotations

import itertools
import random
from dataclasses import dataclass

from .errors import (
    BadExtension,
    InputError,
    NoIdentity,
    NoInverse,
    NonAssociative,
    NotBijection,
    OrderCapExceeded,
)

# Orders up to this bound get an exhaustive associativity check; larger
# tables are spot-checked on a fixed random sample of triples.
_EXHAUSTIVE_ASSOC_BOUND = 64
_ASSOC_SAMPLES = 20000

DEFAULT_ORDER_CAP = 10**6


class FiniteGroup:
    """An immutable finite group with explicit multiplication table."""

    # ``_classes`` and ``_class_of`` hold the conjugacy data, filled on the
    # first call to ``conjugacy_classes``; the table never changes, so
    # neither does the data.
    __slots__ = ("table", "inverse", "identity", "labels", "order",
                 "_classes", "_class_of")

    def __init__(self, table, labels=None, _skip_validation=False):
        table = tuple(tuple(row) for row in table)
        n = len(table)
        if not _skip_validation:
            _validate_table(table)
        self.table = table
        self.order = n
        self.identity = _find_identity(table)
        self.inverse = _find_inverses(table, self.identity)
        if labels is not None:
            labels = tuple(str(x) for x in labels)
            if len(labels) != n:
                raise InputError(f"expected {n} labels, got {len(labels)}")
        self.labels = labels
        self._classes = None
        self._class_of = None

    def mul(self, a: int, b: int) -> int:
        return self.table[a][b]

    def inv(self, a: int) -> int:
        return self.inverse[a]

    def conj(self, g: int, x: int) -> int:
        """g * x * g^-1."""
        return self.table[self.table[g][x]][self.inverse[g]]

    def elements(self) -> range:
        return range(self.order)

    def label(self, a: int) -> str:
        if self.labels is not None:
            return self.labels[a]
        return str(a)

    def element_order(self, a: int) -> int:
        k, x = 1, a
        while x != self.identity:
            x = self.table[x][a]
            k += 1
        return k

    def power(self, a: int, k: int) -> int:
        if k < 0:
            return self.power(self.inverse[a], -k)
        x = self.identity
        for _ in range(k):
            x = self.table[x][a]
        return x

    def is_abelian(self) -> bool:
        t = self.table
        return all(t[a][b] == t[b][a] for a in range(self.order) for b in range(a))

    def __repr__(self):
        return f"FiniteGroup(order={self.order})"


def _validate_table(table) -> None:
    n = len(table)
    for i, row in enumerate(table):
        if len(row) != n:
            raise InputError(f"row {i} has length {len(row)}, expected {n}")
        for v in row:
            if not isinstance(v, int) or not (0 <= v < n):
                raise InputError(f"table entry {v!r} out of range 0..{n - 1}")
    # Closure is implied by the range check.  Associativity:
    if n <= _EXHAUSTIVE_ASSOC_BOUND:
        triples = itertools.product(range(n), repeat=3)
    else:
        rng = random.Random(0)
        triples = (
            (rng.randrange(n), rng.randrange(n), rng.randrange(n))
            for _ in range(_ASSOC_SAMPLES)
        )
    for a, b, c in triples:
        if table[table[a][b]][c] != table[a][table[b][c]]:
            raise NonAssociative(f"(a*b)*c != a*(b*c) for (a,b,c)=({a},{b},{c})")


def _find_identity(table) -> int:
    n = len(table)
    for e in range(n):
        if all(table[e][x] == x and table[x][e] == x for x in range(n)):
            return e
    raise NoIdentity("no two-sided identity element")


def _find_inverses(table, identity) -> tuple:
    n = len(table)
    inverse = []
    for a in range(n):
        for b in range(n):
            if table[a][b] == identity and table[b][a] == identity:
                inverse.append(b)
                break
        else:
            raise NoInverse(f"element {a} has no two-sided inverse")
    return tuple(inverse)


def build_group(table, labels=None) -> FiniteGroup:
    """Validate a multiplication table and wrap it as a group."""
    return FiniteGroup(table, labels=labels)


# ---------------------------------------------------------------------------
# permutation closures


def check_perm(p, degree: int) -> tuple:
    p = tuple(p)
    if len(p) != degree or sorted(p) != list(range(degree)):
        raise NotBijection(f"{p!r} is not a permutation of 0..{degree - 1}")
    return p


def perm_compose(p: tuple, q: tuple) -> tuple:
    """(p o q)(x) = p(q(x))."""
    return tuple(p[q[x]] for x in range(len(p)))


def perm_inverse(p: tuple) -> tuple:
    out = [0] * len(p)
    for i, v in enumerate(p):
        out[v] = i
    return tuple(out)


def perm_cycle_label(p: tuple) -> str:
    """Cycle notation on points 1..d, for human-readable labels."""
    seen = [False] * len(p)
    parts = []
    for i in range(len(p)):
        if seen[i] or p[i] == i:
            seen[i] = True
            continue
        cyc = [i]
        seen[i] = True
        j = p[i]
        while j != i:
            cyc.append(j)
            seen[j] = True
            j = p[j]
        parts.append("(" + " ".join(str(k + 1) for k in cyc) + ")")
    return "".join(parts) if parts else "()"


def build_group_from_permutations(
    generators, degree: int | None = None, order_cap: int = DEFAULT_ORDER_CAP
) -> FiniteGroup:
    """Close a set of permutations under composition and build the group.

    Raises OrderCapExceeded if the closure grows past ``order_cap``.
    """
    generators = [tuple(g) for g in generators]
    if degree is None:
        if not generators:
            raise InputError("need a degree when no generators are given")
        degree = len(generators[0])
    gens = [check_perm(g, degree) for g in generators]
    identity = tuple(range(degree))
    seen = {identity}
    queue = [identity]
    while queue:
        p = queue.pop()
        for g in gens:
            q = perm_compose(p, g)
            if q not in seen:
                if len(seen) >= order_cap:
                    raise OrderCapExceeded(
                        f"permutation closure exceeds order cap {order_cap}"
                    )
                seen.add(q)
                queue.append(q)
    elems = sorted(seen)
    index = {p: i for i, p in enumerate(elems)}
    table = [[index[perm_compose(p, q)] for q in elems] for p in elems]
    labels = [perm_cycle_label(p) for p in elems]
    return FiniteGroup(table, labels=labels, _skip_validation=True)


# ---------------------------------------------------------------------------
# conjugacy and centralizers


@dataclass(frozen=True)
class ConjugacyClass:
    representative: int  # least element of the class
    members: tuple


def conjugacy_classes(group: FiniteGroup) -> tuple[ConjugacyClass, ...]:
    """Conjugacy classes, sorted by least member; representative is lex-min.

    Computed once per group and stored on it; later calls return the same
    tuple.
    """
    if group._classes is None:
        n = group.order
        table, inverse = group.table, group.inverse
        class_of = [-1] * n
        classes = []
        for x in range(n):
            if class_of[x] >= 0:
                continue
            orbit = {table[table[g][x]][inverse[g]] for g in range(n)}
            for y in orbit:
                class_of[y] = len(classes)
            members = tuple(sorted(orbit))
            classes.append(ConjugacyClass(members[0], members))
        group._class_of = tuple(class_of)
        group._classes = tuple(classes)
    return group._classes


def class_index(group: FiniteGroup) -> tuple:
    """``class_index(group)[x]`` is the position of x's class in
    ``conjugacy_classes(group)``."""
    if group._class_of is None:
        conjugacy_classes(group)
    return group._class_of


def centralizer(group: FiniteGroup, elements) -> tuple:
    """Sorted tuple of all g commuting with every element of ``elements``."""
    table = group.table
    elems = sorted(set(elements))
    return tuple(
        g
        for g in range(group.order)
        if all(table[g][x] == table[x][g] for x in elems)
    )


def is_central(group: FiniteGroup, z: int) -> bool:
    table = group.table
    return all(table[z][x] == table[x][z] for x in range(group.order))


# ---------------------------------------------------------------------------
# derived groups


def subgroup(group: FiniteGroup, elements) -> tuple[FiniteGroup, tuple]:
    """The subgroup on a closed subset of elements, reindexed to 0..k-1.

    Returns ``(H, carrier)`` where ``carrier[i]`` is the parent index of
    element ``i`` of ``H``.  Raises InputError if the subset is not closed.
    """
    carrier = tuple(sorted(set(elements)))
    pos = {g: i for i, g in enumerate(carrier)}
    table = []
    for a in carrier:
        row = []
        for b in carrier:
            c = group.table[a][b]
            if c not in pos:
                raise InputError(
                    f"subset not closed: {a}*{b}={c} is outside the subset"
                )
            row.append(pos[c])
        table.append(row)
    labels = None
    if group.labels is not None:
        labels = [group.labels[g] for g in carrier]
    return FiniteGroup(table, labels=labels, _skip_validation=True), carrier


def direct_product(g1: FiniteGroup, g2: FiniteGroup) -> tuple[FiniteGroup, list]:
    """Direct product; element (a, b) has index a*|G2| + b.

    Returns the product group and the list of (a, b) pairs in index order.
    """
    n2 = g2.order
    pairs = [(a, b) for a in g1.elements() for b in g2.elements()]
    table = [
        [g1.table[a][c] * n2 + g2.table[b][d] for (c, d) in pairs]
        for (a, b) in pairs
    ]
    labels = [f"({g1.label(a)},{g2.label(b)})" for (a, b) in pairs]
    return FiniteGroup(table, labels=labels, _skip_validation=True), pairs


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


# ---------------------------------------------------------------------------
# standard groups


def trivial_group() -> FiniteGroup:
    return FiniteGroup(((0,),), labels=["e"], _skip_validation=True)


def cyclic_group(n: int) -> FiniteGroup:
    if n < 1:
        raise InputError("cyclic group needs n >= 1")
    table = [[(a + b) % n for b in range(n)] for a in range(n)]
    labels = ["e"] + [f"g^{k}" if k > 1 else "g" for k in range(1, n)]
    return FiniteGroup(table, labels=labels, _skip_validation=True)


def symmetric_group(n: int) -> FiniteGroup:
    if n < 1:
        raise InputError("symmetric group needs n >= 1")
    if n == 1:
        return trivial_group()
    gens = [tuple([1, 0] + list(range(2, n))), tuple(list(range(1, n)) + [0])]
    return build_group_from_permutations(gens, degree=n)


def dihedral_group(n: int) -> FiniteGroup:
    """Symmetries of the regular n-gon (order 2n)."""
    if n < 2:
        raise InputError("dihedral group needs n >= 2")
    rot = tuple((i + 1) % n for i in range(n))
    ref = tuple((n - i) % n for i in range(n))
    return build_group_from_permutations([rot, ref], degree=n)


def group_from_json(data) -> FiniteGroup:
    """Build a group from its JSON form.

    Accepts either ``{"order": n, "table": [[...]], "labels": [...]}`` or
    ``{"permutations": [[...], ...], "degree": d}``.
    """
    if not isinstance(data, dict):
        raise InputError("group spec must be a JSON object")
    if "table" in data:
        table = data["table"]
        if "order" in data and data["order"] != len(table):
            raise InputError("declared order does not match table size")
        return build_group(table, labels=data.get("labels"))
    if "permutations" in data:
        return build_group_from_permutations(
            data["permutations"], degree=data.get("degree")
        )
    raise InputError("group spec needs a 'table' or 'permutations' field")
