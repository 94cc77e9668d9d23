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

import bisect
import itertools
import math
import random
from dataclasses import dataclass

from .errors import (
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

# Largest group built as an explicit |G|^2 multiplication table: wreath
# powers, built-in groups and permutation closures all stop here.
TABLE_ORDER_CAP = 2000


class FiniteGroup:
    """An immutable finite group with explicit multiplication table."""

    # ``_classes`` and ``_class_of`` hold the conjugacy data, filled on the
    # first call to ``conjugacy_classes`` (``_centralizers`` by
    # ``wreath.class_centralizers``), and ``_hash`` the table's hash,
    # filled on the first ``hash``; the table never changes, so neither do
    # they.  Groups are equal when their tables are, whatever their labels.
    # ``_labels`` is None, a tuple of str, or a ``_LazyLabels``.
    __slots__ = ("table", "inverse", "identity", "_labels", "order",
                 "_classes", "_class_of", "_centralizers", "_hash")

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
            if not isinstance(labels, _LazyLabels):
                labels = tuple(str(x) for x in labels)
            if len(labels) != n:
                raise InputError(f"expected {n} labels, got {len(labels)}")
        self._labels = labels
        self._classes = None
        self._class_of = None
        self._centralizers = None
        self._hash = None

    def __eq__(self, other):
        if not isinstance(other, FiniteGroup):
            return NotImplemented
        return self is other or self.table == other.table

    def __hash__(self):
        if self._hash is None:
            self._hash = hash(self.table)
        return self._hash

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
        if self._labels is not None:
            return self._labels[a]
        return str(a)

    @property
    def labels(self) -> tuple | None:
        """Every element's label in index order, or None when unlabeled."""
        if self._labels is None:
            return None
        return tuple(map(self.label, self.elements()))

    def power(self, a: int, k: int) -> int:
        if k < 0:
            return self.power(self.inverse[a], -k)
        x = self.identity
        for _ in range(k):
            x = self.table[x][a]
        return x

    def __repr__(self):
        return f"FiniteGroup(order={self.order})"


class _LazyLabels:
    """Labels ``fn(keys[a])`` for a = 0..len(keys)-1, each built on its
    first lookup: a large permutation group prints few of its labels."""

    __slots__ = ("fn", "keys", "built")

    def __init__(self, fn, keys):
        self.fn = fn
        self.keys = keys
        self.built = {}

    def __len__(self) -> int:
        return len(self.keys)

    def __getitem__(self, a: int) -> str:
        text = self.built.get(a)
        if text is None:
            text = self.built[a] = str(self.fn(self.keys[a]))
        return text


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
    # In an associative table a right inverse of an invertible element is
    # its inverse, so the first identity in row a decides.
    inverse = []
    for a, row in enumerate(table):
        b = row.index(identity) if identity in row else None
        if b is None or table[b][a] != identity:
            raise NoInverse(f"element {a} has no two-sided inverse")
        inverse.append(b)
    return tuple(inverse)


# ---------------------------------------------------------------------------
# orbit closure


def orbit(start, generators, act, cap: int | None = None) -> set:
    """Everything reachable from ``start`` by steps x -> act(x, g), g in
    ``generators``.

    When the generators act through a finite group, every group element is
    a positive word in them, so no inverses are needed.  Raises
    OrderCapExceeded as soon as the orbit would grow past ``cap``.
    """
    seen = {start}
    frontier = [start]
    while frontier:
        x = frontier.pop()
        for g in generators:
            y = act(x, g)
            if y not in seen:
                if cap is not None and len(seen) >= cap:
                    raise OrderCapExceeded(f"orbit closure exceeds cap {cap}")
                seen.add(y)
                frontier.append(y)
    return seen


def orbits(items, orbit_of) -> list[tuple]:
    """The orbits through ``items``, each a sorted tuple.

    Walks ``items`` in order; each item not yet in an orbit opens its own,
    ``orbit_of(x)``.  When ``items`` is sorted and holds every orbit it
    meets, each orbit is opened by its least member and the orbits come
    in order of least member.
    """
    seen = set()
    out = []
    for x in items:
        if x not in seen:
            members = tuple(sorted(orbit_of(x)))
            seen.update(members)
            out.append(members)
    return out


# ---------------------------------------------------------------------------
# permutation closures


def check_perm(p, degree: int) -> tuple:
    p = tuple(p)
    if len(p) != degree or sorted(p) != list(range(degree)):
        raise NotBijection(f"{p!r} is not a permutation of 0..{degree - 1}")
    return p


def perm_compose(p: tuple, q: tuple) -> tuple:
    """(p o q)(x) = p(q(x))."""
    return tuple([p[i] for i in q])


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


def build_group_from_permutations(generators, degree: int | None = None) -> FiniteGroup:
    """Close a set of permutations under composition and build the group.

    Raises OrderCapExceeded if the closure grows past ``TABLE_ORDER_CAP``.
    """
    generators = [tuple(g) for g in generators]
    if degree is None:
        if not generators:
            raise InputError("need a degree when no generators are given")
        degree = len(generators[0])
    gens = [check_perm(g, degree) for g in generators]
    identity = tuple(range(degree))
    elems = sorted(orbit(identity, gens, perm_compose, cap=TABLE_ORDER_CAP))
    index = {p: i for i, p in enumerate(elems)}
    # Row x lists the indices of x o q, so row(x o g)[q] = row(x)[row(g)[q]]
    # and the rows close from the generators' rows.  The identity is the
    # least permutation, elems[0], so row(x)[0] is the index of x: sorting
    # the rows puts each at its element's index.
    gen_rows = [tuple(index[perm_compose(g, q)] for q in elems) for g in gens]
    start = tuple(range(len(elems)))
    table = sorted(orbit(start, gen_rows, lambda row, g: tuple([row[i] for i in g])))
    labels = _LazyLabels(perm_cycle_label, elems)
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
        classes = orbits(
            range(n), lambda x: {table[table[g][x]][inverse[g]] for g in range(n)}
        )
        class_of = [0] * n
        for i, members in enumerate(classes):
            for y in members:
                class_of[y] = i
        group._class_of = tuple(class_of)
        group._classes = tuple(ConjugacyClass(m[0], m) for m in classes)
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
    out = range(group.order)
    for x in sorted(set(elements)):
        row = table[x]
        out = [g for g in out if table[g][x] == row[g]]
    return tuple(out)


def abelian_subgroups(group: FiniteGroup) -> list:
    """Every abelian subgroup as a frozenset, smallest first (equal sizes
    in order of their sorted elements).

    The cyclic subgroups come from one pass over the elements: an element
    g not yet marked opens <g>, and marks every power g^j with gcd(j, |g|)
    = 1, as each of those generates <g> too.  Every abelian subgroup is a
    cyclic one with commuting cyclic subgroups adjoined one at a time, so
    the rest close from these.  A subgroup A, with its centralizer Z,
    takes each <g> for g in Z outside A; A<g> is the union of the cosets
    A g^k for k below the least t with g^t in A, and its centralizer, Z
    cut to the elements that commute with g, passes to it.
    """
    n, table, e = group.order, group.table, group.identity
    cyclic = [None] * n  # cyclic[x] is <x>, shared by its generators
    found = []  # (subgroup, its centralizer), the cyclic ones first
    for g in range(n):
        if cyclic[g] is None:
            powers = [e]
            x = g
            while x != e:
                powers.append(x)
                x = table[x][g]
            members = frozenset(powers)
            for j, x in enumerate(powers):
                if math.gcd(j, len(powers)) == 1:
                    cyclic[x] = members
            row = table[g]
            found.append((members, [z for z in range(n) if table[z][g] == row[z]]))
    seen = {members for members, _cent in found}
    for sub, cent in found:  # the list grows as it is walked
        tried = set()
        for g in cent:
            if g in sub or cyclic[g] in tried:
                continue
            tried.add(cyclic[g])
            members, x = set(sub), g
            while x not in sub:
                row = table[x]
                members.update([row[a] for a in sub])
                x = table[x][g]
            members = frozenset(members)
            if members not in seen:
                seen.add(members)
                row = table[g]
                found.append((members, [z for z in cent if table[z][g] == row[z]]))
    return sorted(seen, key=lambda s: (len(s), sorted(s)))


# ---------------------------------------------------------------------------
# derived groups


def subgroup(group: FiniteGroup, elements) -> tuple[FiniteGroup, tuple]:
    """The subgroup on a closed subset of elements, reindexed to 0..k-1.

    Returns ``(H, carrier)`` where ``carrier[i]`` is the parent index of
    element ``i`` of ``H``; H is the group itself when the subset is every
    element.  Otherwise H takes its identity, inverses and labels from the
    parent and builds its |H|^2 table on first read (``_Subgroup``); the
    subset is checked for closure at once, by ``generators``, at a cost of
    about |H| products per generator.  Raises InputError if the subset is
    not closed.
    """
    carrier = tuple(sorted(set(elements)))
    if carrier == tuple(range(group.order)):
        return group, carrier
    generators(group, carrier)
    return _Subgroup(group, carrier), carrier


class _Subgroup(FiniteGroup):
    """The subgroup of a parent group on the closed, sorted ``carrier``.

    ``table`` and ``inverse`` are built from the parent's on first read:
    a sector reads only its subgroup's order, and the subgroups of
    ``verify sectors`` and the point recursion read the rest.  It keeps
    the parent's table and inverse tuples and its labels' lookup, never
    the parent itself, so a subgroup stored on its parent
    (``wreath.class_centralizers``) closes no reference cycle.
    """

    __slots__ = ("carrier", "_parent_table", "_parent_inverse")

    def __init__(self, parent: FiniteGroup, carrier: tuple):
        self.carrier = carrier
        self._parent_table = parent.table
        self._parent_inverse = parent.inverse
        self.order = len(carrier)
        self.identity = bisect.bisect_left(carrier, parent.identity)
        labels = parent._labels
        self._labels = None if labels is None else _LazyLabels(labels.__getitem__, carrier)
        self._classes = None
        self._class_of = None
        self._centralizers = None
        self._hash = None

    def __getattr__(self, name):
        # called only while a slot is unset: fill it from the parent's
        if name not in ("table", "inverse"):
            raise AttributeError(name)
        carrier = self.carrier
        pos = dict(zip(carrier, range(self.order)))
        if name == "inverse":
            inverse = self._parent_inverse
            value = tuple([pos[inverse[g]] for g in carrier])
        else:
            rows = map(self._parent_table.__getitem__, carrier)
            value = tuple(tuple([pos[row[b]] for b in carrier]) for row in rows)
        setattr(self, name, value)
        return value


def generators(group: FiniteGroup, elements) -> list:
    """Generators of the subgroup on the closed subset ``elements``: each
    element, in increasing order, that those before it do not generate.
    Raises InputError when their span leaves the subset."""
    members = set(elements)
    if not members:
        raise NoIdentity("no two-sided identity element")
    gens = []
    span = {group.identity}
    for x in sorted(members):
        if x not in span:
            gens.append(x)
            span = orbit(group.identity, gens, group.mul)
            if not span <= members:
                raise InputError(
                    f"subset not closed: {gens} generate {sorted(span - members)[0]}"
                    f" outside the subset"
                )
    return gens


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
