"""Wreath products G ~ S_n and their conjugacy combinatorics.

An element is a pair (g, s) with g an n-tuple of base-group elements and s a
permutation of 0..n-1 (one-line notation, s[i] = image of i).  Multiplication
twists the tuple part:

    (g, s) * (h, t) = (g . s(h), s o t),   s(h)[i] = h[s^-1(i)]

which makes (g, s) |-> (tuple action, s) a left action on n-fold products.

Conjugacy is governed by cycle data: each cycle of s carries a *cycle
product* (the base elements along the cycle, multiplied in reverse traversal
order), and the multiset of (conjugacy class of cycle product, cycle length)
pairs -- the *type* -- is a complete conjugacy invariant.  The centralizer
of an element of type {m_r(c)} has order

    prod_{(c), r} (r * |C_G(c)|)^m_r(c) * m_r(c)!

Only the conjugacy class of a cycle product is exposed; the traversal order
convention is internal and does not affect the class.
"""
from __future__ import annotations

import functools
import itertools
import math
from dataclasses import dataclass
from typing import NamedTuple

from . import groups
from .errors import InputError, InvalidType, OrderCapExceeded, SizeCapExceeded
from .groups import (
    ConjugacyClass,
    FiniteGroup,
    centralizer,
    class_index,
    conjugacy_classes,
    orbit,
    orbits,
    perm_compose,
    subgroup,
)

# Largest wreath group whose conjugacy classes are found element by element
# (by generator orbits, without a table) to cross-check the type formulas.
BRUTE_FORCE_ORDER_CAP = 20000

# Most types a ``wreath classes`` report may list, or the Hodge left side
# may sum; both check the predicted count (``capped_type_count``) before
# enumerating any type.
TYPE_CAP = 10**5


class WreathElement(NamedTuple):
    components: tuple  # base-group element per position
    perm: tuple        # one-line permutation of positions

    def __repr__(self):
        return f"WreathElement(g={self.components}, s={self.perm})"


class WreathProduct:
    """The wreath product structure (no multiplication table materialized)."""

    def __init__(self, base: FiniteGroup, size: int):
        if size < 0:
            raise InputError("wreath size must be >= 0")
        self.base = base
        self.size = size

    @functools.cached_property
    def order(self) -> int:
        """|G|^n * n!, computed on first use."""
        return self.base.order**self.size * math.factorial(self.size)

    def order_exceeds(self, cap: int) -> bool:
        """Whether the order is above ``cap``, from a running product of
        |G| * i over i = 1..n that stops once it passes the cap."""
        product = 1
        for i in range(1, self.size + 1):
            if product > cap:
                return True
            product *= self.base.order * i
        return product > cap

    def order_text(self) -> str:
        """The order in digits, or as |G|^n * n! once it runs past about
        300 digits (``str`` refuses ints of more than 4,300).  The exact
        order is computed only where an estimate of its bit length leaves
        the choice open."""
        bits = self.size * math.log2(self.base.order)
        bits += math.lgamma(self.size + 1) / math.log(2)
        if bits < 1010 and self.order.bit_length() <= 1000:
            return str(self.order)
        return f"{self.base.order}^{self.size} * {self.size}!"

    def check_table_order(self) -> None:
        """OrderCapExceeded when the order is past ``groups.TABLE_ORDER_CAP``."""
        cap = groups.TABLE_ORDER_CAP
        if self.order_exceeds(cap):
            raise OrderCapExceeded(
                f"wreath product order {self.order_text()} exceeds cap {cap}"
            )

    @functools.cached_property
    def identity(self) -> WreathElement:
        return WreathElement((self.base.identity,) * self.size, tuple(range(self.size)))

    def mul(self, a: WreathElement, b: WreathElement) -> WreathElement:
        # position j of b lands at s[j]
        t, g, h, s = self.base.table, a.components, b.components, a.perm
        comps = list(g)
        for j, i in enumerate(s):
            comps[i] = t[g[i]][h[j]]
        return WreathElement(tuple(comps), perm_compose(s, b.perm))

    def conjugator(self, a: WreathElement):
        """The map x -> a x a^-1, with a's inverse taken once: for a = (g, s)
        and x = (h, p) it puts g[s p j] h[p j] g[s j]^-1 at position s p j,
        and its permutation takes s j to s p j."""
        t, g, s = self.base.table, a.components, a.perm
        left = [t[g[i]] for i in s]  # left[k]: row of g at position s[k]
        right = [self.base.inverse[g[i]] for i in s]
        n = self.size

        def conj(x: WreathElement) -> WreathElement:
            h, p = x
            comps, perm = [0] * n, [0] * n
            for j, k in enumerate(p):
                i = s[k]
                comps[i] = t[left[k][h[k]]][right[j]]
                perm[s[j]] = i
            return WreathElement(tuple(comps), tuple(perm))

        return conj

    def elements(self):
        """All elements, tuple part outer, permutation part inner (sorted)."""
        perms = sorted(itertools.permutations(range(self.size)))
        for comps in itertools.product(range(self.base.order), repeat=self.size):
            for s in perms:
                yield WreathElement(comps, s)

    def generators(self) -> list[WreathElement]:
        """A small generating set: the base group's greedy generators
        (``groups.generators``) in slot 0, plus an adjacent transposition and
        an n-cycle of positions."""
        e = self.base.identity
        n = self.size
        idperm = tuple(range(n))
        gens = [
            WreathElement((x,) + (e,) * (n - 1), idperm)
            for x in groups.generators(self.base, self.base.elements())
        ]
        if n >= 2:
            swap = [1, 0] + list(range(2, n))
            gens.append(WreathElement((e,) * n, tuple(swap)))
        if n >= 3:
            cyc = list(range(1, n)) + [0]
            gens.append(WreathElement((e,) * n, tuple(cyc)))
        return gens

    def to_group(self) -> "ExplicitWreath":
        return ExplicitWreath(self)


class ExplicitWreath:
    """A wreath product realized as a FiniteGroup.

    Element (g, s) has index code(g) * n! + rank(s), where code(g) reads the
    tuple g as a base-|G| numeral with g[0] most significant and rank(s) is
    the position of s among the sorted permutations of 0..n-1.  This is the
    order of ``WreathProduct.elements()``, and ``elements[i]`` is element i.
    The table is built from these codes and an S_n composition table; it
    costs |W|^2 memory, and the constructor refuses to build anything past
    ``groups.TABLE_ORDER_CAP``.
    """

    def __init__(self, wreath: WreathProduct):
        wreath.check_table_order()
        self.elements = list(wreath.elements())
        base, n = wreath.base, wreath.size
        perms = sorted(itertools.permutations(range(n)))
        rank = {p: i for i, p in enumerate(perms)}
        compose = [[rank[perm_compose(s, t)] for t in perms] for s in perms]
        # (g, s) * (h, t) = (g . s(h), s o t): position j of h lands at
        # position s[j], so code(g . s(h)) sums one term per position of h.
        weights = [base.order ** (n - 1 - i) * len(perms) for i in range(n)]
        # Entries are taken from one list, so all rows share its int objects.
        ints = list(range(wreath.order))
        table = []
        for g in itertools.product(range(base.order), repeat=n):
            for s, srow in zip(perms, compose):
                codes = product_sums(
                    [[x * weights[s[j]] for x in base.table[g[s[j]]]] for j in range(n)]
                )
                table.append(tuple([ints[c + x] for c in codes for x in srow]))
        self.group = FiniteGroup(tuple(table), _skip_validation=True)


def product_sums(columns) -> list:
    """col_0[x_0] + col_1[x_1] + ... for every index tuple x, in
    ``itertools.product`` order (x_0 outermost)."""
    sums = [0]
    for col in columns:
        sums = [a + b for a in sums for b in col]
    return sums


# ---------------------------------------------------------------------------
# cycle data and types


@dataclass(frozen=True)
class CycleDatum:
    support: tuple          # cycle positions, starting at the least one
    length: int
    cycle_product: int      # base-group element (traversal-order dependent)
    product_class: int      # index into conjugacy_classes(base) (canonical)


@dataclass(frozen=True)
class TypeFunction:
    """The multiset {(class index, cycle length) -> multiplicity}."""

    entries: tuple  # sorted tuple of ((class_index, length), multiplicity)

    def total(self) -> int:
        return sum(r * m for ((_, r), m) in self.entries)


def cycle_decomposition(wreath: WreathProduct, w: WreathElement) -> list[CycleDatum]:
    """Cycles of the permutation part with their cycle products.

    The cycle product multiplies the tuple components in reverse traversal
    order starting from the least position; conjugating by the permutation
    start point only conjugates the product, so the exposed class is
    well defined.
    """
    base = wreath.base
    class_of = class_index(base)
    seen = [False] * wreath.size
    out = []
    for start in range(wreath.size):
        if seen[start]:
            continue
        cyc = [start]
        seen[start] = True
        j = w.perm[start]
        while j != start:
            cyc.append(j)
            seen[j] = True
            j = w.perm[j]
        prod = base.identity
        for p in cyc:  # reverse traversal order: g_{j_r} ... g_{j_1}
            prod = base.table[w.components[p]][prod]
        out.append(
            CycleDatum(tuple(cyc), len(cyc), prod, class_of[prod])
        )
    return out


def type_of(wreath: WreathProduct, w: WreathElement) -> TypeFunction:
    counts: dict = {}
    for datum in cycle_decomposition(wreath, w):
        key = (datum.product_class, datum.length)
        counts[key] = counts.get(key, 0) + 1
    return TypeFunction(tuple(sorted(counts.items())))


def type_trie(k: int, top: int) -> list:
    """The nonempty maps (index, cycle length r) -> multiplicity m with
    indices below k and weight (sum of r * m) at most ``top``, as one trie
    in pre-order: a list of nodes (depth, (index, r), m, weight).

    The root, the empty map, is not listed; a node of depth d extends its
    parent, the last node of depth d - 1 before it (the root for d = 0), by
    the entry ((index, r), m).  A child's key comes after its parent's last
    key in (index, r) order, siblings run through keys and then m in
    ascending order, and each node precedes its subtree.  So pre-order is
    the sorted order of the maps as entry tuples (((index, r), m), ...).
    """
    keys = [[(c, r) for r in range(top + 1)] for c in range(k)]
    out = []

    def rec(c0: int, r0: int, depth: int, weight: int) -> None:
        room = top - weight
        for c in range(c0, k):
            row = keys[c]
            for r in range(r0 if c == c0 else 1, room + 1):
                key = row[r]
                for m in range(1, room // r + 1):
                    w = weight + r * m
                    out.append((depth, key, m, w))
                    if w < top:
                        rec(c, r + 1, depth + 1, w)

    rec(0, 1, 0, 0)
    del rec  # rec refers to itself through its cell; unbinding frees the trie
    return out


def type_counts(k: int, order: int) -> list:
    """The coefficients 0..order of the product over r >= 1 of
    (1 - q^r)^(-k), for any int k; for k >= 0, entry n is the number of
    maps of weight n that ``type_trie(k, order)`` lists (one, the empty map,
    for n = 0)."""
    out = [1] + [0] * order
    for r in range(1, order + 1):
        for _ in range(abs(k)):
            if k > 0:
                for i in range(r, order + 1):
                    out[i] += out[i - r]
            else:  # multiply by 1 - q^r, top coefficient first
                for i in range(order, r - 1, -1):
                    out[i] -= out[i - r]
    return out


def capped_type_count(count, n: int, over_cap) -> int:
    """count(n), a type count that never falls as n grows, or
    SizeCapExceeded with the message over_cap(k, count(k)) once a count
    passes ``TYPE_CAP``.  It is taken on doubling prefixes k = 1, 2, 4, ...
    of n, so the first prefix over the cap proves the trip, long before a
    count at a large n; the message should say "at least" when k < n."""
    k = min(1, n)
    while True:
        value = count(k)
        if value > TYPE_CAP:
            raise SizeCapExceeded(over_cap(k, value))
        if k == n:
            return value
        k = min(2 * k, n)


def all_types(base: FiniteGroup, size: int) -> list[TypeFunction]:
    """Every type of total weight ``size``, in canonical (sorted) order: the
    weight-``size`` nodes of the type trie, whose pre-order is that order."""
    if size == 0:
        return [TypeFunction(())]
    prefixes = [()]  # the entry tuple of the open node at each depth
    out = []
    for depth, key, m, weight in type_trie(len(conjugacy_classes(base)), size):
        entries = prefixes[depth] + ((key, m),)
        del prefixes[depth + 1 :]
        prefixes.append(entries)
        if weight == size:
            out.append(TypeFunction(entries))
    return out


def centralizer_order_by_formula(base: FiniteGroup, size: int, t: TypeFunction) -> int:
    """prod (r * |C_G(c)|)^m * m!  over the entries of the type."""
    classes = conjugacy_classes(base)
    if t.total() != size:
        raise InvalidType(f"type has weight {t.total()}, expected {size}")
    out = 1
    for ((c, r), m) in t.entries:
        if not 0 <= c < len(classes):
            raise InvalidType(f"class index {c} out of range")
        out *= centralizer_factor(base.order // len(classes[c].members), r, m)
    return out


def centralizer_factor(cent: int, r: int, m: int) -> int:
    """(r * cent)^m * m!: the factor of a type's centralizer order that its
    entry ((c, r), m) contributes, for a class c whose centralizer in G has
    order ``cent``."""
    return (r * cent) ** m * math.factorial(m)


def classify_conjugacy_by_type(base: FiniteGroup, size: int) -> dict:
    """Map each realized TypeFunction to its brute-force conjugacy class.

    Walks the elements in order; each one not yet seen starts a class, the
    orbit of conjugation by the generators, so it is the least member.  No
    multiplication table is built.  Raises OrderCapExceeded past
    BRUTE_FORCE_ORDER_CAP before any work, and InputError if types fail to
    separate classes or vary within a class (they never do; the check
    guards the implementation).
    """
    wreath = WreathProduct(base, size)
    if wreath.order_exceeds(BRUTE_FORCE_ORDER_CAP):
        raise OrderCapExceeded(
            f"wreath order {wreath.order_text()} exceeds the brute-force"
            f" cross-check cap {BRUTE_FORCE_ORDER_CAP}"
        )
    conjs = [wreath.conjugator(g) for g in wreath.generators()]
    out = {}
    for members in orbits(
        wreath.elements(), lambda w: orbit(w, conjs, lambda x, c: c(x))
    ):
        types = {type_of(wreath, x) for x in members}
        if len(types) != 1:
            raise InputError("type is not constant on a conjugacy class")
        t = types.pop()
        if t in out:
            raise InputError("two conjugacy classes share a type")
        out[t] = ConjugacyClass(members[0], members)
    return out


# ---------------------------------------------------------------------------
# per-cycle centralizer building blocks


def centralizer_extension(base: FiniteGroup, c: int) -> FiniteGroup:
    """C_G(c) as a subgroup of G, from which the isotropy model E(c, r) of
    an r-cycle with product class (c) is read: E(c, r) < G ~ S_r, generated
    by the diagonal of C_G(c) and a_{r,c}, which commutes with it and meets
    it in <diag c>, is C_G(c) extended centrally with index r, and its
    series is a power of C_G(c)'s (``series._point_chi_coefficients``)."""
    return subgroup(base, centralizer(base, [c]))[0]


def class_centralizers(base: FiniteGroup) -> tuple:
    """C_G(c) (``centralizer_extension``) for the representative c of each
    class of G, in class order, built once per group and stored on it next
    to its classes: the point recursion reads each F^m_C_G(c) from them.
    Classes whose centralizers have one carrier share the first subgroup
    built on it, so its table is built and hashed once (the rotation
    classes of a dihedral group all have the rotation subgroup).  A
    central c's C_G(c) is G itself, stored as None, so that G holds no
    reference to itself (a subgroup holds none to G either)."""
    if base._centralizers is None:
        shared = {}  # carrier -> the first subgroup on it
        cents = []
        for cls in conjugacy_classes(base):
            cent = centralizer_extension(base, cls.representative)
            cents.append(None if cent is base else shared.setdefault(cent.carrier, cent))
        base._centralizers = tuple(cents)
    return tuple([base if cent is None else cent for cent in base._centralizers])
