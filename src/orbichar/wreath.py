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

import itertools
import math
from dataclasses import dataclass

from . import groups
from .errors import InputError, InvalidType, OrderCapExceeded
from .groups import (
    ConjugacyClass,
    FiniteGroup,
    central_cyclic_extension,
    centralizer,
    class_index,
    conjugacy_classes,
    orbit,
    orbits,
    perm_compose,
    perm_inverse,
    subgroup,
)

# Largest wreath group whose conjugacy classes are found element by element
# (by generator orbits, without a table) to cross-check the type formulas.
BRUTE_FORCE_ORDER_CAP = 20000

# Most rows (types) a ``wreath classes`` report may list; the command
# checks the predicted count before enumerating any type.
TYPE_CAP = 10**5


@dataclass(frozen=True, order=True)
class WreathElement:
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
        self.order = base.order**size * math.factorial(size)

    def order_text(self) -> str:
        """The order in digits, or as |G|^n * n! once it runs past about
        300 digits (``str`` refuses ints of more than 4,300)."""
        if self.order.bit_length() <= 1000:
            return str(self.order)
        return f"{self.base.order}^{self.size} * {self.size}!"

    def mul(self, a: WreathElement, b: WreathElement) -> WreathElement:
        t = self.base.table
        sinv = perm_inverse(a.perm)
        comps = tuple(
            t[a.components[i]][b.components[sinv[i]]] for i in range(self.size)
        )
        return WreathElement(comps, perm_compose(a.perm, b.perm))

    def inv(self, a: WreathElement) -> WreathElement:
        binv = self.base.inverse
        sinv = perm_inverse(a.perm)
        comps = tuple(binv[a.components[sinv[i]]] for i in range(self.size))
        return WreathElement(comps, sinv)

    def conj(self, g: WreathElement, x: WreathElement) -> WreathElement:
        return self.mul(self.mul(g, x), self.inv(g))

    def elements(self):
        """All elements, tuple part outer, permutation part inner (sorted)."""
        perms = sorted(itertools.permutations(range(self.size)))
        for comps in itertools.product(range(self.base.order), repeat=self.size):
            for s in perms:
                yield WreathElement(comps, s)

    def generators(self) -> list[WreathElement]:
        """A small generating set: base-group generators in slot 0, plus an
        adjacent transposition and an n-cycle of positions."""
        e = self.base.identity
        n = self.size
        gens = _greedy_base_generators(self.base, n)
        if n >= 2:
            swap = [1, 0] + list(range(2, n))
            gens.append(WreathElement((e,) * n, tuple(swap)))
        if n >= 3:
            cyc = list(range(1, n)) + [0]
            gens.append(WreathElement((e,) * n, tuple(cyc)))
        return gens

    def to_group(self) -> "ExplicitWreath":
        return ExplicitWreath(self)


def _greedy_base_generators(base: FiniteGroup, n: int) -> list[WreathElement]:
    """Each element not in the subgroup generated by the earlier choices,
    in index order, placed in slot 0."""
    e = base.identity
    closed = {e}
    chosen = []
    for x in base.elements():
        if x not in closed:
            chosen.append(x)
            closed = orbit(e, chosen, base.mul)
    idperm = tuple(range(n))
    out = []
    for x in chosen:
        comps = (x,) + (e,) * (n - 1)
        out.append(WreathElement(tuple(comps), idperm))
    return out


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
        cap = groups.TABLE_ORDER_CAP
        if wreath.order > cap:
            raise OrderCapExceeded(
                f"wreath product order {wreath.order_text()} exceeds cap {cap}"
            )
        self.wreath = wreath
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

    def to_json(self, base: FiniteGroup) -> list:
        classes = conjugacy_classes(base)
        return [
            {
                "class": base.label(classes[c].representative),
                "r": r,
                "m": m,
            }
            for ((c, r), m) in self.entries
        ]


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


def type_entries(k: int, size: int) -> list:
    """Every map (index, cycle length r) -> multiplicity m with indices
    below k and sum of r * m equal to ``size``, as sorted entry tuples
    (((index, r), m), ...) without zero multiplicities."""
    keys = [(c, r) for c in range(k) for r in range(1, size + 1)]

    out = []

    def rec(i: int, remaining: int, acc: list) -> None:
        if remaining == 0:
            out.append(tuple(acc))
            return
        if i == len(keys):
            return
        (c, r) = keys[i]
        rec(i + 1, remaining, acc)
        for m in range(1, remaining // r + 1):
            rec(i + 1, remaining - r * m, acc + [((c, r), m)])

    rec(0, size, [])
    return out


def all_types(base: FiniteGroup, size: int) -> list[TypeFunction]:
    """Every type of total weight ``size``, in canonical order."""
    entries = type_entries(len(conjugacy_classes(base)), size)
    return [TypeFunction(e) for e in sorted(entries)]


def centralizer_order_by_formula(base: FiniteGroup, size: int, t: TypeFunction) -> int:
    """prod (r * |C_G(c)|)^m * m!  over the entries of the type."""
    classes = conjugacy_classes(base)
    if t.total() != size:
        raise InvalidType(f"type has weight {t.total()}, expected {size}")
    out = 1
    for ((c, r), m) in t.entries:
        if not 0 <= c < len(classes):
            raise InvalidType(f"class index {c} out of range")
        cent = base.order // len(classes[c].members)
        out *= (r * cent) ** m * math.factorial(m)
    return out


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
    if wreath.order > BRUTE_FORCE_ORDER_CAP:
        raise OrderCapExceeded(
            f"wreath order {wreath.order_text()} exceeds the brute-force"
            f" cross-check cap {BRUTE_FORCE_ORDER_CAP}"
        )
    gens = wreath.generators()
    out = {}
    for members in orbits(
        wreath.elements(), lambda w: orbit(w, gens, lambda x, g: wreath.conj(g, x))
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


def centralizer_extension(base: FiniteGroup, c: int, r: int) -> FiniteGroup:
    """The subgroup of G ~ S_r generated by the diagonal centralizer of c
    and a_{r,c}: order r * |C_G(c)|, with a_{r,c}^r the diagonal of c.

    This is the isotropy model attached to an r-cycle with product class
    (c); its wreath powers drive the centralizer decomposition.  a_{r,c}
    commutes with the diagonal of C_G(c) and meets it in <diag c>, so the
    group is the central extension of C_G(c) by a with a^r = c.
    """
    k, carrier = subgroup(base, centralizer(base, [c]))
    ext, _pairs = central_cyclic_extension(k, carrier.index(c), r)
    return ext
