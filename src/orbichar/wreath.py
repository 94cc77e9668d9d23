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

from .errors import InputError, InvalidType, OrderCapExceeded
from .groups import (
    FiniteGroup,
    central_cyclic_extension,
    centralizer,
    class_index,
    conjugacy_classes,
    perm_compose,
    perm_inverse,
    subgroup,
)

DEFAULT_WREATH_ORDER_CAP = 10**6


@dataclass(frozen=True)
class WreathElement:
    components: tuple  # base-group element per position
    perm: tuple        # one-line permutation of positions

    def to_json(self, base: FiniteGroup | None = None) -> dict:
        g = list(self.components)
        if base is not None and base.labels is not None:
            g = [base.labels[x] for x in g]
        return {"g": g, "s": [p + 1 for p in self.perm]}

    def __repr__(self):
        return f"WreathElement(g={self.components}, s={self.perm})"


def wreath_element_from_json(data, base: FiniteGroup, size: int) -> WreathElement:
    if set(data) - {"g", "s"}:
        raise InputError("wreath element spec has unknown fields")
    g = data["g"]
    if len(g) != size:
        raise InputError(f"expected {size} tuple components, got {len(g)}")
    comps = []
    for x in g:
        if isinstance(x, str):
            if base.labels is None or x not in base.labels:
                raise InputError(f"unknown base element label {x!r}")
            comps.append(base.labels.index(x))
        else:
            if not 0 <= int(x) < base.order:
                raise InputError(f"base element index {x} out of range")
            comps.append(int(x))
    s = tuple(int(v) - 1 for v in data["s"])
    if sorted(s) != list(range(size)):
        raise InputError(f"{data['s']!r} is not a permutation of 1..{size}")
    return WreathElement(tuple(comps), s)


class WreathProduct:
    """The wreath product structure (no multiplication table materialized)."""

    def __init__(self, base: FiniteGroup, size: int):
        if size < 0:
            raise InputError("wreath size must be >= 0")
        self.base = base
        self.size = size
        self.order = base.order**size * math.factorial(size)

    def identity(self) -> WreathElement:
        return WreathElement(
            (self.base.identity,) * self.size, tuple(range(self.size))
        )

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

    def to_group(self, order_cap: int = DEFAULT_WREATH_ORDER_CAP) -> "ExplicitWreath":
        return ExplicitWreath(self, order_cap=order_cap)


def _greedy_base_generators(base: FiniteGroup, n: int) -> list[WreathElement]:
    e = base.identity
    closed = {e}
    chosen = []
    for x in base.elements():
        if x in closed:
            continue
        chosen.append(x)
        frontier = list(closed)
        closed.add(x)
        queue = [x]
        while queue:
            y = queue.pop()
            for z in list(closed):
                for w in (base.table[y][z], base.table[z][y]):
                    if w not in closed:
                        closed.add(w)
                        queue.append(w)
    idperm = tuple(range(n))
    out = []
    for x in chosen:
        comps = (x,) + (e,) * (n - 1)
        out.append(WreathElement(tuple(comps), idperm))
    return out


class ExplicitWreath:
    """A wreath product realized as a FiniteGroup with element dictionaries.

    The table costs |W|^2 memory; the constructor refuses to build anything
    past ``order_cap``.
    """

    def __init__(self, wreath: WreathProduct, order_cap: int = DEFAULT_WREATH_ORDER_CAP):
        if wreath.order > order_cap:
            raise OrderCapExceeded(
                f"wreath product order {wreath.order} exceeds cap {order_cap}"
            )
        self.wreath = wreath
        self.elements = list(wreath.elements())
        self.index = {w: i for i, w in enumerate(self.elements)}
        table = []
        for a in self.elements:
            row = []
            for b in self.elements:
                row.append(self.index[wreath.mul(a, b)])
            table.append(tuple(row))
        self.group = FiniteGroup(tuple(table), _skip_validation=True)


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

    def multiplicity(self, class_index: int, length: int) -> int:
        for (key, m) in self.entries:
            if key == (class_index, length):
                return m
        return 0

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


def type_from_json(data, base: FiniteGroup, size: int) -> TypeFunction:
    classes = conjugacy_classes(base)
    by_label = {}
    for i, cls in enumerate(classes):
        by_label[base.label(cls.representative)] = i
        by_label[str(cls.representative)] = i
    counts: dict = {}
    for item in data:
        label = str(item["class"])
        if label not in by_label:
            raise InvalidType(f"unknown conjugacy class {label!r}")
        r, m = int(item["r"]), int(item["m"])
        if r < 1 or m < 0:
            raise InvalidType("cycle length must be >= 1 and multiplicity >= 0")
        key = (by_label[label], r)
        counts[key] = counts.get(key, 0) + m
    t = TypeFunction(tuple(sorted((k, m) for k, m in counts.items() if m)))
    if t.total() != size:
        raise InvalidType(f"type has weight {t.total()}, expected {size}")
    return t


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


def standard_form(wreath: WreathProduct, w: WreathElement):
    """A conjugator d with d * standard * d^-1 = w.

    ``standard`` carries each cycle product at the least position of its
    cycle and the identity elsewhere, with the same permutation part.
    Returns (d, standard).
    """
    base = wreath.base
    e = base.identity
    d_comps = [e] * wreath.size
    std_comps = [e] * wreath.size
    for datum in cycle_decomposition(wreath, w):
        acc = e
        for p in datum.support:
            # d at cycle position j_k is the partial product g_{j_k}...g_{j_1}
            acc = base.table[w.components[p]][acc]
            d_comps[p] = acc
        std_comps[datum.support[0]] = datum.cycle_product
    idperm = tuple(range(wreath.size))
    d = WreathElement(tuple(d_comps), idperm)
    standard = WreathElement(tuple(std_comps), w.perm)
    return d, standard


def all_types(base: FiniteGroup, size: int) -> list[TypeFunction]:
    """Every type of total weight ``size``, in canonical order."""
    k = len(conjugacy_classes(base))
    keys = [(c, r) for c in range(k) for r in range(1, size + 1)]

    out = []

    def rec(i: int, remaining: int, acc: list) -> None:
        if remaining == 0:
            out.append(TypeFunction(tuple(acc)))
            return
        if i == len(keys):
            return
        (c, r) = keys[i]
        rec(i + 1, remaining, acc)
        for m in range(1, remaining // r + 1):
            rec(i + 1, remaining - r * m, acc + [((c, r), m)])

    rec(0, size, [])
    return sorted(out, key=lambda t: t.entries)


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


def classify_conjugacy_by_type(
    base: FiniteGroup, size: int, order_cap: int = DEFAULT_WREATH_ORDER_CAP
) -> dict:
    """Map each realized TypeFunction to the brute-force conjugacy class.

    Builds the explicit wreath group, computes its conjugacy classes by raw
    orbit scans, and indexes them by the type of any member.  Raises
    InputError if types fail to separate classes or vary within a class
    (they never do; the check guards the implementation).
    """
    ew = WreathProduct(base, size).to_group(order_cap=order_cap)
    classes = conjugacy_classes(ew.group)
    out = {}
    for cls in classes:
        types = {type_of(ew.wreath, ew.elements[x]) for x in cls.members}
        if len(types) != 1:
            raise InputError("type is not constant on a conjugacy class")
        t = types.pop()
        if t in out:
            raise InputError("two conjugacy classes share a type")
        out[t] = cls
    return out


def conjugacy_class_count(
    base: FiniteGroup, size: int, element_cap: int = 10**6
) -> int:
    """Number of conjugacy classes, by orbit closure under conjugation by a
    generating set.  Needs only the element list (no table), so it reaches
    wreath products far past the explicit-table cap."""
    wreath = WreathProduct(base, size)
    if wreath.order > element_cap:
        raise OrderCapExceeded(
            f"wreath order {wreath.order} exceeds element cap {element_cap}"
        )
    gens = wreath.generators()
    gens += [wreath.inv(g) for g in gens]
    seen = set()
    count = 0
    for w in wreath.elements():
        if w in seen:
            continue
        count += 1
        orbit = {w}
        queue = [w]
        while queue:
            x = queue.pop()
            for g in gens:
                y = wreath.conj(g, x)
                if y not in orbit:
                    orbit.add(y)
                    queue.append(y)
        seen.update(orbit)
    return count


# ---------------------------------------------------------------------------
# per-cycle centralizer building blocks


def cycle_standard_element(wreath: WreathProduct, c: int, r: int) -> WreathElement:
    """The element a_{r,c} = ((c, e, ..., e), r-cycle) of G ~ S_r."""
    if wreath.size != r:
        raise InputError("wreath size must equal the cycle length")
    e = wreath.base.identity
    comps = (c,) + (e,) * (r - 1)
    perm = tuple(list(range(1, r)) + [0])
    return WreathElement(comps, perm)


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
