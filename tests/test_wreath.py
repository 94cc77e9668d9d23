import gc
from math import factorial

import pytest

from orbichar.errors import InputError, InvalidType, OrderCapExceeded
from orbichar.groups import (
    TABLE_ORDER_CAP,
    FiniteGroup,
    centralizer,
    class_index,
    conjugacy_classes,
    cyclic_group,
    dihedral_group,
    subgroup,
    symmetric_group,
    trivial_group,
)
from orbichar.library import builtin_group
from orbichar.series import point_wreath_chi_m
from orbichar.wreath import (
    TypeFunction,
    WreathElement,
    WreathProduct,
    all_types,
    centralizer_extension,
    centralizer_order_by_formula,
    classify_conjugacy_by_type,
    cycle_decomposition,
    type_counts,
    type_of,
    type_trie,
)
from group_oracle import extension_table
from helpers import element_order, is_abelian, wreath_conj, wreath_inv
from series_oracle import type_entries


# ---------------------------------------------------------------------------
# test oracles: explicit wreath elements, multiplied with WreathProduct.mul


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


def cycle_standard_element(wreath: WreathProduct, c: int, r: int) -> WreathElement:
    """The element a_{r,c} = ((c, e, ..., e), r-cycle) of G ~ S_r."""
    if wreath.size != r:
        raise InputError("wreath size must equal the cycle length")
    e = wreath.base.identity
    comps = (c,) + (e,) * (r - 1)
    perm = tuple(list(range(1, r)) + [0])
    return WreathElement(comps, perm)


def test_wreath_order():
    w = WreathProduct(cyclic_group(2), 3)
    assert w.order == 2**3 * 6
    assert WreathProduct(symmetric_group(3), 2).order == 72
    assert WreathProduct(trivial_group(), 4).order == 24


@pytest.mark.parametrize(
    "base", [trivial_group(), cyclic_group(2), symmetric_group(3)], ids=["1", "Z2", "S3"]
)
def test_wreath_order_cap_and_text_without_exact_order(base):
    # around each cap, and around the 1000-bit order past which the order
    # prints as |G|^n * n!, the estimates agree with the exact order
    for n in range(0, 460):
        exact = base.order**n * factorial(n)
        w = WreathProduct(base, n)
        for cap in (0, 1, 2000, 20000, 2**1000):
            assert w.order_exceeds(cap) == (exact > cap), (n, cap)
        text = str(exact) if exact.bit_length() <= 1000 else f"{base.order}^{n} * {n}!"
        assert w.order_text() == text, n


def test_group_law_explicit():
    w = WreathProduct(cyclic_group(3), 2)
    ew = w.to_group()
    g = ew.group
    assert g.order == 18
    # spot-check associativity through the element dictionary round trip
    for a in range(0, g.order, 5):
        for b in range(0, g.order, 7):
            ab = g.mul(a, b)
            assert ew.elements[ab] == w.mul(ew.elements[a], ew.elements[b])


# (components, perm) of each generator of G ~ S_3, recorded when the base
# generators were chosen by a greedy scan of their own
_PINNED_GENERATORS = {
    "trivial": [((0, 0, 0), (1, 0, 2)), ((0, 0, 0), (1, 2, 0))],
    "Z2": [((1, 0, 0), (0, 1, 2)), ((0, 0, 0), (1, 0, 2)), ((0, 0, 0), (1, 2, 0))],
    "S3": [
        ((1, 0, 0), (0, 1, 2)),
        ((2, 0, 0), (0, 1, 2)),
        ((0, 0, 0), (1, 0, 2)),
        ((0, 0, 0), (1, 2, 0)),
    ],
    "D4": [
        ((1, 0, 0), (0, 1, 2)),
        ((2, 0, 0), (0, 1, 2)),
        ((0, 0, 0), (1, 0, 2)),
        ((0, 0, 0), (1, 2, 0)),
    ],
}


@pytest.mark.parametrize("spec", sorted(_PINNED_GENERATORS))
def test_generators_pinned(spec):
    gens = WreathProduct(builtin_group(spec), 3).generators()
    assert [(g.components, g.perm) for g in gens] == _PINNED_GENERATORS[spec]


@pytest.mark.parametrize(
    "base, n",
    [(cyclic_group(2), 4), (cyclic_group(3), 3), (symmetric_group(3), 2),
     (dihedral_group(4), 2)],
    ids=["Z2-4", "Z3-3", "S3-2", "D4-2"],
)
def test_explicit_table_matches_mul(base, n):
    # the integer-coded table against WreathProduct.mul, for every pair
    w = WreathProduct(base, n)
    ew = w.to_group()
    els = ew.elements
    assert len(els) == w.order and els == list(w.elements())
    index = {x: i for i, x in enumerate(els)}
    for a, row in enumerate(ew.group.table):
        for b, ab in enumerate(row):
            assert ab == index[w.mul(els[a], els[b])]


def test_cycle_products_traverse_in_order():
    base = symmetric_group(3)
    w = WreathProduct(base, 3)
    # one 3-cycle; components multiply along the cycle in traversal order
    el = WreathElement((1, 2, 4), (1, 2, 0))
    data = cycle_decomposition(w, el)
    assert len(data) == 1 and data[0].length == 3
    # the cycle-product class must be conjugation invariant
    t = type_of(w, el)
    for g in [WreathElement((3, 0, 5), (0, 2, 1)), WreathElement((2, 2, 2), (1, 0, 2))]:
        assert type_of(w, wreath_conj(w, g, el)) == t


def test_type_counts_z2():
    # weight-2 types over two classes: (e,e),(e,g),(g,g) split plus 2-cycles
    # with product in e or g
    assert len(all_types(cyclic_group(2), 2)) == 5
    assert len(all_types(cyclic_group(2), 3)) == 10  # hand count
    assert len(all_types(trivial_group(), 4)) == 5  # partitions of 4
    assert len(all_types(trivial_group(), 6)) == 11


def test_type_trie_matches_flat_enumeration():
    for k in range(5):
        for top in range(9):
            nodes = type_trie(k, top)
            assert len(nodes) == sum(type_counts(k, top)[1:]), (k, top)
            prefixes = [()]
            by_weight = {n: [] for n in range(1, top + 1)}
            for depth, key, m, weight in nodes:
                parent = prefixes[depth]
                # a child's key comes after its parent's last key
                assert not parent or parent[-1][0] < key, (k, top, parent, key)
                entries = parent + ((key, m),)
                assert weight == sum(r * mult for (_c, r), mult in entries)
                del prefixes[depth + 1 :]
                prefixes.append(entries)
                by_weight[weight].append(entries)
            for n in range(1, top + 1):
                assert by_weight[n] == sorted(type_entries(k, n)), (k, top, n)


def test_all_types_reads_the_trie():
    for base in (trivial_group(), cyclic_group(2), cyclic_group(3), dihedral_group(4)):
        k = len(conjugacy_classes(base))
        assert all_types(base, 0) == [TypeFunction(())]
        for n in range(1, 8):
            types = all_types(base, n)
            assert isinstance(types, list)
            assert [t.entries for t in types] == sorted(type_entries(k, n)), n


@pytest.mark.parametrize("base, n", [("Z3", 3), ("S3", 3), ("Z2", 4)])
def test_wreath_inverse(base, n):
    # tuple parts and permutations that are not involutions included
    wreath = WreathProduct(builtin_group(base), n)
    for w in wreath.elements():
        assert wreath.mul(w, wreath_inv(wreath, w)) == wreath.identity
        assert wreath.mul(wreath_inv(wreath, w), w) == wreath.identity


@pytest.mark.parametrize("base, n", [("Z3", 3), ("S3", 2)])
def test_conjugator_and_commute_match_products(base, n):
    # the fused conjugation and the element-free commutation test against
    # products and the inverse, on every pair of elements
    wreath = WreathProduct(builtin_group(base), n)
    elements = list(wreath.elements())
    for a in elements:
        conj = wreath.conjugator(a)
        for x in elements:
            assert conj(x) == wreath_conj(wreath, a, x)
            assert wreath.commute(a, x) == (wreath.mul(a, x) == wreath.mul(x, a))


def test_wreath_element_sorts_and_compares_by_fields():
    a = WreathElement((1, 0), (1, 0))
    assert a == WreathElement(components=(1, 0), perm=(1, 0))
    assert (a.components, a.perm) == ((1, 0), (1, 0))
    assert hash(a) == hash(WreathElement((1, 0), (1, 0)))
    assert repr(a) == "WreathElement(g=(1, 0), s=(1, 0))"
    # components first, then the permutation
    b, c = WreathElement((0, 1), (1, 0)), WreathElement((1, 0), (0, 1))
    assert sorted([a, b, c]) == [b, c, a]
    assert b < c < a and a > c
    assert list(WreathProduct(cyclic_group(2), 2).elements()) == sorted(
        WreathElement(g, p) for g in [(0, 0), (0, 1), (1, 0), (1, 1)]
        for p in [(0, 1), (1, 0)]
    )
    with pytest.raises(AttributeError):
        a.perm = (0, 1)


def test_types_are_complete_conjugacy_invariant():
    for base, n in [
        (cyclic_group(2), 2),
        (cyclic_group(2), 3),
        (cyclic_group(3), 2),
        (symmetric_group(3), 2),
    ]:
        by_type = classify_conjugacy_by_type(base, n)
        assert len(by_type) == len(all_types(base, n))
        assert set(by_type) == set(all_types(base, n))


def test_class_count_scan_matches_types():
    # the orbit scan finds exactly one class per type
    for base, n in [(cyclic_group(2), 4), (symmetric_group(3), 2)]:
        assert len(classify_conjugacy_by_type(base, n)) == len(all_types(base, n))


@pytest.mark.parametrize(
    "base, n",
    [(cyclic_group(2), 3), (cyclic_group(3), 2), (symmetric_group(3), 2)],
    ids=["Z2-3", "Z3-2", "S3-2"],
)
def test_orbit_classes_match_table_classes(base, n):
    # generator orbits against raw conjugation scans of the explicit table
    ew = WreathProduct(base, n).to_group()
    from_table = sorted(
        tuple(ew.elements[x] for x in cls.members)
        for cls in conjugacy_classes(ew.group)
    )
    by_type = classify_conjugacy_by_type(base, n)
    assert sorted(cls.members for cls in by_type.values()) == from_table
    # the walk meets each class first at its least member
    for cls in by_type.values():
        assert cls.representative == cls.members[0]

def test_centralizer_formula_matches_bruteforce():
    for base, n in [(cyclic_group(2), 3), (symmetric_group(3), 2)]:
        w = WreathProduct(base, n)
        by_type = classify_conjugacy_by_type(base, n)
        for t, cls in by_type.items():
            formula = centralizer_order_by_formula(base, n, t)
            assert formula == w.order // len(cls.members), t


def test_centralizer_formula_partition_case():
    # over the trivial group the formula degenerates to prod r^m * m!
    base = trivial_group()
    for t in all_types(base, 5):
        expected = 1
        for (_, r), m in t.entries:
            expected *= r**m * factorial(m)
        assert centralizer_order_by_formula(base, 5, t) == expected


def test_type_weight_validation():
    base = cyclic_group(2)
    t = all_types(base, 2)[0]
    with pytest.raises(InvalidType):
        centralizer_order_by_formula(base, 3, t)


def test_standard_form_conjugates_back():
    base = symmetric_group(3)
    w = WreathProduct(base, 3)
    for el in [
        WreathElement((5, 1, 0), (2, 0, 1)),
        WreathElement((3, 3, 3), (0, 2, 1)),
        WreathElement((1, 2, 3), (0, 1, 2)),
    ]:
        d, std = standard_form(w, el)
        assert wreath_conj(w, d, std) == el
        # the standard element carries each cycle product at the least
        # position of its cycle and identity elsewhere
        assert type_of(w, std) == type_of(w, el)


def test_order_cap():
    with pytest.raises(OrderCapExceeded):
        WreathProduct(symmetric_group(4), 4).to_group()
    big = WreathProduct(cyclic_group(4), 4)
    assert big.order == 6144 > TABLE_ORDER_CAP
    with pytest.raises(OrderCapExceeded):
        big.to_group()


def test_cycle_standard_element():
    base = symmetric_group(3)
    w = WreathProduct(base, 3)
    a = cycle_standard_element(w, 3, 3)
    assert a.components == (3, 0, 0)
    # a^r is the diagonal of the cycle product
    cube = w.mul(a, w.mul(a, a))
    assert cube.perm == (0, 1, 2)
    assert cube.components == (3, 3, 3)


def test_centralizer_extension_orders():
    # E(c, r) stands as the pair (C_G(c), r); its table has order r * |C_G(c)|
    base = symmetric_group(3)
    classes = conjugacy_classes(base)
    for ci, cls in enumerate(classes):
        cent = len(
            [x for x in base.elements() if base.mul(x, cls.representative) == base.mul(cls.representative, x)]
        )
        expected = subgroup(base, centralizer(base, [cls.representative]))[0]
        for r in (1, 2, 3):
            assert centralizer_extension(base, cls.representative, r) == (expected, r)
            ext = extension_table(base, cls.representative, r)
            assert ext.order == r * cent


@pytest.mark.parametrize(
    "base",
    [
        trivial_group(),
        cyclic_group(4),
        symmetric_group(3),
        symmetric_group(4),
        dihedral_group(4),
        dihedral_group(6),
        WreathProduct(cyclic_group(3), 2).to_group().group,
    ],
    ids=["trivial", "Z4", "S3", "S4", "D4", "D6", "Z3~S2"],
)
def test_centralizer_extension_class_count(base):
    # a_{r,c} is central, so each class of E(c, r) is a class of
    # K = C_G(c) times a power of a_{r,c}: k(E) = r * k(K), and the
    # centralizer of (k, i) is C_K(k)<a>, of order r * |C_K(k)| -- what
    # the point recursion reads off the pair (K, r) instead of building E
    for cls in conjugacy_classes(base):
        cent, _carrier = subgroup(base, centralizer(base, [cls.representative]))
        for r in range(1, 5):
            ext = extension_table(base, cls.representative, r)
            assert len(conjugacy_classes(ext)) == r * len(conjugacy_classes(cent))
            for x in ext.elements():
                k = x // r  # element (k, i) has index k * r + i
                assert len(centralizer(ext, [x])) == r * len(centralizer(cent, [k]))


def test_centralizer_extension_is_abelian_over_cyclic():
    base = cyclic_group(4)
    ext = extension_table(base, 1, 3)
    assert ext.order == 12
    assert is_abelian(ext)


def _wreath_product_extension(base, c, r):
    """Test oracle: <diag C_G(c), a_{r,c}> built inside G ~ S_r by
    multiplying wreath elements, independently of the central-extension
    construction used by ``extension_table``."""
    wreath = WreathProduct(base, r)
    a = cycle_standard_element(wreath, c, r)
    cent = centralizer(base, [c])
    elems = []
    for h in cent:
        x = WreathElement((h,) * r, tuple(range(r)))
        for _ in range(r):
            elems.append(x)
            x = wreath.mul(x, a)
    elems = sorted(set(elems), key=lambda w: (w.components, w.perm))
    assert len(elems) == r * len(cent)
    index = {w: i for i, w in enumerate(elems)}
    table = [[index[wreath.mul(x, y)] for y in elems] for x in elems]
    return FiniteGroup(table, _skip_validation=True)


def _element_orders(group):
    return sorted(element_order(group, x) for x in group.elements())


@pytest.mark.parametrize(
    "base",
    [symmetric_group(3), dihedral_group(4), cyclic_group(3), symmetric_group(4)],
    ids=["S3", "D4", "Z3", "S4"],
)
def test_centralizer_extension_matches_wreath_subgroup(base):
    for cls in conjugacy_classes(base):
        for r in range(1, 5):
            ext = extension_table(base, cls.representative, r)
            oracle = _wreath_product_extension(base, cls.representative, r)
            assert ext.order == oracle.order
            assert _element_orders(ext) == _element_orders(oracle)
            assert is_abelian(ext) == is_abelian(oracle)
            for n in range(1, 4):
                for m in (1, 2):
                    assert point_wreath_chi_m(ext, n, m) == point_wreath_chi_m(
                        oracle, n, m
                    )


def test_class_data_is_stored_once():
    for g in (symmetric_group(4), dihedral_group(4), cyclic_group(5)):
        classes = conjugacy_classes(g)
        assert isinstance(classes, tuple)
        assert conjugacy_classes(g) is classes
        assert class_index(g) is class_index(g)
        # a fresh computation by raw orbit scans agrees with the stored data
        orbits = {
            tuple(sorted({g.conj(h, x) for h in g.elements()}))
            for x in g.elements()
        }
        assert sorted(orbits) == [c.members for c in classes]
        for i, cls in enumerate(classes):
            assert all(class_index(g)[x] == i for x in cls.members)
        fresh = FiniteGroup(g.table, _skip_validation=True)
        assert conjugacy_classes(fresh) == classes


def test_dropped_type_trie_leaves_no_reference_cycle():
    gc.collect()
    gc.disable()
    try:
        type_trie(3, 8)
        assert gc.collect() == 0
    finally:
        gc.enable()
