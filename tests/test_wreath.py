from math import factorial

import pytest

from orbichar.errors import InputError, InvalidType, OrderCapExceeded
from orbichar.groups import (
    FiniteGroup,
    centralizer,
    class_index,
    conjugacy_classes,
    cyclic_group,
    dihedral_group,
    symmetric_group,
    trivial_group,
)
from orbichar.series import point_wreath_chi_m
from orbichar.wreath import (
    TypeFunction,
    WreathElement,
    WreathProduct,
    all_types,
    centralizer_extension,
    centralizer_order_by_formula,
    classify_conjugacy_by_type,
    conjugacy_class_count,
    cycle_decomposition,
    cycle_standard_element,
    standard_form,
    type_of,
    type_from_json,
    wreath_element_from_json,
)


def test_wreath_order():
    w = WreathProduct(cyclic_group(2), 3)
    assert w.order == 2**3 * 6
    assert WreathProduct(symmetric_group(3), 2).order == 72
    assert WreathProduct(trivial_group(), 4).order == 24


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


def test_wreath_element_json_round_trip():
    base = symmetric_group(3)
    w = WreathProduct(base, 2)
    el = wreath_element_from_json({"g": [1, 0], "s": [2, 1]}, base, 2)
    assert el.components == (1, 0) and el.perm == (1, 0)
    assert wreath_element_from_json(el.to_json(), base, 2) == el
    assert wreath_element_from_json(el.to_json(base), base, 2) == el
    with pytest.raises(InputError):
        wreath_element_from_json({"g": [0], "s": [1, 2]}, base, 2)


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
        assert type_of(w, w.mul(w.mul(g, el), w.inv(g))) == t


def test_type_counts_z2():
    # weight-2 types over two classes: (e,e),(e,g),(g,g) split plus 2-cycles
    # with product in e or g
    assert len(all_types(cyclic_group(2), 2)) == 5
    assert len(all_types(cyclic_group(2), 3)) == 10  # hand count
    assert len(all_types(trivial_group(), 4)) == 5  # partitions of 4
    assert len(all_types(trivial_group(), 6)) == 11


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
    for base, n in [(cyclic_group(2), 4), (symmetric_group(3), 2)]:
        assert conjugacy_class_count(base, n) == len(all_types(base, n))


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
        assert w.mul(w.mul(d, std), w.inv(d)) == el
        # the standard element carries each cycle product at the least
        # position of its cycle and identity elsewhere
        assert type_of(w, std) == type_of(w, el)


def test_type_json_round_trip():
    base = cyclic_group(2)
    t = all_types(base, 3)[4]
    data = [
        {"class": base.label(conjugacy_classes(base)[c].representative), "r": r, "m": m}
        for (c, r), m in t.entries
    ]
    assert type_from_json(data, base, 3) == t


def test_order_cap():
    with pytest.raises(OrderCapExceeded):
        WreathProduct(symmetric_group(4), 4).to_group(order_cap=10**5)


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
    base = symmetric_group(3)
    classes = conjugacy_classes(base)
    for ci, cls in enumerate(classes):
        cent = len(
            [x for x in base.elements() if base.mul(x, cls.representative) == base.mul(cls.representative, x)]
        )
        for r in (1, 2, 3):
            ext = centralizer_extension(base, cls.representative, r)
            assert ext.order == r * cent


def test_centralizer_extension_is_abelian_over_cyclic():
    base = cyclic_group(4)
    ext = centralizer_extension(base, 1, 3)
    assert ext.order == 12
    assert ext.is_abelian()


def _wreath_product_extension(base, c, r):
    """Test oracle: <diag C_G(c), a_{r,c}> built inside G ~ S_r by
    multiplying wreath elements, independently of the central-extension
    construction used by ``centralizer_extension``."""
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
    return sorted(group.element_order(x) for x in group.elements())


@pytest.mark.parametrize(
    "base",
    [symmetric_group(3), dihedral_group(4), cyclic_group(3), symmetric_group(4)],
    ids=["S3", "D4", "Z3", "S4"],
)
def test_centralizer_extension_matches_wreath_subgroup(base):
    for cls in conjugacy_classes(base):
        for r in range(1, 5):
            ext = centralizer_extension(base, cls.representative, r)
            oracle = _wreath_product_extension(base, cls.representative, r)
            assert ext.order == oracle.order
            assert _element_orders(ext) == _element_orders(oracle)
            assert ext.is_abelian() == oracle.is_abelian()
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

