import gc

import pytest
from hypothesis import given, settings, strategies as st

from orbichar.errors import EnumerationCapExceeded, InvalidWord
from orbichar.groups import (
    centralizer,
    cyclic_group,
    dihedral_group,
    symmetric_group,
    trivial_group,
)
from orbichar.homs import (
    GroupHom,
    Presentation,
    enumerate_homs,
    free_abelian,
    free_group,
    hom_classes,
    hom_orbits,
    parse_presentation,
    product_presentation,
    trivial_presentation,
)

from helpers import evaluate_hom, evaluate_word


def test_parse_presentation():
    assert parse_presentation("Z").generators == 1
    assert parse_presentation("Z^3").generators == 3
    assert parse_presentation("trivial").generators == 0
    assert parse_presentation("F_2").relators == ()
    p = parse_presentation({"generators": 1, "relators": [(1, 1)], "name": "Z/2"})
    assert p.relators == ((1, 1),)


@pytest.mark.parametrize("spec", ["Z^", "F_"])
def test_parse_presentation_generator_limit(spec):
    # 2^26 <= 10^8 < 2^27: past 26 generators every group of order >= 2
    # overflows the candidate cap, so the spec itself is refused
    assert parse_presentation(f"{spec}26").generators == 26
    assert parse_presentation(f"{spec}0026").generators == 26
    for k in ("27", "1" + "0" * 5000):
        with pytest.raises(EnumerationCapExceeded, match="enumeration cap 100000000"):
            parse_presentation(spec + k)


def test_free_abelian_relators():
    z2 = free_abelian(2)
    assert z2.generators == 2
    assert z2.relators == ((1, 2, -1, -2),)
    assert free_abelian(1).relators == ()


def test_word_validation():
    with pytest.raises(InvalidWord):
        evaluate_word(cyclic_group(3), (1,), (0,))
    with pytest.raises(InvalidWord):
        evaluate_word(cyclic_group(3), (1,), (2,))


def test_evaluate_word():
    g = cyclic_group(5)
    # g1^2 * g1^-1 = g1
    assert evaluate_word(g, (2,), (1, 1, -1)) == 2


# Homomorphism counts into S3.  |Hom(Z^m, S3)| counts commuting m-tuples:
# 6 elements; 18 commuting pairs; 48 triples; 126 quadruples (computed by
# direct enumeration, and matching the class-sum 6*sum over classes of
# |C(g)|^(m-1)/|class| bookkeeping).
S3_COMMUTING = {1: 6, 2: 18, 3: 48, 4: 126}


@pytest.mark.parametrize("m,count", sorted(S3_COMMUTING.items()))
def test_hom_counts_free_abelian_s3(m, count):
    homs = enumerate_homs(free_abelian(m), symmetric_group(3))
    assert len(homs) == count


def test_hom_classes_s3():
    # conjugacy classes of commuting pairs in S3: 8
    classes = hom_classes(free_abelian(2), symmetric_group(3))
    assert len(classes) == 8
    assert sum(c.orbit_size for c in classes) == 18


def test_hom_classes_z_is_conjugacy():
    g = symmetric_group(4)
    assert len(hom_classes(free_abelian(1), g)) == 5  # partitions of 4


def test_trivial_presentation_single_hom():
    classes = hom_classes(trivial_presentation(), symmetric_group(3))
    assert len(classes) == 1
    assert classes[0].representative.images == ()
    assert classes[0].orbit_size == 1
    assert classes[0].centralizer == tuple(range(6))


def test_free_vs_abelian_into_abelian_group():
    g = cyclic_group(6)
    free = enumerate_homs(free_group(2), g)
    ab = enumerate_homs(free_abelian(2), g)
    assert len(free) == len(ab) == 36


def test_enumeration_cap():
    # 24^6 candidates is past DEFAULT_HOM_CAP = 10^8; nothing is enumerated
    with pytest.raises(EnumerationCapExceeded):
        enumerate_homs(free_abelian(6), symmetric_group(4))
    with pytest.raises(EnumerationCapExceeded):
        hom_classes(free_abelian(6), symmetric_group(4))


def test_hom_respects_relators():
    z2_pres = Presentation(1, ((1, 1),), name="Z/2")
    homs = enumerate_homs(z2_pres, symmetric_group(3))
    # identity plus the three transpositions
    assert len(homs) == 4


def test_product_presentation_counts():
    # Hom(Z x Z, G) = commuting pairs, built via the product machinery
    p = product_presentation(free_abelian(1), free_abelian(1))
    assert p.generators == 2
    assert len(enumerate_homs(p, symmetric_group(3))) == 18


def test_hom_class_representatives_canonical():
    classes = hom_classes(free_abelian(1), symmetric_group(3))
    reps = [c.representative.images for c in classes]
    assert reps == sorted(reps)


def test_evaluate_hom_on_words():
    g = symmetric_group(3)
    homs = enumerate_homs(free_abelian(1), g)
    for phi in homs:
        x = phi.images[0]
        assert evaluate_hom(phi, (1, 1)) == g.mul(x, x)
        assert evaluate_hom(phi, (-1,)) == g.inv(x)


@settings(max_examples=30)
@given(st.integers(min_value=1, max_value=3), st.integers(min_value=2, max_value=6))
def test_orbit_sizes_divide_group_order(m, n):
    g = cyclic_group(n)
    classes = hom_classes(free_abelian(m), g)
    # abelian group: conjugation is trivial, so every orbit is a singleton
    assert all(c.orbit_size == 1 for c in classes)
    assert len(classes) == n**m


@settings(max_examples=10)
@given(st.integers(min_value=1, max_value=2))
def test_orbit_stabilizer_sum(m):
    g = symmetric_group(3)
    classes = hom_classes(free_abelian(m), g)
    assert all(g.order % c.orbit_size == 0 for c in classes)
    assert sum(c.orbit_size for c in classes) == len(enumerate_homs(free_abelian(m), g))


# ---------------------------------------------------------------------------
# the orderly walk against the orbit route


def _wreath_z3_s2():
    from orbichar.wreath import WreathProduct

    return WreathProduct(cyclic_group(3), 2).to_group().group


WALK_GROUPS = {
    "trivial": trivial_group,
    "Z5": lambda: cyclic_group(5),
    "S3": lambda: symmetric_group(3),
    "S4": lambda: symmetric_group(4),
    "D4": lambda: dihedral_group(4),
    "D6": lambda: dihedral_group(6),
    "Z3~S2": _wreath_z3_s2,
}


def _assert_walk_matches_orbits(presentation, group):
    walk = hom_classes(presentation, group)
    orbit_route = hom_orbits(presentation, group)
    # representatives, orbit sizes and order
    assert [(c.representative.images, c.orbit_size) for c in walk] == [
        (c.representative.images, c.orbit_size) for c in orbit_route
    ]
    for cls in walk:
        images = cls.representative.images
        assert cls.centralizer == centralizer(group, images)
        assert cls.orbit_size * len(cls.centralizer) == group.order
    return walk


@pytest.mark.parametrize("name", sorted(WALK_GROUPS))
@pytest.mark.parametrize(
    "presentation",
    [free_abelian(1), free_abelian(2), free_abelian(3), free_group(2)],
    ids=["Z", "Z^2", "Z^3", "F_2"],
)
def test_walk_matches_orbit_route(name, presentation):
    _assert_walk_matches_orbits(presentation, WALK_GROUPS[name]())


_SMALL_GROUPS = [
    trivial_group(),
    cyclic_group(2),
    cyclic_group(4),
    cyclic_group(6),
    symmetric_group(3),
    dihedral_group(4),
    dihedral_group(5),
]

_words = st.lists(
    st.sampled_from([1, -1, 2, -2]), min_size=1, max_size=5
).map(tuple)


@settings(max_examples=40, deadline=None)
@given(
    st.sampled_from(range(len(_SMALL_GROUPS))),
    st.lists(_words, max_size=2),
)
def test_walk_matches_orbit_route_on_random_presentations(index, relators):
    presentation = Presentation(2, tuple(relators))
    _assert_walk_matches_orbits(presentation, _SMALL_GROUPS[index])


@pytest.mark.parametrize("walk", [hom_classes, enumerate_homs])
def test_dropped_homs_leave_no_reference_cycle(walk):
    # the recursive walks hold no cycle, so the result is freed by
    # reference counting, without waiting for a cyclic collection
    group, presentation = symmetric_group(4), free_abelian(2)
    walk(presentation, group)
    gc.collect()
    gc.disable()
    try:
        walk(presentation, group)
        assert gc.collect() == 0
    finally:
        gc.enable()
