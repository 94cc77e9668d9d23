import itertools

import pytest
from hypothesis import given, settings, strategies as st

from orbichar import groups
from orbichar.errors import InputError, NoInverse, OrderCapExceeded
from orbichar.groups import (
    FiniteGroup,
    abelian_subgroups,
    build_group_from_permutations,
    centralizer,
    conjugacy_classes,
    cyclic_group,
    dihedral_group,
    direct_product,
    generators,
    orbit,
    orbits,
    perm_compose,
    perm_cycle_label,
    subgroup,
    symmetric_group,
    trivial_group,
)
from orbichar.library import builtin_group

from group_oracle import is_central
from helpers import (
    abelian_subgroups_by_closure,
    element_order,
    is_abelian,
    perm_inverse,
)


def test_monoid_without_inverse_is_rejected():
    # Associative with identity 0, but 1 * x is never 0.
    with pytest.raises(NoInverse, match="element 1"):
        FiniteGroup([[0, 1], [1, 1]])
    # A right inverse alone is not enough: 1 * 2 = 0 but 2 * 1 = 2 (the table
    # is not associative, so only an unvalidated table can get this far).
    with pytest.raises(NoInverse, match="element 1"):
        FiniteGroup([[0, 1, 2], [1, 1, 0], [2, 2, 2]], _skip_validation=True)


def test_cyclic_group_basics():
    g = cyclic_group(6)
    assert g.order == 6
    assert g.identity == 0
    assert g.inv(2) == 4
    assert element_order(g, 2) == 3
    assert is_abelian(g)


def test_symmetric_group_orders():
    assert symmetric_group(1).order == 1
    assert symmetric_group(2).order == 2
    assert symmetric_group(3).order == 6
    assert symmetric_group(4).order == 24
    assert not is_abelian(symmetric_group(3))


def test_dihedral_group_structure():
    d4 = dihedral_group(4)
    assert d4.order == 8
    # five conjugacy classes: e, r^2, {r, r^3}, two reflection classes
    assert len(conjugacy_classes(d4)) == 5


def test_class_equation():
    for g in (symmetric_group(3), symmetric_group(4), dihedral_group(4)):
        classes = conjugacy_classes(g)
        assert sum(len(c.members) for c in classes) == g.order
        for c in classes:
            # orbit-stabilizer: |class| * |centralizer| = |G|
            assert len(c.members) * len(centralizer(g, [c.representative])) == g.order


def test_s3_class_sizes():
    sizes = sorted(len(c.members) for c in conjugacy_classes(symmetric_group(3)))
    assert sizes == [1, 2, 3]


def test_s4_class_sizes():
    sizes = sorted(len(c.members) for c in conjugacy_classes(symmetric_group(4)))
    assert sizes == [1, 3, 6, 6, 8]


def test_centralizer_of_identity_is_group():
    g = symmetric_group(3)
    assert len(centralizer(g, [g.identity])) == 6


def test_center_of_d4():
    d4 = dihedral_group(4)
    central = [z for z in d4.elements() if is_central(d4, z)]
    assert len(central) == 2


def test_subgroup_reindexing():
    g = symmetric_group(3)
    cls = conjugacy_classes(g)
    rep = next(c.representative for c in cls if element_order(g, c.representative) == 3)
    sub, carrier = subgroup(g, [g.identity, rep, g.inv(rep)])
    assert sub.order == 3
    for i in range(sub.order):
        for j in range(sub.order):
            assert carrier[sub.table[i][j]] == g.mul(carrier[i], carrier[j])


def test_subgroup_rejects_nonclosed():
    g = symmetric_group(3)
    transpositions = [x for x in g.elements() if element_order(g, x) == 2]
    with pytest.raises(InputError):
        subgroup(g, [g.identity, transpositions[0], transpositions[1]])


def test_subgroup_on_every_element_is_the_group():
    for g in (trivial_group(), cyclic_group(4), symmetric_group(3), dihedral_group(5)):
        sub, carrier = subgroup(g, reversed(range(g.order)))
        assert sub is g
        assert carrier == tuple(range(g.order))
        assert sub.labels == g.labels
    # a proper subset still gets its own reindexed table
    g = symmetric_group(3)
    sub, carrier = subgroup(g, [g.identity])
    assert sub.order == 1 and carrier == (g.identity,)
    with pytest.raises(InputError, match="subset not closed"):
        subgroup(g, range(1, g.order))


def _eager_subgroup(group, carrier):
    """Test oracle: the subgroup's table built entry by entry, as a plain
    FiniteGroup with the parent's labels."""
    pos = {g: i for i, g in enumerate(carrier)}
    table = [[pos[group.mul(a, b)] for b in carrier] for a in carrier]
    labels = None if group.labels is None else [group.label(g) for g in carrier]
    return FiniteGroup(table, labels=labels)


@pytest.mark.parametrize(
    "group",
    [symmetric_group(4), dihedral_group(6), cyclic_group(6)],
    ids=["S4", "D6", "Z6"],
)
def test_lazy_subgroup_equals_eager_build(group):
    unset = FiniteGroup.__dict__["table"]  # the slot, read without building
    for cls in conjugacy_classes(group):
        cent = centralizer(group, [cls.representative])
        sub, carrier = subgroup(group, cent)
        if sub is group:
            continue
        with pytest.raises(AttributeError):
            unset.__get__(sub, type(sub))
        eager = _eager_subgroup(group, carrier)
        assert sub.order == eager.order
        assert sub.identity == eager.identity
        assert sub.labels == eager.labels
        assert sub.inverse == eager.inverse
        assert sub.table == eager.table
        assert unset.__get__(sub, type(sub)) is sub.table  # built once
        assert sub == eager and hash(sub) == hash(eager)


def test_generators_span_the_subgroup():
    for group in (symmetric_group(4), dihedral_group(6), cyclic_group(12)):
        for cls in conjugacy_classes(group):
            cent = centralizer(group, [cls.representative])
            gens = generators(group, cent)
            assert gens == sorted(gens)
            assert orbit(group.identity, gens, group.mul) == set(cent)
            # greedy: no generator lies in the span of those before it
            for i, x in enumerate(gens):
                assert x not in orbit(group.identity, gens[:i], group.mul)


def test_direct_product():
    p, pairs = direct_product(cyclic_group(2), cyclic_group(3))
    assert p.order == 6
    assert is_abelian(p)
    assert element_order(p, pairs.index((1, 1))) == 6


def test_bad_table_rejected():
    with pytest.raises(InputError):
        FiniteGroup([[0, 1], [1, 1]])  # not a latin square
    with pytest.raises(InputError):
        # latin square with a left identity (row 0) but no two-sided one
        FiniteGroup([[0, 1, 2], [2, 0, 1], [1, 2, 0]])


def test_nonassociative_rejected():
    # a latin square with identity that fails associativity
    table = [
        [0, 1, 2, 3, 4],
        [1, 0, 3, 4, 2],
        [2, 4, 0, 1, 3],
        [3, 2, 4, 0, 1],
        [4, 3, 1, 2, 0],
    ]
    with pytest.raises(InputError):
        FiniteGroup(table)


@pytest.mark.parametrize(
    "group",
    [symmetric_group(3), dihedral_group(4), dihedral_group(6), cyclic_group(6),
     symmetric_group(4), trivial_group()],
    ids=["S3", "D4", "D6", "Z6", "S4", "trivial"],
)
def test_abelian_subgroups_match_the_naive_closure(group):
    found = abelian_subgroups(group)
    assert set(found) == abelian_subgroups_by_closure(group)
    assert len(set(found)) == len(found)
    assert [len(s) for s in found] == sorted(len(s) for s in found)
    assert found[0] == {group.identity}


@pytest.mark.parametrize(
    "spec, count", [("S4", 21), ("D30", 53), ("D300", 468), ("D1000", 1516), ("Z2000", 20)]
)
def test_abelian_subgroup_counts(spec, count):
    # D_n: the n-gon's rotations give d(n) subgroups, the n reflections n
    # more, and the Klein groups {1, r^(n/2), s, s r^(n/2)} n/2 for even n;
    # Z_n has one subgroup per divisor
    assert len(abelian_subgroups(builtin_group(spec))) == count


def test_permutation_helpers():
    p = (1, 2, 0)
    q = (0, 2, 1)
    assert perm_compose(p, perm_inverse(p)) == (0, 1, 2)
    assert perm_compose(p, q) == tuple(p[q[i]] for i in range(3))
    assert perm_cycle_label((1, 0, 2)) == "(1 2)"
    assert perm_cycle_label((0, 1, 2)) == "()"


def test_orbit_closes_generators_into_the_group():
    for gens, degree in [
        ([(1, 0, 2, 3), (1, 2, 3, 0)], 4),
        ([(1, 2, 3, 0), (0, 3, 2, 1)], 4),
        ([(1, 2, 0)], 3),
    ]:
        closure = orbit(tuple(range(degree)), gens, perm_compose)
        # an independent closure: all products of at most 24 generators
        words = {tuple(range(degree))}
        for _ in range(24):
            words |= {perm_compose(p, g) for p in words for g in gens}
        assert closure == words
        group = build_group_from_permutations(gens, degree=degree)
        assert group.order == len(closure)
        assert sorted(group.labels) == sorted(perm_cycle_label(p) for p in closure)
    s4 = orbit((0, 1, 2, 3), [(1, 0, 2, 3), (1, 2, 3, 0)], perm_compose)
    assert s4 == set(itertools.permutations(range(4)))


def test_orbit_cap_trips_before_growing_past_it():
    produced = []

    def step(x, g):
        produced.append(x + g)
        return x + g

    # the orbit of 0 under x -> x + 1 is infinite; the cap alone stops it
    with pytest.raises(OrderCapExceeded):
        orbit(0, [1], step, cap=5)
    assert max(produced) == 5  # 0..4 kept, 5 refused
    assert orbit(0, [1], lambda x, g: (x + g) % 5, cap=5) == set(range(5))
    # a permutation closure stops at TABLE_ORDER_CAP = 2000: S7 has 5040
    # elements, S6 has 720
    with pytest.raises(OrderCapExceeded):
        build_group_from_permutations(_symmetric_generators(7))
    assert build_group_from_permutations(_symmetric_generators(6)).order == 720


def _symmetric_generators(n):
    return [tuple([1, 0] + list(range(2, n))), tuple(list(range(1, n)) + [0])]


def _dihedral_generators(n):
    return [tuple((i + 1) % n for i in range(n)), tuple((n - i) % n for i in range(n))]


@pytest.mark.parametrize(
    "gens, degree",
    [([], 1)]
    + [(_symmetric_generators(n), n) for n in range(2, 6)]
    + [(_dihedral_generators(n), n) for n in range(2, 9)],
)
def test_permutation_table_matches_pairwise_composition(gens, degree):
    # the oracle composes every pair of the sorted closure, p(q(x)) pointwise
    elems = sorted(orbit(tuple(range(degree)), gens, perm_compose))
    index = {p: i for i, p in enumerate(elems)}
    table = tuple(
        tuple(index[tuple(p[q[x]] for x in range(degree))] for q in elems)
        for p in elems
    )
    group = build_group_from_permutations(gens, degree=degree)
    assert group.table == table
    assert group.labels == tuple(perm_cycle_label(p) for p in elems)


def test_permutation_labels_built_on_first_use(monkeypatch):
    made = []

    def label(p):
        made.append(p)
        return perm_cycle_label(p)

    monkeypatch.setattr(groups, "perm_cycle_label", label)
    group = dihedral_group(12)
    assert made == []
    elems = sorted(orbit(tuple(range(12)), _dihedral_generators(12), perm_compose))
    assert group.label(5) == perm_cycle_label(elems[5])
    assert group.label(5) == perm_cycle_label(elems[5]) and made == [elems[5]]
    # a subgroup reads its labels from the parent's, also on first use
    sub, carrier = subgroup(group, centralizer(group, [5]))
    assert len(made) == 1
    assert sub.labels == tuple(group.label(g) for g in carrier)
    assert group.labels == tuple(perm_cycle_label(p) for p in elems)
    assert len(made) == len(elems)


def _check_orbits(items, act, elements):
    opened = []

    def orbit_of(x):
        opened.append(x)
        return {act(g, x) for g in elements}

    out = orbits(items, orbit_of)
    # disjoint and covering
    assert sorted(x for o in out for x in o) == sorted(items)
    for o in out:
        assert list(o) == sorted(o)
        assert {act(g, x) for g in elements for x in o} == set(o)
    # each orbit is opened once, by its least member, in order of least member
    assert opened == [o[0] for o in out] == sorted(opened)


@settings(max_examples=60, deadline=None)
@given(
    st.integers(min_value=1, max_value=5).flatmap(
        lambda d: st.lists(st.permutations(range(d)), min_size=1, max_size=2)
    )
)
def test_orbits_of_conjugation_and_vertex_action(gens):
    degree = len(gens[0])
    group = build_group_from_permutations(gens, degree=degree)
    _check_orbits(range(group.order), group.conj, group.elements())
    perms = sorted(orbit(tuple(range(degree)), [tuple(p) for p in gens], perm_compose))
    _check_orbits(range(degree), lambda p, v: p[v], perms)


def test_trivial_group():
    t = trivial_group()
    assert t.order == 1 and t.identity == 0


@given(st.integers(min_value=1, max_value=12))
def test_cyclic_inverse_law(n):
    g = cyclic_group(n)
    for x in g.elements():
        assert g.mul(x, g.inv(x)) == g.identity


@settings(max_examples=25)
@given(st.integers(min_value=2, max_value=4), st.data())
def test_conjugation_preserves_order(n, data):
    g = symmetric_group(n)
    x = data.draw(st.integers(min_value=0, max_value=g.order - 1))
    h = data.draw(st.integers(min_value=0, max_value=g.order - 1))
    assert element_order(g, g.conj(h, x)) == element_order(g, x)


@settings(max_examples=25)
@given(st.integers(min_value=2, max_value=4), st.data())
def test_power_matches_repeated_mul(n, data):
    g = dihedral_group(n)
    x = data.draw(st.integers(min_value=0, max_value=g.order - 1))
    k = data.draw(st.integers(min_value=-6, max_value=6))
    acc = g.identity
    for _ in range(abs(k)):
        acc = g.mul(acc, x if k >= 0 else g.inv(x))
    assert g.power(x, k) == acc
