import itertools
import time
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from orbichar.complexes import (
    barycentric_subdivision,
    betti_numbers,
    euler_characteristic,
    from_maximal,
    staircase_product,
)
from orbichar.equivariant import (
    EquivariantComplex,
    _chain_count,
    action_from_generator_maps,
    equivariant_product,
    euler_satake,
    fixed_subcomplex,
    orbit_complex,
    power_with_wreath_action,
    product_complex,
    regularity_certificate,
    regularize,
    subdivide_equivariant,
    trivial_action,
)
from orbichar.complexes import SimplicialComplex
from orbichar.errors import (
    InputError,
    NotRegular,
    RegularizationFailed,
    SizeCapExceeded,
)
from orbichar.groups import (
    build_group_from_permutations,
    cyclic_group,
    orbit,
    perm_compose,
    symmetric_group,
    trivial_group,
)
from orbichar.homs import free_abelian, hom_classes
from orbichar.library import (
    EQUIVARIANT_PRESETS,
    PRODUCT_PAIRS,
    circle,
    circle4_rotation,
    edge,
    edge_swap,
    load_equivariant,
    octahedron,
    octahedron_antipodal,
    octahedron_reflection,
    point,
    s0_swap,
    suite,
    two_points,
)
from orbichar.sectors import gamma_sectors

from helpers import (
    euler_satake_by_fractions,
    euler_satake_subcomplex,
    orbit_complex_by_relabel,
)
from homology_oracle import homology_traces


def test_action_validation():
    cx = two_points()
    g = cyclic_group(2)
    with pytest.raises(InputError):
        EquivariantComplex(cx, g, ((0, 1), (0, 0)))  # not a bijection
    with pytest.raises(InputError):
        EquivariantComplex(cx, g, ((0, 1),))  # wrong number of rows


def test_action_must_respect_group_law():
    cx = circle(3)
    g = cyclic_group(3)
    rot = {0: 1, 1: 2, 2: 0}
    ec = action_from_generator_maps(cx, g, {1: rot})
    assert ec.apply(2, 0) == 2  # g^2 rotates twice
    broken = {0: 1, 1: 0, 2: 2}  # an involution cannot generate Z/3
    with pytest.raises(InputError):
        action_from_generator_maps(cx, g, {1: broken})
    # A reflection given as the generator of Z/5 reaches ten (element, row)
    # pairs; the closure's cap at |G| is reported as the clash it is.
    reflection = {v: (5 - v) % 5 for v in range(5)}
    with pytest.raises(InputError, match="inconsistent"):
        action_from_generator_maps(circle(5), cyclic_group(5), {1: reflection})


def test_action_law_broken_off_the_generators_is_caught():
    # Z/4 rotating circle(4): the law is checked for the generator 1 (and
    # the identity) against every h, which still catches a row that only
    # breaks it at pairs such as (2, 1), whose product is 3
    cx, g = circle(4), cyclic_group(4)
    rows = [tuple((v + k) % 4 for v in range(4)) for k in range(4)]
    assert EquivariantComplex(cx, g, rows).apply(3, 0) == 3
    reflection = tuple((4 - v) % 4 for v in range(4))
    for k in (2, 3):
        broken = rows[:k] + [reflection] + rows[k + 1 :]
        with pytest.raises(InputError, match="not a homomorphism"):
            EquivariantComplex(cx, g, broken)
    # the identity's row is checked too, with no generator to do it
    with pytest.raises(InputError, match="not a homomorphism"):
        EquivariantComplex(two_points(), trivial_group(), ((1, 0),))


def test_regularity_certificate_failures():
    # an edge flipped end-for-end: both endpoints land in one vertex orbit
    ec = EquivariantComplex(edge(), cyclic_group(2), ((0, 1), (1, 0)))
    reason = regularity_certificate(ec)[0]
    assert reason is not None and "vertex orbit twice" in reason
    # a free rotation of the square: antipodal edges map to the same orbit
    # image without being in the same orbit
    rot = EquivariantComplex(
        circle(4), cyclic_group(2), ((0, 1, 2, 3), (2, 3, 0, 1))
    )
    reason = regularity_certificate(rot)[0]
    assert reason is not None and "several orbits" in reason


def _three_condition_failure(ec):
    """Test oracle: the certificate as it was first written, checking
    condition (1) directly for every simplex and element."""
    orbit_of = {}
    for orbit in ec.vertex_orbits():
        for v in orbit:
            orbit_of[v] = orbit[0]
    elements = range(ec.group.order)
    for s in ec.cx.simplices:
        labels = [orbit_of[v] for v in s]
        if len(set(labels)) != len(labels):
            return f"simplex {s} meets a vertex orbit twice"
        if len(s) > 1:
            for g in elements:
                if ec.map_simplex(g, s) == s and any(
                    ec.apply(g, v) != v for v in s
                ):
                    return f"element {g} preserves {s} without fixing it"
    by_image = {}
    for s in ec.cx.simplices:
        by_image.setdefault(tuple(sorted(orbit_of[v] for v in s)), []).append(s)
    for image, group_of in by_image.items():
        if len(group_of) == 1:
            continue
        orbit = {ec.map_simplex(g, group_of[0]) for g in elements}
        if set(group_of) != orbit:
            return f"simplices over {image} fall into several orbits"
    return None


@st.composite
def _invariant_complexes(draw, max_vertices=6):
    nv = draw(st.integers(min_value=1, max_value=max_vertices))
    gens = draw(st.lists(st.permutations(range(nv)), min_size=1, max_size=2))
    group = build_group_from_permutations(gens, degree=nv)
    # the group's elements are the sorted closure, as in the builder
    perms = sorted(orbit(tuple(range(nv)), [tuple(p) for p in gens], perm_compose))
    seeds = draw(
        st.lists(
            st.sets(st.integers(min_value=0, max_value=nv - 1), min_size=1, max_size=4),
            max_size=4,
        )
    )
    maximal = {tuple(sorted(p[v] for v in s)) for s in seeds for p in perms}
    maximal |= {(v,) for v in range(nv)}
    cx = from_maximal(maximal)
    return EquivariantComplex(cx, group, perms)


@settings(max_examples=60, deadline=None)
@given(_invariant_complexes())
def test_certificate_matches_three_conditions(ec):
    assert regularity_certificate(ec)[0] == _three_condition_failure(ec)
    sd = subdivide_equivariant(ec)
    assert regularity_certificate(sd)[0] == _three_condition_failure(sd)
    # where it holds, its image classes give the orbit complex
    for action in (ec, sd):
        if regularity_certificate(action)[0] is None:
            rec = regularize(action, max_rounds=0)
            assert orbit_complex(rec) == orbit_complex_by_relabel(rec)
            assert euler_satake(rec) == euler_satake_by_fractions(rec)


def test_certificate_matches_three_conditions_on_presets():
    for name, rec in suite():
        reason = regularity_certificate(rec.ec)[0]
        assert reason == _three_condition_failure(rec.ec), name
    for rec, n in [(s0_swap(), 2), (edge_swap(), 2), (circle4_rotation(), 2)]:
        power, _ew = power_with_wreath_action(rec, n)
        assert regularity_certificate(power)[0] == _three_condition_failure(power)


def test_subdivision_rounds():
    assert s0_swap().subdivision_rounds == 0
    assert edge_swap().subdivision_rounds == 1
    assert circle4_rotation().subdivision_rounds == 1
    assert octahedron_antipodal().subdivision_rounds == 1
    assert octahedron_reflection().subdivision_rounds == 0


def test_regularize_round_budget():
    flipped = EquivariantComplex(edge(), cyclic_group(2), ((0, 1), (1, 0)))
    with pytest.raises(RegularizationFailed):
        regularize(flipped, max_rounds=0)
    assert regularize(flipped, max_rounds=2).subdivision_rounds == 1
    # an already-regular action succeeds with a zero budget
    swap = EquivariantComplex(two_points(), cyclic_group(2), ((0, 1), (1, 0)))
    assert regularize(swap, max_rounds=0).subdivision_rounds == 0


def test_euler_satake_requires_regular():
    ec = trivial_action(point(), trivial_group())
    with pytest.raises(NotRegular):
        euler_satake(ec)


def test_euler_satake_is_chi_over_group_order():
    for name, rec in suite():
        chi = euler_characteristic(rec.cx)
        assert euler_satake(rec) == Fraction(chi, rec.group.order), name


def test_euler_satake_values():
    assert euler_satake(s0_swap()) == 1
    assert euler_satake(edge_swap()) == Fraction(1, 2)
    assert euler_satake(circle4_rotation()) == 0
    assert euler_satake(octahedron_antipodal()) == 1


def test_subcomplex_additivity():
    rec = octahedron_reflection()
    ec = rec.ec
    elements = range(ec.group.order)
    orbits = []
    seen = set()
    for s in ec.cx.simplices:
        if s in seen:
            continue
        orbit = {ec.map_simplex(g, s) for g in elements}
        seen |= orbit
        orbits.append(orbit)
    # close alternating orbit halves downward into two invariant subcomplexes
    def close_down(sel):
        out = set()
        for orbit in sel:
            for s in orbit:
                for mask in range(1, 1 << len(s)):
                    out.add(
                        tuple(s[i] for i in range(len(s)) if mask >> i & 1)
                    )
        return out

    a = close_down(orbits[::2])
    b = close_down(orbits[1::2])
    chi_union = euler_satake(rec)
    assert (
        euler_satake_subcomplex(rec, a)
        + euler_satake_subcomplex(rec, b)
        - euler_satake_subcomplex(rec, a & b)
        == chi_union
    )


def test_subcomplex_of_everything_is_euler_satake():
    recs = [rec for _name, rec in suite()]
    for rec in (s0_swap(), edge_swap()):
        power, _ew = power_with_wreath_action(rec, 2)
        recs.append(regularize(power))
    for rec in recs:
        assert euler_satake(rec) == euler_satake_subcomplex(rec, rec.cx.simplices)


def test_subcomplex_must_be_invariant():
    rec = s0_swap()
    with pytest.raises(InputError):
        euler_satake_subcomplex(rec, {(0,)})


def test_fixed_subcomplexes():
    rec = octahedron_reflection()
    g = 1  # the reflection
    fixed = fixed_subcomplex(rec, [g])
    assert euler_characteristic(fixed) == 0  # the equatorial circle
    assert betti_numbers(fixed) == [1, 1]
    free = octahedron_antipodal()
    assert fixed_subcomplex(free, [1]).f_vector() == []
    # every vertex fixed: the complex itself, not a copy
    assert fixed_subcomplex(rec, [rec.group.identity]) is rec.cx
    assert fixed_subcomplex(rec, []) is rec.cx


def _fixed_subcomplex_by_scan(rec, elements):
    """Test oracle: the fixed subcomplex as it was first written, testing
    every simplex of the complex."""
    ec = rec.ec
    els = sorted(set(elements))
    fixed_vertices = {
        v for v in ec.cx.vertices if all(ec.apply(g, v) == v for g in els)
    }
    simps = [s for s in ec.cx.simplices if all(v in fixed_vertices for v in s)]
    return SimplicialComplex(simps, _skip_validation=True)


def _assert_fixed_subcomplexes_match_scan(rec, element_lists):
    cx = rec.cx
    by_least = {v: [] for v in cx.vertices}
    for s in cx.simplices:
        by_least[s[0]].append(s)
    assert cx.by_least_vertex() == by_least
    for elements in element_lists:
        fixed = fixed_subcomplex(rec, elements)
        oracle = _fixed_subcomplex_by_scan(rec, elements)
        # equality compares the vertex tuples and the simplex orders
        assert fixed == oracle, elements


def _empty_single_and_pair_lists(order):
    elements = range(order)
    return (
        [()]
        + [(g,) for g in elements]
        + list(itertools.combinations(elements, 2))
    )


@settings(max_examples=60, deadline=None)
@given(_invariant_complexes(max_vertices=4))
def test_fixed_subcomplex_matches_scan(ec):
    rec = regularize(ec)
    _assert_fixed_subcomplexes_match_scan(
        rec, _empty_single_and_pair_lists(rec.group.order)
    )


def test_fixed_subcomplex_matches_scan_on_presets():
    for _name, rec in suite():
        _assert_fixed_subcomplexes_match_scan(
            rec, _empty_single_and_pair_lists(rec.group.order)
        )


@pytest.mark.parametrize("preset", [s0_swap, edge_swap, circle4_rotation])
@pytest.mark.parametrize("n", [1, 2, 3])
def test_fixed_subcomplex_matches_scan_on_wreath_powers(preset, n):
    power, _ew = power_with_wreath_action(preset(), n)
    rec = regularize(power)
    classes = hom_classes(free_abelian(2), rec.group)
    _assert_fixed_subcomplexes_match_scan(
        rec, [cls.representative.images for cls in classes]
    )


def test_orbit_complex_antipodal_is_projective_plane():
    oc = orbit_complex(octahedron_antipodal())
    assert euler_characteristic(oc) == 1
    assert betti_numbers(oc) == [1, 0, 0]


def test_orbit_complex_reflection():
    oc = orbit_complex(octahedron_reflection())
    # collapsing the two hemispheres onto one: a disk over the square
    assert euler_characteristic(oc) == 1


def _power_recs():
    for name in ("S0-swap", "edge-swap", "circle4-rotation"):
        rec = EQUIVARIANT_PRESETS[name]()
        for n in (1, 2, 3):
            yield f"{name}^{n}", regularize(power_with_wreath_action(rec, n)[0])


def _circle3_s4_sectors():
    rec = load_equivariant("circle(3)", "S4")
    for i, sector in enumerate(gamma_sectors(rec, free_abelian(3)).sectors):
        yield f"circle(3)/S4 Z^3 sector {i}", sector.fixed


def test_orbit_complex_and_euler_satake_match_oracles():
    # the orbit complex relabels the certificate's image classes, and the
    # Euler-Satake sum adds signed orbit sizes as ints; both against the
    # relabel-and-sort and all-|G| Fraction routes
    recs = itertools.chain(suite(), _power_recs(), _circle3_s4_sectors())
    for name, rec in recs:
        assert orbit_complex(rec) == orbit_complex_by_relabel(rec), name
        assert euler_satake(rec) == euler_satake_by_fractions(rec), name


def test_trusted_constructions_hold_sorted_distinct_simplices():
    # every caller that skips validation passes sorted, distinct simplices,
    # so validating them again changes nothing
    built = []
    for name, rec in suite():
        built += [rec.cx, barycentric_subdivision(rec.cx)[0], orbit_complex(rec)]
        built += [fixed_subcomplex(rec, [g]) for g in rec.group.elements()]
    for a, b in PRODUCT_PAIRS:
        x, y = EQUIVARIANT_PRESETS[a]().cx, EQUIVARIANT_PRESETS[b]().cx
        built += [product_complex([x, y])[0], staircase_product(x, y)]
    built += [rec.cx for _name, rec in _power_recs()]
    for cx in built:
        assert SimplicialComplex(cx.simplices) == cx


@pytest.mark.parametrize(
    "names, chains",
    [
        (("edge-swap",) * 2, 113),
        (("edge-swap",) * 3, 1977),
        (("circle4-rotation",) * 2, 1536),
        (("S0-swap",) * 3, 8),
        (("S0-swap", "torus-trivial"), None),
        (("edge-swap", "circle4-rotation", "S0-swap"), None),
    ],
)
def test_chain_count_predicts_product_complex(names, chains):
    cxs = [EQUIVARIANT_PRESETS[name]().cx for name in names]
    built = len(product_complex(cxs)[0].simplices)
    assert _chain_count(cxs) == built
    assert chains in (None, built)


def test_product_chain_cap_trips_before_the_work():
    cx = octahedron_antipodal().cx
    assert _chain_count([cx, cx]) == 3113860
    started = time.monotonic()
    with pytest.raises(
        SizeCapExceeded, match="^chain enumeration exceeds simplex cap 1000000$"
    ):
        product_complex([cx, cx])
    assert time.monotonic() - started < 0.25


def test_homology_traces_average_to_orbit_betti():
    # Bredon: dim H_k(X/G; Q) = (1/|G|) sum of traces of g on H_k(X; Q)
    for rec in (octahedron_antipodal(), octahedron_reflection(), s0_swap()):
        oc = orbit_complex(rec)
        target = betti_numbers(oc)
        dim = len(rec.cx.f_vector()) - 1
        for k in range(dim + 1):
            traces = homology_traces(rec, k)
            avg = sum(traces, Fraction(0)) / rec.group.order
            expected = target[k] if k < len(target) else 0
            assert avg == expected, (k, traces)


def test_homology_traces_identity_is_betti():
    rec = octahedron_antipodal()
    for k in (0, 1, 2):
        assert homology_traces(rec, k)[0] == betti_numbers(rec.cx)[k]


@pytest.mark.parametrize(
    "name, expected",
    [
        ("octahedron-antipodal", [[1, 1], [0, 0], [1, -1]]),
        ("octahedron-reflection", [[1, 1], [0, 0], [1, -1]]),
        ("S0-swap", [[2, 0]]),
        ("circle4-rotation", [[1, 1], [1, 1]]),
        ("edge-swap", [[1, 1], [0, 0]]),
    ],
)
def test_homology_traces_on_presets(name, expected):
    rec = EQUIVARIANT_PRESETS[name]()
    assert [homology_traces(rec, k) for k in range(rec.cx.dim() + 1)] == expected


def test_homology_traces_orientation_signs():
    # The reflection v -> -v of the hexagon passes the certificate as it
    # stands and reverses the vertex order of four edges, so its trace on
    # H_1 depends on the orientation signs.
    cx = circle(6)
    ec = EquivariantComplex(cx, cyclic_group(2), (cx.vertices, (0, 5, 4, 3, 2, 1)))
    rec = regularize(ec)
    assert rec.subdivision_rounds == 0
    assert [homology_traces(rec, k) for k in range(2)] == [[1, 1], [1, -1]]


def test_equivariant_product_es_multiplies():
    a, b = s0_swap(), edge_swap()
    prod, group, pairs = equivariant_product(a.ec, b.ec)
    rec = regularize(prod)
    assert group.order == 4
    assert euler_satake(rec) == euler_satake(a) * euler_satake(b)


def test_power_with_wreath_action_point():
    rec = regularize(trivial_action(point(), cyclic_group(2)))
    power, ew = power_with_wreath_action(rec, 3)
    assert ew.group.order == 2**3 * 6
    assert euler_satake(regularize(power)) == Fraction(1, 48)


def test_power_with_wreath_action_s0():
    rec = s0_swap()
    power, ew = power_with_wreath_action(rec, 2)
    assert ew.group.order == 8
    # chi(S0 x S0) / |Z2 wr S2| = 4/8
    assert euler_satake(regularize(power)) == Fraction(1, 2)


@pytest.mark.parametrize(
    "preset, n",
    [(s0_swap, 3), (s0_swap, 4), (edge_swap, 2), (edge_swap, 3),
     (circle4_rotation, 2)],
    ids=["S0-swap-3", "S0-swap-4", "edge-swap-2", "edge-swap-3",
         "circle4-rotation-2"],
)
def test_power_rows_match_elementwise_formula(preset, n):
    rec = preset()
    ec = rec.ec
    power, ew = power_with_wreath_action(rec, n)
    _cx, tuples = product_complex([ec.cx] * n)
    ids = {t: i for i, t in enumerate(tuples)}
    assert len(power.action) == len(ew.elements)
    for w, row in zip(ew.elements, power.action):
        sinv = [0] * n
        for i, v in enumerate(w.perm):
            sinv[v] = i
        oracle = tuple(
            ids[tuple(ec.map_simplex(w.components[i], t[sinv[i]]) for i in range(n))]
            for t in tuples
        )
        assert row == oracle


def test_wreath_power_n1_keeps_complex():
    rec = s0_swap()
    power, ew = power_with_wreath_action(rec, 1)
    assert power.cx.f_vector() == rec.cx.f_vector()
    assert ew.group.order == 2
