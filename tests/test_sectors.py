import json
from fractions import Fraction

import pytest

from orbichar import sectors
from orbichar.cli import main
from orbichar.complexes import euler_characteristic
from orbichar.equivariant import (
    EquivariantComplex,
    equivariant_product,
    euler_satake,
    fixed_subcomplex,
    orbit_complex,
    power_with_wreath_action,
    regularize,
    trivial_action,
)
from orbichar.errors import InputError
from orbichar.groups import (
    centralizer,
    cyclic_group,
    dihedral_group,
    subgroup,
    symmetric_group,
)
from orbichar.homs import (
    free_abelian,
    hom_classes,
    parse_presentation,
    trivial_presentation,
)
from orbichar.library import (
    EQUIVARIANT_PRESETS,
    PRODUCT_PAIRS,
    builtin_equivariant,
    circle4_rotation,
    edge_swap,
    load_equivariant,
    octahedron_antipodal,
    octahedron_reflection,
    point,
    point_s3,
    point_z2,
    s0_swap,
    suite,
    torus_trivial,
)
from orbichar.sectors import (
    chi_gamma_es,
    chi_gamma_top,
    chi_m_top,
    gamma_sectors,
    iterate_sectors,
    product_sectors_check,
)

from group_oracle import BadExtension, central_cyclic_extension
from helpers import element_order

Z = free_abelian(1)
Z2 = free_abelian(2)


def test_trivial_gamma_gives_base_orbifold():
    rec = point_s3()
    assert chi_gamma_es(rec, trivial_presentation()) == Fraction(1, 6)
    assert chi_gamma_es(point_z2(), trivial_presentation()) == Fraction(1, 2)


def test_z_sectors_of_point_count_classes():
    # each conjugacy class contributes a point sector pt / C(g); the
    # Euler-Satake weights sum to the class equation divided by |G|
    rec = point_s3()
    decomp = gamma_sectors(rec, Z)
    assert len(decomp.sectors) == 3
    assert decomp.chi_es() == 1
    assert decomp.chi_top() == 3


def test_z_sectors_free_action_drop():
    # the free involution has no fixed points: only the identity sector
    rec = octahedron_antipodal()
    decomp = gamma_sectors(rec, Z)
    assert len(decomp.sectors) == 1
    assert decomp.dropped_classes == 1
    assert decomp.chi_es() == 1


def test_z_sectors_reflection():
    rec = octahedron_reflection()
    decomp = gamma_sectors(rec, Z)
    # identity sector: the sphere mod the reflection is a disk (chi 1);
    # twisted sector: the equatorial circle, fixed pointwise (chi 0)
    assert len(decomp.sectors) == 2
    assert decomp.chi_es() == 1
    assert [s.chi_top() for s in decomp.sectors] == [1, 0]
    assert decomp.chi_top() == 1


def test_chi_gamma_top_equals_orbit_euler_of_inertia():
    # chi_Z^top sums chi of the sector orbit spaces
    for name, rec in suite():
        total = 0
        for sector in gamma_sectors(rec, Z).sectors:
            total += euler_characteristic(orbit_complex(sector.fixed))
        assert chi_gamma_top(rec, Z) == total, name


def test_chi_m_top_point():
    # over a point, chi_(m) counts classes of commuting m-tuples
    rec = point_s3()
    assert chi_m_top(rec, 0) == 1
    assert chi_m_top(rec, 1) == 3
    assert chi_m_top(rec, 2) == 8
    d4 = regularize(trivial_action(point(), dihedral_group(4)))
    assert chi_m_top(d4, 2) == 22


def test_chi_m_top_s0_swap():
    rec = s0_swap()
    assert chi_m_top(rec, 0) == 1
    # identity sector only (the swap acts freely): S0/Z2 is a point
    assert chi_m_top(rec, 1) == 1
    assert chi_m_top(rec, 2) == 1


def test_chi_m_top_torus():
    rec = torus_trivial()
    for m in (0, 1, 2):
        assert chi_m_top(rec, m) == 0


def test_es_of_m_sectors_is_top_of_previous_level():
    # chi_{Gamma x Z}^ES = chi_Gamma^top specializes to
    # chi_{Z^m}^ES = chi_(m-1): the extra Z direction converts the
    # Euler-Satake weights into honest orbit-space counts
    for name, rec in suite():
        for m in (1, 2):
            assert chi_gamma_es(rec, free_abelian(m)) == chi_m_top(rec, m - 1), (
                name,
                m,
            )


def test_sector_of_rotation_action():
    rec = circle4_rotation()
    decomp = gamma_sectors(rec, Z)
    assert len(decomp.sectors) == 1  # free rotation: only identity survives
    assert decomp.chi_es() == 0


def test_iterated_sectors_match_direct_product():
    for rec in (point_z2(), point_s3(), s0_swap()):
        for first, second in [(Z, Z), (Z, Z2), (Z2, Z)]:
            report = iterate_sectors(rec, first, second)
            assert report["equal"], report


def test_iterated_sector_counts_point():
    # Z then Z over pt x S3 = commuting pairs up to conjugacy
    report = iterate_sectors(point_s3(), Z, Z)
    assert report["iterated_sector_count"] == 8
    assert report["direct_sector_count"] == 8


def test_iterated_sectors_direct_side_never_walks(monkeypatch):
    # the direct side takes every homomorphism of Z x Z and closes G-orbits;
    # only the outer and inner one-generator sectors go through the walk
    walked, closed = [], []
    walk, orbit_route = sectors.hom_classes, sectors.hom_orbits

    def counted_walk(presentation, group):
        walked.append(presentation.generators)
        return walk(presentation, group)

    def counted_orbits(presentation, group):
        closed.append(presentation.generators)
        return orbit_route(presentation, group)

    monkeypatch.setattr(sectors, "hom_classes", counted_walk)
    monkeypatch.setattr(sectors, "hom_orbits", counted_orbits)
    report = iterate_sectors(point_s3(), Z, Z)
    assert report["equal"]
    assert closed == [2]
    assert walked and set(walked) == {1}


def test_iterated_sectors_walk_each_shared_sector_once(monkeypatch):
    # pt x D12: 86 Z^2-classes share 4 sector complexes, so the iterated
    # side walks Z-classes 4 times, not once per class
    walked = []
    walk = sectors.hom_classes

    def counted_walk(presentation, group):
        walked.append(presentation.generators)
        return walk(presentation, group)

    monkeypatch.setattr(sectors, "hom_classes", counted_walk)
    report = iterate_sectors(load_equivariant("point", "D12"), free_abelian(2), Z)
    assert report["equal"] and report["iterated_sector_count"] == 924
    assert sorted(walked) == [1, 1, 1, 1, 2]


def test_product_sectors_multiplicative():
    report = product_sectors_check(point_z2(), point_s3(), Z)
    assert report["equal"], report
    report = product_sectors_check(s0_swap(), edge_swap(), Z)
    assert report["equal"], report


def test_central_extension_structure():
    g = cyclic_group(2)
    ext, carrier = central_cyclic_extension(g, 1, 2)
    assert ext.order == 4
    # x with x^2 = the nontrivial element of Z/2 gives Z/4
    orders = sorted(element_order(ext, x) for x in ext.elements())
    assert orders == [1, 2, 4, 4]


def test_central_extension_requires_central():
    g = symmetric_group(3)
    transposition = next(
        x for x in g.elements() if element_order(g, x) == 2
    )
    with pytest.raises(InputError):
        central_cyclic_extension(g, transposition, 2)


def trivial_extension_scaling_check(ec: EquivariantComplex, z: int, r: int, m: int) -> dict:
    """chi_(m) scales by r^m when a central a with a^r = z acts trivially.

    ``z`` must be central in the acting group and act trivially on the
    complex; the extended group K<a> then acts through K, and the m-th
    orbit-space invariant multiplies by r^m.
    """
    if any(ec.apply(z, v) != v for v in ec.cx.vertices):
        raise BadExtension(f"element {z} does not act trivially")
    ext, pairs = central_cyclic_extension(ec.group, z, r)
    rows = tuple(
        tuple(ec.apply(k, v) for v in ec.cx.vertices) for (k, i) in pairs
    )
    ext_ec = EquivariantComplex(ec.cx, ext, rows, _skip_validation=True)
    base_val = chi_m_top(regularize(ec), m)
    ext_val = chi_m_top(regularize(ext_ec), m)
    return {
        "r": r,
        "m": m,
        "base_chi_m": base_val,
        "extended_chi_m": ext_val,
        "expected": r**m * base_val,
        "equal": ext_val == r**m * base_val,
    }


def test_trivial_extension_scaling():
    # when the extra central generator acts trivially, chi_(m) scales by r^m
    ec = trivial_action(point(), cyclic_group(2))
    for m in (0, 1, 2):
        for r in (2, 3):
            report = trivial_extension_scaling_check(ec, 1, r, m)
            assert report["equal"], report


def _count_sector_invariants(monkeypatch):
    calls = {"euler_satake": 0, "orbit_complex": 0}
    for name in calls:
        inner = getattr(sectors, name)

        def counted(rec, _name=name, _inner=inner):
            calls[_name] += 1
            return _inner(rec)

        monkeypatch.setattr(sectors, name, counted)
    return calls


def _distinct_sectors(rec, presentation) -> int:
    """How many distinct (fixed vertex set, centralizer) pairs the classes
    with a nonempty fixed set have, read from the action rows."""
    group, ec = rec.group, rec.ec
    keys = set()
    for cls in hom_classes(presentation, group):
        images = cls.representative.images
        fixed = tuple(
            v for v in rec.cx.vertices if all(ec.apply(g, v) == v for g in images)
        )
        if fixed:
            keys.add((fixed, tuple(centralizer(group, images))))
    return len(keys)


def test_euler_computes_each_sector_invariant_once(capsys, monkeypatch):
    calls = _count_sector_invariants(monkeypatch)
    code = main(["euler", "--complex", "circle(3)", "--group", "D6", "--gamma", "Z^3"])
    report = json.loads(capsys.readouterr().out)
    distinct = _distinct_sectors(load_equivariant("circle(3)", "D6"), free_abelian(3))
    assert code == 0 and report["sector_count"] == 168 and distinct == 4
    assert calls == {"euler_satake": distinct, "orbit_complex": distinct}


def test_verify_products_computes_each_sector_invariant_once(capsys, monkeypatch):
    calls = _count_sector_invariants(monkeypatch)
    code = main(["verify", "products"])
    report = json.loads(capsys.readouterr().out)
    assert code == 0
    distinct = 0
    for a, b in PRODUCT_PAIRS:
        a, b = builtin_equivariant(a), builtin_equivariant(b)
        product = regularize(equivariant_product(a.ec, b.ec)[0])
        distinct += sum(_distinct_sectors(rec, Z) for rec in (a, b, product))
    sector_count = sum(sum(pair["sector_counts"]) for pair in report["pairs"])
    assert distinct < sector_count
    assert calls == {"euler_satake": distinct, "orbit_complex": distinct}


def _report_by_lone_sectors(rec, presentation) -> dict:
    """What ``gamma_sectors(rec, presentation).report`` should read, with
    every class's sector built and measured on its own."""
    group, ec = rec.group, rec.ec
    entries, dropped = [], 0
    for cls in hom_classes(presentation, group):
        fixed = fixed_subcomplex(rec, cls.representative.images)
        if not fixed.simplices:
            dropped += 1
            continue
        sub, carrier = subgroup(group, cls.centralizer)
        rows = [[ec.apply(carrier[i], v) for v in fixed.vertices] for i in range(sub.order)]
        sector = regularize(EquivariantComplex(fixed, sub, rows))
        entries.append({
            "images": [group.label(x) for x in cls.representative.images],
            "orbit_size": cls.orbit_size,
            "centralizer_order": len(cls.centralizer),
            "fixed_f_vector": fixed.f_vector(),
            "chi_es": euler_satake(sector),
            "chi_top": euler_characteristic(orbit_complex(sector)),
        })
    return {
        "gamma": presentation.name,
        "sector_count": len(entries),
        "dropped_classes": dropped,
        "chi_gamma_es": str(sum((e["chi_es"] for e in entries), Fraction(0))),
        "chi_gamma_top": sum(e["chi_top"] for e in entries),
        "sectors": [dict(e, chi_es=str(e["chi_es"])) for e in entries],
    }


def _wreath_square(name):
    ec, _wreath = power_with_wreath_action(builtin_equivariant(name), 2)
    return regularize(ec)


@pytest.mark.parametrize("gamma", ["Z", "Z^2", "Z^3", "F_2"])
@pytest.mark.parametrize(
    "rec",
    [pytest.param(EQUIVARIANT_PRESETS[n], id=n) for n in EQUIVARIANT_PRESETS]
    + [
        pytest.param(lambda: _wreath_square("edge-swap"), id="edge-swap^2"),
        pytest.param(lambda: load_equivariant("circle(3)", "D6"), id="circle(3)-D6"),
    ],
)
def test_shared_sectors_report_as_lone_sectors(rec, gamma):
    rec = rec()
    presentation = parse_presentation(gamma)
    assert gamma_sectors(rec, presentation).report(rec.group) == (
        _report_by_lone_sectors(rec, presentation)
    )

