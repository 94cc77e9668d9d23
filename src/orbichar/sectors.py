"""Sector decompositions of a global quotient by a finitely presented group.

For a regular action of G on X and a presentation P, the P-sectors are
indexed by conjugacy classes of homomorphisms P -> G whose common fixed
subcomplex is nonempty; each sector is that fixed subcomplex together with
the action of the centralizer of the image.  Two generalized invariants are
read off the decomposition:

* chi_es: the sum of Euler-Satake characteristics of the sectors,
* chi_top: the sum of Euler characteristics of their orbit spaces.

Classes with empty fixed sets are dropped (their count is reported).  The
decomposition is canonically ordered by the lex-min class representatives,
so reports are reproducible byte for byte.
"""
from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from .complexes import euler_characteristic
from .equivariant import (
    EquivariantComplex,
    RegularEquivariantComplex,
    equivariant_product,
    euler_satake,
    fixed_subcomplex,
    orbit_complex,
    regularize,
)
from .errors import BadExtension, InputError
from .groups import FiniteGroup, central_cyclic_extension, centralizer, subgroup
from .homs import (
    DEFAULT_HOM_CAP,
    HomClass,
    Presentation,
    free_abelian,
    hom_classes,
    product_presentation,
)


@dataclass(frozen=True)
class Sector:
    hom_class: HomClass
    centralizer_elements: tuple  # in the parent group
    fixed: RegularEquivariantComplex  # over the reindexed centralizer
    carrier: tuple  # centralizer-subgroup index -> parent element

    def chi_es(self) -> Fraction:
        return euler_satake(self.fixed)

    def chi_top(self) -> int:
        return euler_characteristic(orbit_complex(self.fixed))


@dataclass(frozen=True)
class SectorDecomposition:
    presentation: Presentation
    sectors: tuple
    dropped_classes: int

    def chi_es(self) -> Fraction:
        return sum((s.chi_es() for s in self.sectors), Fraction(0))

    def chi_top(self) -> int:
        return sum(s.chi_top() for s in self.sectors)

    def report(self, group: FiniteGroup) -> dict:
        return {
            "gamma": self.presentation.name
            or f"<{self.presentation.generators} generators>",
            "sector_count": len(self.sectors),
            "dropped_classes": self.dropped_classes,
            "chi_es": str(self.chi_es()),
            "chi_top": self.chi_top(),
            "sectors": [
                {
                    "images": [group.label(x) for x in s.hom_class.representative.images],
                    "orbit_size": s.hom_class.orbit_size,
                    "centralizer_order": len(s.centralizer_elements),
                    "fixed_f_vector": s.fixed.cx.f_vector(),
                    "chi_es": str(s.chi_es()),
                    "chi_top": s.chi_top(),
                }
                for s in self.sectors
            ],
        }


def sector_for_class(
    rec: RegularEquivariantComplex, cls: HomClass
) -> Sector | None:
    """The sector of one homomorphism class, or None if its fixed set is empty."""
    ec = rec.ec
    images = cls.representative.images
    fixed = fixed_subcomplex(rec, images)
    if not fixed.simplices:
        return None
    cent = centralizer(ec.group, images)
    sub, carrier = subgroup(ec.group, cent)
    rows = tuple(
        tuple(ec.apply(carrier[i], v) for v in fixed.vertices)
        for i in range(sub.order)
    )
    sector_ec = EquivariantComplex(fixed, sub, rows, _skip_validation=True)
    return Sector(cls, cent, regularize(sector_ec), carrier)


def gamma_sectors(
    rec: RegularEquivariantComplex,
    presentation: Presentation,
    cap: int = DEFAULT_HOM_CAP,
) -> SectorDecomposition:
    classes = hom_classes(presentation, rec.group, cap=cap)
    sectors = []
    dropped = 0
    for cls in classes:
        sector = sector_for_class(rec, cls)
        if sector is None:
            dropped += 1
        else:
            sectors.append(sector)
    return SectorDecomposition(presentation, tuple(sectors), dropped)


def chi_gamma_es(
    rec: RegularEquivariantComplex,
    presentation: Presentation,
    cap: int = DEFAULT_HOM_CAP,
) -> Fraction:
    return gamma_sectors(rec, presentation, cap=cap).chi_es()


def chi_gamma_top(
    rec: RegularEquivariantComplex,
    presentation: Presentation,
    cap: int = DEFAULT_HOM_CAP,
) -> int:
    return gamma_sectors(rec, presentation, cap=cap).chi_top()


def chi_m_top(rec: RegularEquivariantComplex, m: int, cap: int = DEFAULT_HOM_CAP) -> int:
    """chi_(m): the orbit-space Euler characteristic summed over Z^m-sectors."""
    if m == 0:
        return euler_characteristic(orbit_complex(rec))
    return chi_gamma_top(rec, free_abelian(m), cap=cap)


# ---------------------------------------------------------------------------
# structural identities as checkable reports


def iterate_sectors(
    rec: RegularEquivariantComplex,
    first: Presentation,
    second: Presentation,
    cap: int = DEFAULT_HOM_CAP,
) -> dict:
    """Sectors of sectors versus sectors of the product presentation.

    Computes the ``second``-sectors of every ``first``-sector and compares
    the resulting multiset of Euler-Satake contributions (and the count)
    with the sectors of first x second computed in one step.
    """
    outer = gamma_sectors(rec, first, cap=cap)
    nested = []
    iterated_values = []
    for sector in outer.sectors:
        inner = gamma_sectors(sector.fixed, second, cap=cap)
        nested.append(inner)
        iterated_values.extend(s.chi_es() for s in inner.sectors)
    combined = gamma_sectors(rec, product_presentation(first, second), cap=cap)
    direct_values = [s.chi_es() for s in combined.sectors]
    report = {
        "first": first.name,
        "second": second.name,
        "iterated_sector_count": len(iterated_values),
        "direct_sector_count": len(direct_values),
        "iterated_chi_es": str(sum(iterated_values, Fraction(0))),
        "direct_chi_es": str(sum(direct_values, Fraction(0))),
        "multisets_equal": sorted(iterated_values) == sorted(direct_values),
        "counts_equal": len(iterated_values) == len(direct_values),
    }
    report["equal"] = report["multisets_equal"] and report["counts_equal"]
    return report


def product_sectors_check(
    a: RegularEquivariantComplex,
    b: RegularEquivariantComplex,
    presentation: Presentation,
    cap: int = DEFAULT_HOM_CAP,
) -> dict:
    """Sector count and invariant multiplicativity for a product of quotients."""
    da = gamma_sectors(a, presentation, cap=cap)
    db = gamma_sectors(b, presentation, cap=cap)
    prod_ec, _group, _pairs = equivariant_product(a.ec, b.ec)
    dp = gamma_sectors(regularize(prod_ec), presentation, cap=cap)
    report = {
        "gamma": presentation.name,
        "sector_counts": [len(da.sectors), len(db.sectors), len(dp.sectors)],
        "counts_multiply": len(dp.sectors) == len(da.sectors) * len(db.sectors),
        "chi_es": [str(da.chi_es()), str(db.chi_es()), str(dp.chi_es())],
        "chi_es_multiplies": dp.chi_es() == da.chi_es() * db.chi_es(),
        "chi_top": [da.chi_top(), db.chi_top(), dp.chi_top()],
        "chi_top_multiplies": dp.chi_top() == da.chi_top() * db.chi_top(),
    }
    report["equal"] = (
        report["counts_multiply"]
        and report["chi_es_multiplies"]
        and report["chi_top_multiplies"]
    )
    return report


def trivial_extension_scaling_check(
    ec: EquivariantComplex, z: int, r: int, m: int, cap: int = DEFAULT_HOM_CAP
) -> dict:
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
    base_val = chi_m_top(regularize(ec), m, cap=cap)
    ext_val = chi_m_top(regularize(ext_ec), m, cap=cap)
    return {
        "r": r,
        "m": m,
        "base_chi_m": base_val,
        "extended_chi_m": ext_val,
        "expected": r**m * base_val,
        "equal": ext_val == r**m * base_val,
    }
