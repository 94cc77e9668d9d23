"""Sector decompositions of a global quotient by a finitely presented group.

For a regular action of G on X and a presentation P, the P-sectors are
indexed by conjugacy classes of homomorphisms P -> G whose common fixed
subcomplex is nonempty; each sector is that fixed subcomplex together with
the action of the centralizer of the image.  Two generalized invariants are
read off the decomposition:

* chi_es: the sum of Euler-Satake characteristics of the sectors,
* chi_top: the sum of Euler characteristics of their orbit spaces.

A sector is determined by its fixed vertex set and its centralizer: its
complex is the full subcomplex on the fixed vertices, and its action is
the parent's action of the centralizer restricted to them.  So within one
decomposition each distinct (fixed vertices, centralizer) pair is built
and regularized once, the classes that share it share that one sector
complex, and each invariant is computed once per shared complex.  The
identity class's sector (every vertex fixed, centralizer G) is the
parent's record itself, so its certificate is not run again.

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
    fixed_vertices,
    orbit_complex,
    regularize,
)
from .errors import InputError
from .groups import FiniteGroup, abelian_subgroups, subgroup
from .homs import (
    HomClass,
    Presentation,
    hom_classes,
    hom_orbits,
    product_presentation,
)


@dataclass(frozen=True)
class Sector:
    hom_class: HomClass
    fixed: RegularEquivariantComplex  # over the reindexed centralizer

    def chi_es(self) -> Fraction:
        return euler_satake(self.fixed)

    def chi_top(self) -> int:
        return euler_characteristic(orbit_complex(self.fixed))


@dataclass(frozen=True)
class SectorDecomposition:
    presentation: Presentation
    sectors: tuple
    dropped_classes: int

    def per_sector(self, invariant) -> list:
        """``invariant(s)`` for every sector s, computed once per shared
        sector complex."""
        values = {}
        out = []
        for s in self.sectors:
            key = id(s.fixed)
            if key not in values:
                values[key] = invariant(s)
            out.append(values[key])
        return out

    def chi_es(self) -> Fraction:
        return sum(self.per_sector(Sector.chi_es), Fraction(0))

    def chi_top(self) -> int:
        return sum(self.per_sector(Sector.chi_top))

    def report(self, group: FiniteGroup) -> dict:
        es = self.per_sector(Sector.chi_es)
        top = self.per_sector(Sector.chi_top)
        return {
            "gamma": self.presentation.name
            or f"<{self.presentation.generators} generators>",
            "sector_count": len(self.sectors),
            "dropped_classes": self.dropped_classes,
            "chi_gamma_es": str(sum(es, Fraction(0))),
            "chi_gamma_top": sum(top),
            "sectors": [
                {
                    "images": [group.label(x) for x in s.hom_class.representative.images],
                    "orbit_size": s.hom_class.orbit_size,
                    "centralizer_order": len(s.hom_class.centralizer),
                    "fixed_f_vector": s.fixed.cx.f_vector(),
                    "chi_es": str(s_es),
                    "chi_top": s_top,
                }
                for s, s_es, s_top in zip(self.sectors, es, top)
            ],
        }


def gamma_sectors(
    rec: RegularEquivariantComplex, presentation: Presentation
) -> SectorDecomposition:
    return _decomposition(rec, presentation, hom_classes(presentation, rec.group))


def _decomposition(
    rec: RegularEquivariantComplex, presentation: Presentation, classes
) -> SectorDecomposition:
    """The sectors of ``classes``, each distinct (fixed vertices,
    centralizer) pair built once (see the module docstring)."""
    ec = rec.ec
    # (fixed vertices, centralizer) -> sector complex; the sector that fixes
    # every vertex under all of G is the parent's own regular action
    built = {(rec.cx.vertices, tuple(range(rec.group.order))): rec}
    sectors = []
    dropped = 0
    for cls in classes:
        images, cent = cls.representative.images, cls.centralizer
        fixed = fixed_vertices(rec, images)
        if not fixed:
            dropped += 1
            continue
        shared = built.get((fixed, cent))
        if shared is None:
            # The centralizer acts as a subgroup whose table is built only
            # if something reads it.
            cx = fixed_subcomplex(rec, images)
            sub, carrier = subgroup(ec.group, cent)
            at = [ec._vpos[v] for v in cx.vertices]  # the fixed columns
            rows = tuple(tuple([ec.action[g][i] for i in at]) for g in carrier)
            sector_ec = EquivariantComplex(cx, sub, rows, _skip_validation=True)
            shared = built[fixed, cent] = regularize(sector_ec)
        sectors.append(Sector(cls, shared))
    return SectorDecomposition(presentation, tuple(sectors), dropped)


def chi_gamma_es(rec: RegularEquivariantComplex, presentation: Presentation) -> Fraction:
    return gamma_sectors(rec, presentation).chi_es()


def chi_gamma_top(rec: RegularEquivariantComplex, presentation: Presentation) -> int:
    return gamma_sectors(rec, presentation).chi_top()


def chi_m_top(rec: RegularEquivariantComplex, m: int) -> int:
    """chi_(m): the orbit-space Euler characteristic summed over Z^m-sectors,
    read off the fixed subcomplexes of the abelian subgroups of G.

    The sector of a class of phi in Hom(Z^m, G) is X^<phi> acted on by the
    centralizer C of phi's image.  The action is regular, so by Burnside
    the sector's orbit space has chi (1/|C|) times the sum over g in C of
    chi(X^<phi, g>).  The class has |G|/|C| members, so summing over the
    classes gives (1/|G|) times the sum over psi in Hom(Z^(m+1), G) of
    chi(X^im psi) (Tamanoi's fixed-point form, Algebr. Geom. Topol. 1,
    2001).  Grouped by their image A, an abelian subgroup:

        chi_(m) = (1/|G|) sum over abelian A of e(A) chi(X^A),

    where e(A) = |Epi(Z^(m+1), A)| = |A|^(m+1) - sum over B < A of e(B),
    by Moebius inversion on the subgroups of A (P. Hall, "The Eulerian
    functions of a group", Quart. J. Math. 7, 1936).  So no homomorphism
    is walked, no sector is built and no class list is read.
    """
    if m < 0:
        raise InputError(f"m must be >= 0, got {m}")
    subgroups = abelian_subgroups(rec.group)
    # each subgroup B, filed under its greatest element, is found from any
    # subgroup that holds that element
    by_top = {}
    epi = []  # e(A) of the subgroups walked so far
    chis = {}  # fixed vertices -> chi of their fixed subcomplex
    total = 0
    for a, sub in enumerate(subgroups):
        below = sum(epi[b] for x in sub for b in by_top.get(x, ()) if subgroups[b] < sub)
        epi.append(len(sub) ** (m + 1) - below)
        by_top.setdefault(max(sub), []).append(a)
        fixed = fixed_vertices(rec, sub) if epi[a] else ()
        if fixed:
            if fixed not in chis:
                chis[fixed] = euler_characteristic(fixed_subcomplex(rec, sub))
            total += epi[a] * chis[fixed]
    chi, rest = divmod(total, rec.group.order)
    assert rest == 0, "the fixed-point sum is not divisible by |G|"
    return chi


# ---------------------------------------------------------------------------
# structural identities as checkable reports


def iterate_sectors(
    rec: RegularEquivariantComplex,
    first: Presentation,
    second: Presentation,
) -> dict:
    """Sectors of sectors versus sectors of the product presentation.

    Computes the ``second``-sectors of every ``first``-sector and compares
    the resulting multiset of Euler-Satake contributions (and the count)
    with the sectors of first x second computed in one step.

    The two sides stay two computations.  The iterated side walks classes
    of x_1, then orbits of x_2 under the sector's group C(x_1), which is
    also how ``hom_classes`` walks any presentation: that lemma is what
    this check tests.  So the direct side takes its classes from the orbit
    route, ``homs.hom_orbits``: every homomorphism of the product
    presentation, closed into G-orbits, under the same |G|^k cap.
    """
    outer = gamma_sectors(rec, first)
    iterated_values = []
    for values in outer.per_sector(
        lambda s: gamma_sectors(s.fixed, second).per_sector(Sector.chi_es)
    ):
        iterated_values.extend(values)
    product = product_presentation(first, second)
    combined = _decomposition(rec, product, hom_orbits(product, rec.group))
    direct_values = combined.per_sector(Sector.chi_es)
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
) -> dict:
    """Sector count and invariant multiplicativity for a product of quotients."""
    da = gamma_sectors(a, presentation)
    db = gamma_sectors(b, presentation)
    prod_ec, _group, _pairs = equivariant_product(a.ec, b.ec)
    dp = gamma_sectors(regularize(prod_ec), presentation)
    es = [d.chi_es() for d in (da, db, dp)]
    top = [d.chi_top() for d in (da, db, dp)]
    report = {
        "gamma": presentation.name,
        "sector_counts": [len(da.sectors), len(db.sectors), len(dp.sectors)],
        "counts_multiply": len(dp.sectors) == len(da.sectors) * len(db.sectors),
        "chi_es": [str(x) for x in es],
        "chi_es_multiplies": es[2] == es[0] * es[1],
        "chi_top": top,
        "chi_top_multiplies": top[2] == top[0] * top[1],
    }
    report["equal"] = (
        report["counts_multiply"]
        and report["chi_es_multiplies"]
        and report["chi_top_multiplies"]
    )
    return report
