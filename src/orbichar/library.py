"""Bundled groups, complexes, actions, and Hodge datasets.

Everything the CLI accepts by name lives here, together with the example
suite that the verification battery runs over.  All builders return fresh
objects, so callers may mutate-by-wrapping freely.
"""

import json
import re
from fractions import Fraction

from .complexes import (
    SimplicialComplex,
    complex_from_json,
    from_maximal,
    staircase_product,
)
from .equivariant import (
    EquivariantComplex,
    RegularEquivariantComplex,
    regularize,
    trivial_action,
)
from .errors import InputError
from .groups import (
    FiniteGroup,
    cyclic_group,
    dihedral_group,
    symmetric_group,
    trivial_group,
)
from .hodge import BigradedDims, SectorHodgeDatum

# ---------------------------------------------------------------------------
# groups

GROUP_SPECS = ("trivial", "Z2", "Z3", "S3", "S4", "D4")

_GROUP_RE = re.compile(r"([ZSD])(\d+)$")


def builtin_group(spec: str) -> FiniteGroup:
    """A group from a short spec: ``trivial`` or ``Zn`` / ``Sn`` / ``Dn``."""
    if spec == "trivial":
        return trivial_group()
    m = _GROUP_RE.match(spec)
    if m:
        kind, n = m.group(1), int(m.group(2))
        if kind == "Z":
            return cyclic_group(n)
        if kind == "S":
            if n > 8:
                raise InputError(f"symmetric group spec {spec!r} is too large")
            return symmetric_group(n)
        return dihedral_group(n)
    raise InputError(
        f"unknown group spec {spec!r}; use one of {', '.join(GROUP_SPECS)}"
        " or general Zn / Sn / Dn"
    )


# ---------------------------------------------------------------------------
# complexes

COMPLEX_SPECS = ("point", "S0", "edge", "circle(k)", "octahedron", "torus")


def point() -> SimplicialComplex:
    return SimplicialComplex([(0,)])


def two_points() -> SimplicialComplex:
    """S^0: two isolated vertices."""
    return SimplicialComplex([(0,), (1,)])


def edge() -> SimplicialComplex:
    return from_maximal([(0, 1)])


def circle(k: int) -> SimplicialComplex:
    """The k-gon (k >= 3 vertices, k edges)."""
    if k < 3:
        raise InputError(f"circle needs at least 3 vertices, got {k}")
    return from_maximal([(i, (i + 1) % k) for i in range(k)])


def octahedron() -> SimplicialComplex:
    """Boundary of the octahedron; vertex pairs (0,1), (2,3), (4,5) are
    antipodal, so the 8 faces are the sign choices (±x, ±y, ±z)."""
    faces = [(a, b, c) for a in (0, 1) for b in (2, 3) for c in (4, 5)]
    return from_maximal(faces)


def torus() -> SimplicialComplex:
    """Staircase triangulation of circle(3) x circle(3): 9 vertices,
    27 edges, 18 triangles."""
    return staircase_product(circle(3), circle(3))


_CIRCLE_RE = re.compile(r"circle\((\d+)\)$")

_COMPLEX_BUILDERS = {
    "point": point,
    "S0": two_points,
    "edge": edge,
    "octahedron": octahedron,
    "torus": torus,
}


def builtin_complex(spec: str) -> SimplicialComplex:
    if spec in _COMPLEX_BUILDERS:
        return _COMPLEX_BUILDERS[spec]()
    m = _CIRCLE_RE.match(spec)
    if m:
        return circle(int(m.group(1)))
    raise InputError(
        f"unknown complex spec {spec!r}; use one of {', '.join(COMPLEX_SPECS)}"
    )


# ---------------------------------------------------------------------------
# bundled equivariant complexes

def _involution(cx: SimplicialComplex, images: dict) -> EquivariantComplex:
    group = cyclic_group(2)
    row = tuple(images.get(v, v) for v in cx.vertices)
    return EquivariantComplex(cx, group, (tuple(cx.vertices), row))


def point_trivial() -> RegularEquivariantComplex:
    return regularize(trivial_action(point(), trivial_group()))


def point_z2() -> RegularEquivariantComplex:
    return regularize(trivial_action(point(), cyclic_group(2)))


def point_s3() -> RegularEquivariantComplex:
    return regularize(trivial_action(point(), symmetric_group(3)))


def s0_swap() -> RegularEquivariantComplex:
    """Z/2 exchanging the two points of S^0 (free)."""
    return regularize(_involution(two_points(), {0: 1, 1: 0}))


def edge_swap() -> RegularEquivariantComplex:
    """Z/2 flipping an edge end-for-end; one subdivision makes it regular."""
    return regularize(_involution(edge(), {0: 1, 1: 0}))


def circle4_rotation() -> RegularEquivariantComplex:
    """Z/2 rotating the square by a half turn (free, needs one subdivision)."""
    cx = circle(4)
    return regularize(_involution(cx, {v: (v + 2) % 4 for v in cx.vertices}))


def octahedron_antipodal() -> RegularEquivariantComplex:
    """The free antipodal Z/2 action; the orbit complex is a projective
    plane."""
    return regularize(_involution(octahedron(), {0: 1, 1: 0, 2: 3, 3: 2, 4: 5, 5: 4}))


def octahedron_reflection() -> RegularEquivariantComplex:
    """Z/2 reflecting through the equatorial plane; the fixed set is the
    equatorial square (a circle, so its Euler characteristic vanishes)."""
    return regularize(_involution(octahedron(), {4: 5, 5: 4}))


def torus_trivial() -> RegularEquivariantComplex:
    return regularize(trivial_action(torus(), trivial_group()))


EQUIVARIANT_PRESETS = {
    "point-trivial": point_trivial,
    "point-Z2": point_z2,
    "point-S3": point_s3,
    "S0-swap": s0_swap,
    "edge-swap": edge_swap,
    "circle4-rotation": circle4_rotation,
    "octahedron-antipodal": octahedron_antipodal,
    "octahedron-reflection": octahedron_reflection,
    "torus-trivial": torus_trivial,
}

SUITE_NAMES = tuple(EQUIVARIANT_PRESETS)


def builtin_equivariant(name: str) -> RegularEquivariantComplex:
    try:
        builder = EQUIVARIANT_PRESETS[name]
    except KeyError:
        raise InputError(
            f"unknown equivariant preset {name!r};"
            f" use one of {', '.join(SUITE_NAMES)}"
        ) from None
    return builder()


def suite() -> list:
    """The bundled equivariant complexes as (name, complex) pairs."""
    return [(name, EQUIVARIANT_PRESETS[name]()) for name in SUITE_NAMES]


# Pairs whose products stay small enough for exhaustive sector checks.
PRODUCT_PAIRS = (
    ("point-Z2", "point-S3"),
    ("point-S3", "S0-swap"),
    ("S0-swap", "S0-swap"),
    ("S0-swap", "edge-swap"),
    ("S0-swap", "circle4-rotation"),
    ("edge-swap", "circle4-rotation"),
    ("point-Z2", "octahedron-antipodal"),
    ("S0-swap", "octahedron-reflection"),
)


# ---------------------------------------------------------------------------
# JSON input

def equivariant_from_json(data, group: FiniteGroup) -> EquivariantComplex:
    """Build an action from ``{"vertices", "maximal_simplices", "action"}``.

    ``action`` maps element labels to vertex-image lists, aligned with the
    complex's vertex order.  Maps may be given for a generating subset; the
    identity is always implied.
    """
    cx = complex_from_json(data)
    if "action" not in data:
        return trivial_action(cx, group)
    action = data["action"]
    if not isinstance(action, dict):
        raise InputError("'action' must map group element labels to vertex lists")
    by_label = {group.label(g): g for g in group.elements()}
    maps = {}
    for label, row in action.items():
        if label not in by_label:
            raise InputError(f"action names unknown group element {label!r}")
        if not isinstance(row, list):
            raise InputError(f"action of {label!r} must be a list of vertex images")
        maps[by_label[label]] = tuple(row)
    from .equivariant import action_from_generator_maps

    return action_from_generator_maps(cx, group, maps)


def load_equivariant(spec: str, group_spec: str | None) -> RegularEquivariantComplex:
    """Resolve a --complex/--group pair to a regular equivariant complex.

    ``spec`` may be a bundled preset name, a bundled complex name (the
    group then acts trivially), or a path to a JSON file; JSON files may
    carry an ``action`` table for the named group.
    """
    if spec in EQUIVARIANT_PRESETS:
        if group_spec is not None:
            raise InputError(
                f"preset {spec!r} fixes its own group; drop --group"
            )
        return EQUIVARIANT_PRESETS[spec]()
    group = builtin_group(group_spec) if group_spec else trivial_group()
    try:
        cx = builtin_complex(spec)
    except InputError:
        if not spec.endswith(".json"):
            raise
        with open(spec) as fh:
            data = json.load(fh)
        return regularize(equivariant_from_json(data, group))
    return regularize(trivial_action(cx, group))


# ---------------------------------------------------------------------------
# Hodge datasets

def _dims(table: dict) -> BigradedDims:
    return BigradedDims.from_dict(table)


def hodge_datasets() -> dict:
    """Bundled sector datasets as name -> (data tuple, ambient dimension)."""
    h00 = _dims({(0, 0): 1})
    half = Fraction(1, 2)
    return {
        # one sector of a point: the partition-number series
        "point-trivial": ((SectorHodgeDatum("e", 0, h00, (), 0),), 0),
        # pt x Z/2: two point sectors, both with shift 0
        "point-Z2": (
            (
                SectorHodgeDatum("e", 0, h00, (), 0),
                SectorHodgeDatum("g", 0, h00, (), 0),
            ),
            0,
        ),
        # a surface sector plus an isolated fixed point with shift 1
        "two-sector-shifted": (
            (
                SectorHodgeDatum("e", 0, h00, (), 2),
                SectorHodgeDatum("g", 0, h00, (half, half), 0),
            ),
            2,
        ),
        # the full Hodge diamond of an abelian surface (odd classes exercise
        # the sign bookkeeping)
        "abelian-surface": (
            (
                SectorHodgeDatum(
                    "e",
                    0,
                    _dims(
                        {
                            (0, 0): 1,
                            (1, 0): 2,
                            (0, 1): 2,
                            (2, 0): 1,
                            (1, 1): 4,
                            (0, 2): 1,
                            (2, 1): 2,
                            (1, 2): 2,
                            (2, 2): 1,
                        }
                    ),
                    (),
                    2,
                ),
            ),
            2,
        ),
    }


def hodge_dataset_from_json(data) -> tuple:
    """Parse ``{"d": int, "sectors": [...]}`` into (data tuple, d)."""
    from .hodge import sector_data_from_json

    if not isinstance(data, dict) or "sectors" not in data or "d" not in data:
        raise InputError("hodge dataset needs 'd' and 'sectors' fields")
    return sector_data_from_json(data["sectors"]), int(data["d"])
