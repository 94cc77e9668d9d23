"""Simplicial group actions, regularization, quotients and fixed sets.

An EquivariantComplex is a complex together with a left action of a finite
group by simplicial automorphisms.  Most invariants are only computed on a
*regular* action, certified by ``regularize``; the certificate demands

  (1) a simplex preserved setwise is fixed vertexwise,
  (2) no simplex contains two distinct vertices of one orbit,
  (3) two simplices with the same image in the vertex-orbit quotient lie in
      the same orbit.

Condition (1) follows from (2), so only (2) and (3) are checked: if g
preserves s, then for each vertex v of s, g.v lies in s and in the orbit of
v, and by (2) the only such vertex is v itself.

Condition (3) is checked by counting.  Every image g.s lies over the same
vertex orbits as s, so the simplices over that image hold the orbit of s,
and they form that one orbit exactly when there are |G| / |G_s| of them.
Once (2) holds, the setwise stabilizer G_s fixes s vertexwise (the argument
above), so it is the intersection of its vertices' stabilizers: the AND of
per-vertex bit masks (bit g set when g fixes v), built only for vertices
of simplices that share an image with another.

Under (1) the isotropy group is constant on open simplices, so the
Euler-Satake sum over simplex orbits is well defined; under (2)+(3) the
orbit complex is a genuine simplicial complex triangulating the orbit
space.  Barycentric subdivision always restores the certificate: vertices
of a subdivision are simplices of the original, the action permutes them as
a poset, and an order automorphism that preserves a finite chain fixes it
elementwise.  Two rounds suffice for any simplicial action (the classical
regularity theorem for second subdivisions), and the wrapper records how
many rounds were used.
"""
from __future__ import annotations

import itertools
import math
from fractions import Fraction
from operator import itemgetter

from . import complexes
from .complexes import (
    SimplicialComplex,
    barycentric_subdivision,
    product_complex,
)
from .errors import (
    InputError,
    NotBijection,
    NotRegular,
    OrderCapExceeded,
    RegularizationFailed,
)
from .groups import FiniteGroup, direct_product, generators, orbit, orbits
from .wreath import (
    ExplicitWreath,
    WreathProduct,
    product_sums,
)


class EquivariantComplex:
    """A finite group acting simplicially on a complex."""

    __slots__ = ("cx", "group", "action", "_vpos")

    def __init__(self, cx: SimplicialComplex, group: FiniteGroup, action,
                 _skip_validation=False):
        self.cx = cx
        self.group = group
        self.action = tuple(tuple(row) for row in action)
        self._vpos = {v: i for i, v in enumerate(cx.vertices)}
        if not _skip_validation:
            self._validate()

    def _validate(self):
        nv = len(self.cx.vertices)
        if len(self.action) != self.group.order:
            raise InputError(
                f"action has {len(self.action)} rows, group has order {self.group.order}"
            )
        vset = set(self.cx.vertices)
        for g, row in enumerate(self.action):
            if len(row) != nv or set(row) != vset:
                raise NotBijection(f"action of element {g} is not a vertex bijection")
        # The rows form a homomorphism once rho(gh) = rho(g) rho(h) for g the
        # identity or a generator and every h: the g that pass are closed
        # under products, and at the identity the check makes rho(e) = 1.
        # Then every element is a word in the generators, so the generators
        # alone need to map simplices into the complex.
        gens = generators(self.group, self.group.elements())
        table, pos = self.group.table, self._vpos
        for g in [self.group.identity] + gens:
            row = self.action[g]
            for h, h_row in enumerate(self.action):
                if self.action[table[g][h]] != tuple([row[pos[v]] for v in h_row]):
                    raise InputError(
                        f"action is not a homomorphism at (g,h)=({g},{h})"
                    )
        simplices = set(self.cx.simplices)
        for s in self.cx.simplices:
            for g in gens:
                if self.map_simplex(g, s) not in simplices:
                    raise InputError(
                        f"element {g} maps simplex {s} outside the complex"
                    )

    def map_simplex(self, g: int, s: tuple) -> tuple:
        row = self.action[g]
        pos = self._vpos
        return tuple(sorted(row[pos[v]] for v in s))

    def vertex_orbits(self) -> list[tuple]:
        """The vertex orbits in order of least vertex, each read from the
        vertex's column of the action rows."""
        action, pos = self.action, self._vpos
        return orbits(self.cx.vertices, lambda v: set(map(itemgetter(pos[v]), action)))

    def __repr__(self):
        return f"EquivariantComplex(f={self.cx.f_vector()}, |G|={self.group.order})"


def trivial_action(cx: SimplicialComplex, group: FiniteGroup) -> EquivariantComplex:
    row = tuple(cx.vertices)
    return EquivariantComplex(
        cx, group, tuple(row for _ in group.elements()), _skip_validation=True
    )


def action_from_generator_maps(cx, group, maps: dict) -> EquivariantComplex:
    """Build the action table from vertex maps of a few elements.

    ``maps[g]`` is a dict (or aligned tuple) for element g; the remaining
    elements are derived by closing the pairs (element, vertex row) under
    the given ones.  Raises if the given maps are inconsistent with the
    group law, that is, if two rows reach one element.
    """
    n = len(cx.vertices)
    vpos = {v: i for i, v in enumerate(cx.vertices)}
    norm = []
    for g, m in maps.items():
        if isinstance(m, dict):
            row = tuple(m[v] for v in cx.vertices)
        else:
            row = tuple(m)
        if len(row) != n:
            raise InputError(f"vertex map for element {g} has wrong length")
        if not all(v in vpos for v in row):
            raise InputError(f"vertex map for element {g} leaves the complex")
        norm.append((g, row))

    def step(pair, generator):
        (h, row), (g, grow) = pair, generator
        return group.table[g][h], tuple(grow[vpos[v]] for v in row)

    # More pairs than elements means two rows for one element.
    start = (group.identity, tuple(cx.vertices))
    try:
        pairs = orbit(start, norm, step, cap=group.order)
    except OrderCapExceeded:
        raise InputError("generator maps are inconsistent") from None
    rows = dict(pairs)
    if len(rows) != len(pairs):
        raise InputError("generator maps are inconsistent")
    if len(rows) != group.order:
        raise InputError("given elements do not generate the group")
    return EquivariantComplex(
        cx, group, tuple(rows[g] for g in group.elements())
    )


# ---------------------------------------------------------------------------
# regularization


class RegularEquivariantComplex:
    """An EquivariantComplex whose action passed the regularity certificate,
    with its image classes: per simplex orbit, in complex order of first
    simplex, the sorted least vertices of the vertex orbits it lies over."""

    __slots__ = ("ec", "subdivision_rounds", "images")

    def __init__(self, ec: EquivariantComplex, subdivision_rounds: int, images):
        self.ec = ec
        self.subdivision_rounds = subdivision_rounds
        self.images = images

    @property
    def cx(self) -> SimplicialComplex:
        return self.ec.cx

    @property
    def group(self) -> FiniteGroup:
        return self.ec.group

    def __repr__(self):
        return (
            f"RegularEquivariantComplex(f={self.cx.f_vector()},"
            f" |G|={self.group.order}, rounds={self.subdivision_rounds})"
        )


def regularity_certificate(ec: EquivariantComplex) -> tuple:
    """(None, image classes) if the certificate holds, else (a short
    reason, None).  Under condition (3) the image classes are the simplex
    orbits."""
    orbit_of = {}
    for orbit in ec.vertex_orbits():
        for v in orbit:
            orbit_of[v] = orbit[0]
    # Condition (2) fails first on an edge: a simplex with two vertices of
    # one orbit holds the edge between them, and edges come first.
    label = orbit_of.__getitem__
    by_image: dict[tuple, list] = {}
    for s in ec.cx.simplices:
        image = tuple(sorted(map(label, s)))
        if len(s) == 2 and image[0] == image[1]:
            return f"simplex {s} meets a vertex orbit twice", None
        by_image.setdefault(image, []).append(s)
    # Condition (3) by orbit-stabilizer counts (see the module docstring).
    order = ec.group.order
    stabilizer: dict[int, int] = {}  # vertex -> bit g set iff g fixes it

    def vertex_stabilizer(v: int) -> int:
        mask = stabilizer.get(v)
        if mask is None:
            i = ec._vpos[v]
            mask = sum(1 << g for g, row in enumerate(ec.action) if row[i] == v)
            stabilizer[v] = mask
        return mask

    for image, group_of in by_image.items():
        if len(group_of) == 1:
            continue
        mask = -1
        for v in group_of[0]:
            mask &= vertex_stabilizer(v)
        if len(group_of) * mask.bit_count() != order:
            return f"simplices over {image} fall into several orbits", None
    return None, tuple(by_image)


def subdivide_equivariant(ec: EquivariantComplex) -> EquivariantComplex:
    """The action on the first subdivision: vertex i is simplex i, so each
    element's row is its simplex images."""
    sd = barycentric_subdivision(ec.cx)[0]
    return EquivariantComplex(sd, ec.group, _simplex_images(ec), _skip_validation=True)


def regularize(
    ec: EquivariantComplex, max_rounds: int = 2
) -> RegularEquivariantComplex:
    current = ec
    for rounds in range(max_rounds + 1):
        reason, images = regularity_certificate(current)
        if reason is None:
            return RegularEquivariantComplex(current, rounds, images)
        if rounds < max_rounds:
            current = subdivide_equivariant(current)
    raise RegularizationFailed(
        f"not regular after {max_rounds} subdivisions: {reason}"
    )


def _require_regular(rec) -> EquivariantComplex:
    if not isinstance(rec, RegularEquivariantComplex):
        raise NotRegular("operation requires a regularized equivariant complex")
    return rec.ec


# ---------------------------------------------------------------------------
# invariants of regular actions


def euler_satake(rec: RegularEquivariantComplex) -> Fraction:
    """Sum over simplex orbits of (-1)^dim / |isotropy|, which is chi(M) / |G|:
    by orbit-stabilizer an orbit's term (-1)^dim / |G_s| is the sum of
    (-1)^dim / |G| over its |G| / |G_s| simplices.  The checks that read it
    stay two computations: the ``verify exp`` left side walks the orbits and
    their stabilizers (``series._cell_blocks``), and ``verify products`` and
    ``wreath euler`` set chi of a triangulated product against the factors'.
    """
    ec = _require_regular(rec)
    return Fraction(complexes.euler_characteristic(ec.cx), ec.group.order)


def fixed_vertices(rec: RegularEquivariantComplex, elements) -> tuple:
    """The vertices fixed by every listed element, in vertex order, read
    column by column from the elements' action rows."""
    ec = _require_regular(rec)
    rows = [ec.action[g] for g in set(elements)]
    return tuple(
        col[0]
        for col in zip(ec.cx.vertices, *rows)
        if col.count(col[0]) == len(col)
    )


def fixed_subcomplex(rec: RegularEquivariantComplex, elements) -> SimplicialComplex:
    """Subcomplex of simplices fixed vertexwise by every listed element.

    Under the certificate this triangulates the common fixed-point set.
    Vertex ids are inherited from the parent complex.  It is the full
    subcomplex on ``fixed_vertices``: the parent complex itself when every
    vertex is fixed, else the simplices found in the fixed vertices'
    least-vertex lists, so the cost follows the fixed vertices' stars, not
    the complex.
    """
    fixed = fixed_vertices(rec, elements)
    cx = rec.cx
    if len(fixed) == len(cx.vertices):
        return cx
    inside = set(fixed)
    index = cx.by_least_vertex()
    simps = [s for v in fixed for s in index[v] if all(u in inside for u in s)]
    return SimplicialComplex(simps, _skip_validation=True)


def orbit_complex(rec: RegularEquivariantComplex) -> SimplicialComplex:
    """The quotient complex: vertices are vertex orbits, numbered in order
    of least vertex, and simplices are simplex orbits, read from the
    certificate's image classes.  Those name each vertex orbit by its least
    vertex, so numbering keeps every image sorted."""
    _require_regular(rec)
    label = {image[0]: i for i, image in enumerate(rec.images) if len(image) == 1}
    simps = [tuple([label[v] for v in image]) for image in rec.images]
    return SimplicialComplex(simps, _skip_validation=True)


# ---------------------------------------------------------------------------
# products and powers


def _simplex_images(ec: EquivariantComplex) -> list:
    """For each element g, the complex-order indices of the images g.s of
    the simplices s, in complex order."""
    simps = ec.cx.simplices
    sid = {s: i for i, s in enumerate(simps)}
    return [[sid[ec.map_simplex(g, s)] for s in simps] for g in ec.group.elements()]


def _coded_rows(cxs: list[SimplicialComplex], tuples: list, maps):
    """The vertex rows of factorwise maps on ``product_complex(cxs)``, whose
    poset tuples are ``tuples``, one row (a list) per map, yielded lazily.

    A map lists per factor j a pair (i, images): simplex x of factor j goes
    to simplex images[x] of factor i (simplex indices in complex order), so
    a permutation of equal factors moves factor j to slot i.  A tuple is
    coded by its simplex indices in mixed radix, the last factor fastest;
    the poset holds every tuple, so codes and vertex ids are in bijection,
    and a map's image codes are the ``product_sums`` of its columns.
    """
    sizes = [len(cx.simplices) for cx in cxs]
    weights = [math.prod(sizes[j + 1 :]) for j in range(len(cxs))]
    sids = [{s: x for x, s in enumerate(cx.simplices)} for cx in cxs]
    code_of = [sum([sid[s] * w for sid, s, w in zip(sids, t, weights)]) for t in tuples]
    vertex_of = [0] * len(tuples)
    for v, c in enumerate(code_of):
        vertex_of[c] = v
    for columns in maps:
        codes = product_sums([[y * weights[i] for y in images] for i, images in columns])
        yield [vertex_of[codes[c]] for c in code_of]


def equivariant_product(
    a: EquivariantComplex, b: EquivariantComplex
) -> tuple[EquivariantComplex, FiniteGroup, list]:
    """Product of two actions over the direct product group.

    Returns (equivariant complex, product group, element pairs).
    """
    cx, tuples = product_complex([a.cx, b.cx])
    prod, pairs = direct_product(a.group, b.group)
    ia, ib = _simplex_images(a), _simplex_images(b)
    rows = _coded_rows([a.cx, b.cx], tuples, ([(0, ia[g]), (1, ib[h])] for g, h in pairs))
    return (
        EquivariantComplex(cx, prod, tuple(rows), _skip_validation=True),
        prod,
        pairs,
    )


def power_with_wreath_action(
    rec: RegularEquivariantComplex, n: int
) -> tuple[EquivariantComplex, ExplicitWreath]:
    """The n-fold product with the wreath action: the tuple part acts
    factorwise, the permutation part permutes factors.

    For n = 1 the original complex is returned (the wreath product on one
    letter is the base group).  Both the complex size and the wreath group
    order are capped.
    """
    ec = _require_regular(rec)
    ew = WreathProduct(ec.group, n).to_group()
    if n == 1:
        return (
            EquivariantComplex(ec.cx, ew.group, ec.action, _skip_validation=True),
            ew,
        )
    cx, tuples = product_complex([ec.cx] * n)
    # (g, s) = (g, id) * (e, s): permute the factors, then act factorwise.
    ident = range(len(ec.cx.simplices))
    images = _simplex_images(ec)
    perms = sorted(itertools.permutations(range(n)))
    coded = _coded_rows([ec.cx] * n, tuples, itertools.chain(
        ([(p[j], ident) for j in range(n)] for p in perms),
        ([(j, images[x]) for j, x in enumerate(g)]
         for g in itertools.product(ec.group.elements(), repeat=n)),
    ))
    perm_rows = list(itertools.islice(coded, len(perms)))
    rows = []
    for comp in coded:
        rows.extend(tuple([comp[v] for v in prow]) for prow in perm_rows)
    return (
        EquivariantComplex(cx, ew.group, tuple(rows), _skip_validation=True),
        ew,
    )
