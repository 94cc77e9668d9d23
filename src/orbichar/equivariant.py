"""Simplicial group actions, regularization, quotients and fixed sets.

An EquivariantComplex is a complex together with a left action of a finite
group by simplicial automorphisms.  Most invariants are only computed on a
*regular* action, certified by ``regularize``; the certificate demands

  (1) a simplex preserved setwise is fixed vertexwise,
  (2) no simplex contains two distinct vertices of one orbit,
  (3) two simplices with the same image in the vertex-orbit quotient lie in
      the same orbit.

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
from fractions import Fraction

from .complexes import (
    SimplicialComplex,
    _chains_of_poset,
    barycentric_subdivision,
    DEFAULT_SIMPLEX_CAP,
)
from .errors import (
    InputError,
    NotBijection,
    NotRegular,
    RegularizationFailed,
    SizeCapExceeded,
)
from .groups import FiniteGroup, direct_product, subgroup
from .wreath import ExplicitWreath, WreathProduct


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
        for g in self.group.elements():
            for h in self.group.elements():
                gh = self.group.table[g][h]
                for i, v in enumerate(self.cx.vertices):
                    if self.action[gh][i] != self.apply(g, self.action[h][i]):
                        raise InputError(
                            f"action is not a homomorphism at (g,h)=({g},{h})"
                        )
        for s in self.cx.simplices:
            for g in self.group.elements():
                if self.map_simplex(g, s) not in self.cx.simplex_set:
                    raise InputError(
                        f"element {g} maps simplex {s} outside the complex"
                    )

    def apply(self, g: int, v: int) -> int:
        return self.action[g][self._vpos[v]]

    def map_simplex(self, g: int, s: tuple) -> tuple:
        row = self.action[g]
        pos = self._vpos
        return tuple(sorted(row[pos[v]] for v in s))

    def vertex_orbits(self) -> list[tuple]:
        seen = set()
        orbits = []
        for v in self.cx.vertices:
            if v in seen:
                continue
            orbit = {self.apply(g, v) for g in self.group.elements()}
            seen.update(orbit)
            orbits.append(tuple(sorted(orbit)))
        return orbits

    def simplex_orbits(self) -> list[tuple]:
        seen = set()
        orbits = []
        for s in self.cx.simplices:
            if s in seen:
                continue
            orbit = {self.map_simplex(g, s) for g in self.group.elements()}
            seen.update(orbit)
            orbits.append(tuple(sorted(orbit, key=lambda t: (len(t), t))))
        return orbits

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
    elements are derived by composing along a breadth-first closure.  Raises
    if the given maps are inconsistent with the group law.
    """
    n = len(cx.vertices)
    vpos = {v: i for i, v in enumerate(cx.vertices)}
    rows: dict[int, tuple] = {group.identity: tuple(cx.vertices)}
    norm = {}
    for g, m in maps.items():
        if isinstance(m, dict):
            row = tuple(m[v] for v in cx.vertices)
        else:
            row = tuple(m)
        if len(row) != n:
            raise InputError(f"vertex map for element {g} has wrong length")
        if not all(v in vpos for v in row):
            raise InputError(f"vertex map for element {g} leaves the complex")
        norm[g] = row
    rows.update(norm)
    frontier = list(rows)
    while frontier:
        h = frontier.pop()
        for g, grow in norm.items():
            gh = group.table[g][h]
            comp = tuple(grow[vpos[v]] for v in rows[h])
            if gh in rows:
                if rows[gh] != comp:
                    raise InputError("generator maps are inconsistent")
            else:
                rows[gh] = comp
                frontier.append(gh)
    if len(rows) != group.order:
        raise InputError("given elements do not generate the group")
    return EquivariantComplex(
        cx, group, tuple(rows[g] for g in group.elements())
    )


# ---------------------------------------------------------------------------
# regularization


class RegularEquivariantComplex:
    """An EquivariantComplex whose action passed the regularity certificate."""

    __slots__ = ("ec", "subdivision_rounds")

    def __init__(self, ec: EquivariantComplex, subdivision_rounds: int):
        self.ec = ec
        self.subdivision_rounds = subdivision_rounds

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


def regularity_failure(ec: EquivariantComplex) -> str | None:
    """None if the certificate holds, else a short reason."""
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
    by_image: dict[tuple, list] = {}
    for s in ec.cx.simplices:
        by_image.setdefault(tuple(sorted(orbit_of[v] for v in s)), []).append(s)
    for image, group_of in by_image.items():
        if len(group_of) == 1:
            continue
        orbit = {ec.map_simplex(g, group_of[0]) for g in elements}
        if set(group_of) != orbit:
            return f"simplices over {image} fall into several orbits"
    return None


def subdivide_equivariant(ec: EquivariantComplex) -> EquivariantComplex:
    sd, vertex_of = barycentric_subdivision(ec.cx)
    simps = ec.cx.simplices
    action = tuple(
        tuple(vertex_of[ec.map_simplex(g, simps[i])] for i in sd.vertices)
        for g in ec.group.elements()
    )
    return EquivariantComplex(sd, ec.group, action, _skip_validation=True)


def regularize(
    ec: EquivariantComplex, max_rounds: int = 2
) -> RegularEquivariantComplex:
    current = ec
    for rounds in range(max_rounds + 1):
        if regularity_failure(current) is None:
            return RegularEquivariantComplex(current, rounds)
        if rounds < max_rounds:
            current = subdivide_equivariant(current)
    raise RegularizationFailed(
        f"not regular after {max_rounds} subdivisions: "
        f"{regularity_failure(current)}"
    )


def _require_regular(rec) -> EquivariantComplex:
    if not isinstance(rec, RegularEquivariantComplex):
        raise NotRegular("operation requires a regularized equivariant complex")
    return rec.ec


# ---------------------------------------------------------------------------
# invariants of regular actions


def euler_satake(rec: RegularEquivariantComplex) -> Fraction:
    """Sum over simplex orbits of (-1)^dim / |isotropy|."""
    ec = _require_regular(rec)
    elements = range(ec.group.order)
    seen = set()
    total = Fraction(0)
    for s in ec.cx.simplices:
        if s in seen:
            continue
        images = [ec.map_simplex(g, s) for g in elements]
        stab = sum(1 for t in images if t == s)
        seen.update(images)
        total += Fraction((-1) ** (len(s) - 1), stab)
    return total


def euler_satake_subcomplex(rec: RegularEquivariantComplex, simplices) -> Fraction:
    """Euler-Satake sum restricted to an invariant subcomplex."""
    ec = _require_regular(rec)
    subset = set(simplices)
    for s in subset:
        if s not in ec.cx.simplex_set:
            raise InputError(f"{s} is not a simplex of the complex")
        for i in range(len(s)):
            if len(s) > 1 and s[:i] + s[i + 1 :] not in subset:
                raise InputError(f"subset is not closed under faces at {s}")
    elements = range(ec.group.order)
    seen = set()
    total = Fraction(0)
    for s in sorted(subset, key=lambda t: (len(t), t)):
        if s in seen:
            continue
        images = [ec.map_simplex(g, s) for g in elements]
        if any(t not in subset for t in images):
            raise InputError("subset is not invariant under the action")
        stab = sum(1 for t in images if t == s)
        seen.update(images)
        total += Fraction((-1) ** (len(s) - 1), stab)
    return total


def fixed_subcomplex(rec: RegularEquivariantComplex, elements) -> SimplicialComplex:
    """Subcomplex of simplices fixed vertexwise by every listed element.

    Under the certificate this triangulates the common fixed-point set.
    Vertex ids are inherited from the parent complex.
    """
    ec = _require_regular(rec)
    els = sorted(set(elements))
    fixed_vertices = {
        v for v in ec.cx.vertices if all(ec.apply(g, v) == v for g in els)
    }
    simps = [s for s in ec.cx.simplices if all(v in fixed_vertices for v in s)]
    return SimplicialComplex(simps, _skip_validation=True)


def orbit_complex(rec: RegularEquivariantComplex) -> SimplicialComplex:
    """The quotient complex: vertices are vertex orbits, simplices are
    simplex orbits.  Needs the full certificate."""
    ec = _require_regular(rec)
    orbits = ec.vertex_orbits()
    label = {}
    for i, orbit in enumerate(orbits):
        for v in orbit:
            label[v] = i
    simps = {tuple(sorted(label[v] for v in s)) for s in ec.cx.simplices}
    return SimplicialComplex(simps, _skip_validation=True)


def restrict_to_subgroup(
    rec: RegularEquivariantComplex, elements
) -> tuple[EquivariantComplex, FiniteGroup, tuple]:
    """The same complex under the action of a subgroup (reindexed).

    Returns (equivariant complex, subgroup, carrier) where carrier maps
    subgroup indices back to parent-group elements.
    """
    ec = _require_regular(rec)
    sub, carrier = subgroup(ec.group, elements)
    action = tuple(ec.action[carrier[i]] for i in range(sub.order))
    return EquivariantComplex(ec.cx, sub, action, _skip_validation=True), sub, carrier


# ---------------------------------------------------------------------------
# products and powers


def _poset_elements(cxs: list[SimplicialComplex], cap: int):
    """Elements of the product face poset, topologically sorted, with ids."""
    total = 1
    for cx in cxs:
        total *= len(cx.simplices)
    if total > cap:
        raise SizeCapExceeded(f"product poset has {total} cells, cap {cap}")
    tuples = sorted(
        itertools.product(*[cx.simplices for cx in cxs]),
        key=lambda t: (sum(len(s) for s in t), t),
    )
    return tuples, {t: i for i, t in enumerate(tuples)}


def _tuple_predecessors(t: tuple, ids: dict):
    """Strict predecessors of a poset tuple: componentwise faces."""
    options = []
    for s in t:
        m = len(s)
        faces = [
            tuple(s[i] for i in range(m) if mask >> i & 1)
            for mask in range(1, 1 << m)
        ]
        options.append(faces)
    for combo in itertools.product(*options):
        if combo != t:
            yield ids[combo]


def product_complex(
    cxs: list[SimplicialComplex], cap: int = DEFAULT_SIMPLEX_CAP
) -> tuple[SimplicialComplex, list]:
    """Order complex of the product face poset: a triangulation of the
    product of the factors on which factor-permuting and factorwise actions
    are simplicial.  Returns (complex, poset tuples by vertex id)."""
    tuples, ids = _poset_elements(cxs, cap)
    chains = _chains_of_poset(
        range(len(tuples)),
        lambda i: _tuple_predecessors(tuples[i], ids),
        cap=cap,
    )
    return SimplicialComplex(chains, _skip_validation=True), tuples


def equivariant_product(
    a: EquivariantComplex, b: EquivariantComplex, cap: int = DEFAULT_SIMPLEX_CAP
) -> tuple[EquivariantComplex, FiniteGroup, list]:
    """Product of two actions over the direct product group.

    Returns (equivariant complex, product group, element pairs).
    """
    cx, tuples = product_complex([a.cx, b.cx], cap=cap)
    ids = {t: i for i, t in enumerate(tuples)}
    prod, pairs = direct_product(a.group, b.group)
    rows = []
    for (g, h) in pairs:
        rows.append(
            tuple(
                ids[(a.map_simplex(g, s), b.map_simplex(h, t))]
                for (s, t) in tuples
            )
        )
    return (
        EquivariantComplex(cx, prod, tuple(rows), _skip_validation=True),
        prod,
        pairs,
    )


def power_with_wreath_action(
    rec: RegularEquivariantComplex,
    n: int,
    order_cap: int = 10**6,
    simplex_cap: int = DEFAULT_SIMPLEX_CAP,
) -> tuple[EquivariantComplex, ExplicitWreath]:
    """The n-fold product with the wreath action: the tuple part acts
    factorwise, the permutation part permutes factors.

    For n = 1 the original complex is returned (the wreath product on one
    letter is the base group).  Both the complex size and the wreath group
    order are capped.
    """
    ec = _require_regular(rec)
    wreath = WreathProduct(ec.group, n)
    ew = wreath.to_group(order_cap=order_cap)
    if n == 1:
        rows = tuple(
            tuple(ec.apply(w.components[0], v) for v in ec.cx.vertices)
            for w in ew.elements
        )
        return (
            EquivariantComplex(ec.cx, ew.group, rows, _skip_validation=True),
            ew,
        )
    cx, tuples = product_complex([ec.cx] * n, cap=simplex_cap)
    ids = {t: i for i, t in enumerate(tuples)}
    rows = []
    for w in ew.elements:
        sinv = [0] * n
        for i, v in enumerate(w.perm):
            sinv[v] = i
        row = []
        for t in tuples:
            image = tuple(
                ec.map_simplex(w.components[i], t[sinv[i]]) for i in range(n)
            )
            row.append(ids[image])
        rows.append(tuple(row))
    return (
        EquivariantComplex(cx, ew.group, tuple(rows), _skip_validation=True),
        ew,
    )


def power_with_product_action(
    rec: RegularEquivariantComplex,
    n: int,
    order_cap: int = 10**6,
    simplex_cap: int = DEFAULT_SIMPLEX_CAP,
) -> EquivariantComplex:
    """The same n-fold product complex under G^n only (no factor mixing).

    The wreath-power complex is an n!-fold quotient of this one, which is
    what the covering-multiplicativity tests exercise.
    """
    ec = _require_regular(rec)
    group = ec.group
    if group.order**n > order_cap:
        raise SizeCapExceeded(f"product group order {group.order**n} exceeds cap")
    prod = group
    for _ in range(n - 1):
        prod, _pairs = direct_product(prod, group)
    # iterated direct_product indexing is mixed-radix, i.e. itertools order
    pairs = list(itertools.product(group.elements(), repeat=n))
    cx, tuples = product_complex([ec.cx] * n, cap=simplex_cap)
    ids = {t: i for i, t in enumerate(tuples)}
    rows = []
    for combo in pairs:
        row = tuple(
            ids[tuple(ec.map_simplex(combo[i], t[i]) for i in range(n))]
            for t in tuples
        )
        rows.append(row)
    return EquivariantComplex(cx, prod, tuple(rows), _skip_validation=True)


# ---------------------------------------------------------------------------
# induced maps on homology (used by the averaging cross-checks)


def homology_traces(rec: RegularEquivariantComplex, k: int) -> list[Fraction]:
    """Trace of every group element on H_k(X; Q).

    Orientation signs come from the parity of the permutation each element
    induces on the sorted vertex list of a simplex.
    """
    from .complexes import homology_basis, _solve_in_basis

    ec = _require_regular(rec)
    simps_k = ec.cx.simplices_of_dim(k)
    pos = {s: i for i, s in enumerate(simps_k)}
    gens, boundary = homology_basis(ec.cx, k)
    if not gens:
        return [Fraction(0)] * ec.group.order
    basis = boundary + gens
    traces = []
    for g in range(ec.group.order):
        mapped = []
        for z in gens:
            out = [Fraction(0)] * len(simps_k)
            for i, c in enumerate(z):
                if not c:
                    continue
                s = simps_k[i]
                vs = [ec.apply(g, v) for v in s]
                sign = _sort_sign(vs)
                out[pos[tuple(sorted(vs))]] += c * sign
            mapped.append(out)
        coords = _solve_in_basis(basis, mapped)
        nb = len(boundary)
        traces.append(sum(coords[i][nb + i] for i in range(len(gens))))
    return traces


def _sort_sign(values: list) -> int:
    sign = 1
    vals = list(values)
    for i in range(len(vals)):
        for j in range(len(vals) - 1 - i):
            if vals[j] > vals[j + 1]:
                vals[j], vals[j + 1] = vals[j + 1], vals[j]
                sign = -sign
    return sign
