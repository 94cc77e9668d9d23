"""Finite abstract simplicial complexes with exact rational homology.

A complex stores an explicit vertex id tuple plus the full downward-closed
simplex family (each simplex a sorted tuple of vertex ids, the family sorted
by dimension then lexicographically).  Vertex ids are arbitrary integers so
that subcomplexes can keep their parent's labels.

Betti numbers are computed over Q from integer boundary matrices using
sparse fraction-free Gaussian elimination; no floating point anywhere.
"""
from __future__ import annotations

from fractions import Fraction

from .errors import InputError, SizeCapExceeded

DEFAULT_SIMPLEX_CAP = 10**6


class SimplicialComplex:
    """Immutable abstract simplicial complex."""

    __slots__ = ("vertices", "simplices", "simplex_set")

    def __init__(self, simplices, vertices=None, _skip_validation=False):
        simps = sorted({tuple(sorted(s)) for s in simplices}, key=_simplex_key)
        if not _skip_validation:
            for s in simps:
                if len(set(s)) != len(s):
                    raise InputError(f"simplex {s} repeats a vertex")
                if len(s) == 0:
                    raise InputError("the empty simplex is not stored")
            have = set(simps)
            for s in simps:
                if len(s) > 1:
                    for i in range(len(s)):
                        face = s[:i] + s[i + 1 :]
                        if face not in have:
                            raise InputError(
                                f"family is not downward closed: {s} lacks {face}"
                            )
        self.simplices = tuple(simps)
        self.simplex_set = frozenset(simps)
        derived = tuple(sorted({v for s in simps for v in s}))
        if vertices is None:
            vertices = derived
        else:
            vertices = tuple(sorted(set(vertices)))
            if set(derived) - set(vertices):
                raise InputError("simplices mention vertices outside the vertex set")
        self.vertices = vertices

    # -- basic queries ----------------------------------------------------

    def dim(self) -> int:
        """Dimension; -1 for the empty complex."""
        if not self.simplices:
            return -1
        return len(self.simplices[-1]) - 1

    def simplices_of_dim(self, k: int) -> list:
        return [s for s in self.simplices if len(s) == k + 1]

    def f_vector(self) -> list:
        out = [0] * (self.dim() + 1)
        for s in self.simplices:
            out[len(s) - 1] += 1
        return out

    def __eq__(self, other):
        return (
            isinstance(other, SimplicialComplex)
            and self.vertices == other.vertices
            and self.simplices == other.simplices
        )

    def __hash__(self):
        return hash((self.vertices, self.simplices))

    def __repr__(self):
        return f"SimplicialComplex(f={self.f_vector()})"


def _simplex_key(s):
    return (len(s), s)


def from_maximal(maximal, vertices=None) -> SimplicialComplex:
    """Close a family of simplices downward."""
    simps = set()
    for s in maximal:
        s = tuple(sorted(set(s)))
        if not s:
            raise InputError("empty simplex in maximal family")
        # all nonempty subsets
        m = len(s)
        for mask in range(1, 1 << m):
            simps.add(tuple(s[i] for i in range(m) if mask >> i & 1))
    return SimplicialComplex(simps, vertices=vertices, _skip_validation=True)


def _vertex_ids(value, what: str) -> list:
    """``value`` if it is a list of integer vertex ids, else InputError."""
    if not isinstance(value, list) or not all(type(v) is int for v in value):
        raise InputError(
            f"{what} must be a list of integer vertex ids, got {value!r}"
        )
    return value


def complex_from_json(data) -> SimplicialComplex:
    if not isinstance(data, dict) or "maximal_simplices" not in data:
        raise InputError("complex spec needs a 'maximal_simplices' field")
    maximal = data["maximal_simplices"]
    if not isinstance(maximal, list):
        raise InputError("'maximal_simplices' must be a list of simplices")
    for s in maximal:
        _vertex_ids(s, "a maximal simplex")
    vertices = None
    if "vertices" in data:
        v = data["vertices"]
        vertices = range(v) if type(v) is int else _vertex_ids(v, "'vertices'")
    if not maximal and vertices is not None:
        return SimplicialComplex([(x,) for x in vertices])
    return from_maximal(maximal, vertices=vertices)


def euler_characteristic(cx: SimplicialComplex) -> int:
    return sum((-1) ** (len(s) - 1) for s in cx.simplices)


# ---------------------------------------------------------------------------
# subdivision


def barycentric_subdivision(cx: SimplicialComplex):
    """First barycentric subdivision.

    New vertex i is simplex ``cx.simplices[i]``; simplices are the chains of
    the face partial order.  Returns (subdivision, vertex_of_simplex dict).
    """
    vertex_of = {s: i for i, s in enumerate(cx.simplices)}
    chains = _chains_of_poset(
        list(range(len(cx.simplices))),
        lambda i: _proper_faces(cx.simplices[i], vertex_of),
    )
    sd = SimplicialComplex(chains, _skip_validation=True)
    return sd, vertex_of


def _proper_faces(s, vertex_of):
    m = len(s)
    out = []
    for mask in range(1, (1 << m) - 1):
        f = tuple(s[i] for i in range(m) if mask >> i & 1)
        out.append(vertex_of[f])
    return out


def _chains_of_poset(elements, predecessors, cap: int = DEFAULT_SIMPLEX_CAP):
    """All nonempty chains of a finite poset, as sorted tuples of elements.

    ``predecessors(e)`` lists the strict predecessors of e.  Elements must
    be comparable ints (chains are emitted as sorted tuples, which is safe
    because predecessor ids are always generated before their successors).
    """
    chains_ending = {}
    out = []
    total = 0
    for e in elements:
        mine = [(e,)]
        for p in predecessors(e):
            for ch in chains_ending[p]:
                mine.append(ch + (e,))
        chains_ending[e] = mine
        total += len(mine)
        if total > cap:
            raise SizeCapExceeded(
                f"chain enumeration exceeds simplex cap {cap}"
            )
        out.extend(mine)
    return out


# ---------------------------------------------------------------------------
# products


def staircase_product(x: SimplicialComplex, y: SimplicialComplex) -> SimplicialComplex:
    """The ordered (staircase) triangulation of |X| x |Y|.

    Vertices are pairs encoded as ``xi * (max_y + 1) + yi`` in the input
    vertex orders; simplices are the monotone chains of vertex pairs lying
    over a pair of simplices.  Requires the natural integer order on the
    vertex ids of both factors.
    """
    if not x.vertices or not y.vertices:
        return SimplicialComplex([])
    stride = max(y.vertices) + 1

    def enc(u, v):
        return u * stride + v

    simps = set()
    for sx in x.simplices:
        for sy in y.simplices:
            # all monotone staircase paths (chains in the grid poset)
            pairs = [(u, v) for u in sx for v in sy]
            pairs.sort()
            _grid_chains(pairs, sx, sy, enc, simps)
    return SimplicialComplex(simps, _skip_validation=True)


def _grid_chains(pairs, sx, sy, enc, out):
    n = len(pairs)
    le = {}
    for i in range(n):
        for j in range(n):
            (a, b), (c, d) = pairs[i], pairs[j]
            le[i, j] = (a <= c and b <= d) and (i != j)
    chains_ending = [[] for _ in range(n)]
    for j in range(n):
        mine = [(j,)]
        for i in range(n):
            if le[i, j]:
                for ch in chains_ending[i]:
                    mine.append(ch + (j,))
        chains_ending[j] = mine
        for ch in mine:
            out.add(tuple(sorted(enc(*pairs[k]) for k in ch)))


# ---------------------------------------------------------------------------
# exact homology


def boundary_matrix(cx: SimplicialComplex, k: int) -> tuple[dict, int, int]:
    """Sparse boundary map from k-simplices to (k-1)-simplices.

    Returns (columns, nrows, ncols) where columns[j] is a dict row -> +-1.
    Orientations come from sorted vertex order.
    """
    if k == 0:
        # Vertices map to the zero space (no augmentation).
        return {j: {} for j in range(len(cx.simplices_of_dim(0)))}, 0, len(
            cx.simplices_of_dim(0)
        )
    rows = {s: i for i, s in enumerate(cx.simplices_of_dim(k - 1))}
    cols = cx.simplices_of_dim(k)
    columns = {}
    for j, s in enumerate(cols):
        col = {}
        for i in range(len(s)):
            face = s[:i] + s[i + 1 :]
            col[rows[face]] = 1 if i % 2 == 0 else -1
        columns[j] = col
    return columns, len(rows), len(cols)


def _sparse_rank(columns: dict, nrows: int) -> int:
    """Rank over Q of a sparse integer matrix by column elimination."""
    pivots: dict = {}  # pivot row -> normalized column (dict row -> Fraction)
    rank = 0
    for j in sorted(columns):
        col = {r: Fraction(v) for r, v in columns[j].items() if v}
        while col:
            # eliminate against existing pivots, largest support first
            r = min(col)
            if r in pivots:
                coef = col[r]
                for rr, vv in pivots[r].items():
                    nv = col.get(rr, Fraction(0)) - coef * vv
                    if nv:
                        col[rr] = nv
                    elif rr in col:
                        del col[rr]
            else:
                coef = col[r]
                pivots[r] = {rr: vv / coef for rr, vv in col.items()}
                rank += 1
                break
    return rank


def betti_numbers(cx: SimplicialComplex) -> list[int]:
    """Rational Betti numbers b_0..b_dim (empty list for the empty complex)."""
    d = cx.dim()
    if d < 0:
        return []
    counts = cx.f_vector()
    ranks = [0] * (d + 2)  # rank of boundary_k for k = 0..d+1
    for k in range(1, d + 1):
        columns, nrows, _ = boundary_matrix(cx, k)
        ranks[k] = _sparse_rank(columns, nrows)
    return [counts[k] - ranks[k] - ranks[k + 1] for k in range(d + 1)]


def signed_total_dimension(betti: list[int]) -> int:
    """Even Betti sum minus odd Betti sum."""
    return sum(b if k % 2 == 0 else -b for k, b in enumerate(betti))


# ---------------------------------------------------------------------------
# homology with explicit bases (for induced-map traces)


def _dense_columns(columns: dict, ncols: int, nrows: int) -> list:
    out = []
    for j in range(ncols):
        v = [Fraction(0)] * nrows
        for r, val in columns.get(j, {}).items():
            v[r] = Fraction(val)
        out.append(v)
    return out


def _column_space_basis(vectors: list) -> list:
    """Subset of the given vectors forming a basis of their span."""
    basis = []
    pivots = []  # (row, vector) with vector normalized at row
    for v in vectors:
        w = list(v)
        for (r, b) in pivots:
            c = w[r]
            if c:
                w = [wi - c * bi for wi, bi in zip(w, b)]
        nz = next((i for i, x in enumerate(w) if x), None)
        if nz is not None:
            pivots.append((nz, [x / w[nz] for x in w]))
            basis.append(v)
    return basis


def _solve_in_basis(basis: list, targets: list) -> list:
    """Coordinates of each target in the given (independent) basis."""
    if not basis:
        return [[] for _ in targets]
    nrows = len(basis[0])
    ncols = len(basis)
    aug = [
        [basis[j][i] for j in range(ncols)] + [t[i] for t in targets]
        for i in range(nrows)
    ]
    pivot_cols = []
    row = 0
    for col in range(ncols):
        pr = next((r for r in range(row, nrows) if aug[r][col]), None)
        if pr is None:
            raise InputError("basis vectors are dependent")
        aug[row], aug[pr] = aug[pr], aug[row]
        pv = aug[row][col]
        aug[row] = [x / pv for x in aug[row]]
        for r in range(nrows):
            if r != row and aug[r][col]:
                c = aug[r][col]
                aug[r] = [x - c * y for x, y in zip(aug[r], aug[row])]
        pivot_cols.append(row)
        row += 1
    for r in range(row, nrows):
        if any(aug[r][ncols:]):
            raise InputError("target vector outside the span of the basis")
    out = []
    for t in range(len(targets)):
        out.append([aug[pivot_cols[j]][ncols + t] for j in range(ncols)])
    return out


def homology_basis(cx: SimplicialComplex, k: int):
    """Cycle representatives of a basis of H_k(X; Q).

    Returns (generators, boundary_basis): lists of dense vectors over the
    k-simplices; the concatenation is a basis of the cycle space.
    """
    simps_k = cx.simplices_of_dim(k)
    nk = len(simps_k)
    columns, nrows, ncols = boundary_matrix(cx, k)
    dense = _dense_columns(columns, ncols, nrows)
    # kernel of boundary_k via column reduction of the transpose-free form
    kernel = _kernel_basis(dense, nk)
    bcols, _, bn = boundary_matrix(cx, k + 1)
    bdense = _dense_columns(bcols, bn, nk)
    boundary = _column_space_basis(bdense)
    # extend the boundary basis to the kernel by greedy independence
    gens = []
    current = list(boundary)
    for v in kernel:
        if len(_column_space_basis(current + [v])) > len(current):
            current.append(v)
            gens.append(v)
    return gens, boundary


def _kernel_basis(dense_columns: list, ncols: int) -> list:
    """Basis of the kernel of the matrix with the given dense columns."""
    if ncols == 0:
        return []
    nrows = len(dense_columns[0]) if dense_columns else 0
    # row reduce [A | I] columns: track column operations on the identity
    cols = [list(c) for c in dense_columns]
    ident = [[Fraction(1 if i == j else 0) for i in range(ncols)] for j in range(ncols)]
    pivots = {}
    for j in range(ncols):
        col = cols[j]
        for r, pj in pivots.items():
            c = col[r]
            if c:
                cols[j] = [x - c * y for x, y in zip(col, cols[pj])]
                ident[j] = [x - c * y for x, y in zip(ident[j], ident[pj])]
                col = cols[j]
        nz = next((i for i in range(nrows) if col[i]), None)
        if nz is not None:
            pv = col[nz]
            cols[j] = [x / pv for x in col]
            ident[j] = [x / pv for x in ident[j]]
            pivots[nz] = j
    return [ident[j] for j in range(ncols) if not any(cols[j])]
