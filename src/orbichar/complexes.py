"""Finite abstract simplicial complexes with exact rational homology.

A complex stores the full downward-closed simplex family (each simplex a
sorted tuple of vertex ids, the family sorted by dimension then
lexicographically) plus its vertex id tuple, the ids of its 0-simplices.
Vertex ids are arbitrary integers so that subcomplexes can keep their
parent's labels.

Betti numbers come from one sparse Gaussian elimination over Q
(``_sparse_rank``) on integer boundary columns; no floating point anywhere.
"""
from __future__ import annotations

import math
from bisect import bisect_left
from fractions import Fraction

from .errors import InputError, SizeCapExceeded

DEFAULT_SIMPLEX_CAP = 10**6


class SimplicialComplex:
    """Immutable abstract simplicial complex.

    Validated input may list a simplex in any vertex order and more than
    once.  With ``_skip_validation`` the caller vouches for distinct,
    nonempty, vertex-sorted tuples closed under faces: they are only put
    in complex order, and no simplex is sorted or checked.
    """

    __slots__ = ("vertices", "simplices", "_by_least")

    def __init__(self, simplices, _skip_validation=False):
        if not _skip_validation:
            simplices = {tuple(sorted(s)) for s in simplices}
        # complex order: by dimension, then lexicographic (a stable sort)
        simps = sorted(simplices)
        simps.sort(key=len)
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
        # A closed family lists its vertices first, as sorted 1-tuples.
        self.vertices = tuple([s[0] for s in simps[: bisect_left(simps, 2, key=len)]])
        self._by_least = None

    # -- basic queries ----------------------------------------------------

    def dim(self) -> int:
        """Dimension; -1 for the empty complex."""
        if not self.simplices:
            return -1
        return len(self.simplices[-1]) - 1

    def simplices_of_dim(self, k: int) -> list:
        return [s for s in self.simplices if len(s) == k + 1]

    def by_least_vertex(self) -> dict:
        """Vertex -> the simplices whose least vertex it is, in complex
        order.  Built once, on first use."""
        if self._by_least is None:
            index = {v: [] for v in self.vertices}
            for s in self.simplices:
                index[s[0]].append(s)
            self._by_least = index
        return self._by_least

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


def from_maximal(maximal) -> SimplicialComplex:
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
    return SimplicialComplex(simps, _skip_validation=True)


def _vertex_ids(value, what: str) -> list:
    """``value`` if it is a list of integer vertex ids, else InputError."""
    if not isinstance(value, list) or not all(type(v) is int for v in value):
        raise InputError(
            f"{what} must be a list of integer vertex ids, got {value!r}"
        )
    return value


def complex_from_json(data) -> SimplicialComplex:
    """The complex of ``{"maximal_simplices": [...], "vertices": ...}``.

    No maximal simplex may repeat a vertex.  The optional ``vertices``, a
    count n (ids 0..n-1) or a list of ids, must hold every vertex the
    simplices mention; a listed vertex in no maximal simplex is an
    isolated point.  A k-vertex maximal simplex closes into 2^k - 1 faces
    and a listed vertex adds a point; that count, above
    ``DEFAULT_SIMPLEX_CAP``, raises SizeCapExceeded before any is built.
    """
    if not isinstance(data, dict) or "maximal_simplices" not in data:
        raise InputError("complex spec needs a 'maximal_simplices' field")
    maximal = data["maximal_simplices"]
    if not isinstance(maximal, list):
        raise InputError("'maximal_simplices' must be a list of simplices")
    for s in maximal:
        _vertex_ids(s, "a maximal simplex")
        if len(set(s)) != len(s):
            raise InputError(f"maximal simplex {s} repeats a vertex")
    v = data.get("vertices", [])
    vertices = range(v) if type(v) is int else _vertex_ids(v, "'vertices'")
    size = sum((1 << len(s)) - 1 for s in maximal)
    size += max(v, 0) if type(v) is int else len(v)
    if size > DEFAULT_SIMPLEX_CAP:
        raise SizeCapExceeded(
            f"JSON complex closes into {size} faces and points,"
            f" above simplex cap {DEFAULT_SIMPLEX_CAP}"
        )
    if "vertices" in data and {u for s in maximal for u in s} - set(vertices):
        raise InputError("simplices mention vertices outside the vertex set")
    return from_maximal(maximal + [[u] for u in vertices])


def euler_characteristic(cx: SimplicialComplex) -> int:
    return sum((-1) ** (len(s) - 1) for s in cx.simplices)


# ---------------------------------------------------------------------------
# subdivision


def barycentric_subdivision(cx: SimplicialComplex):
    """First barycentric subdivision.

    New vertex i is simplex ``cx.simplices[i]``; simplices are the chains of
    the face partial order.  Returns (subdivision, vertex_of_simplex dict).
    The size is known in advance: a d-simplex tops Fubini(d+1) chains, one
    per ordered set partition of its vertices, so the cap is checked before
    any chain is built.
    """
    size = sum(f * _fubini(d + 1) for d, f in enumerate(cx.f_vector()))
    if size > DEFAULT_SIMPLEX_CAP:
        raise SizeCapExceeded(
            f"barycentric subdivision has {size} simplices,"
            f" above simplex cap {DEFAULT_SIMPLEX_CAP}"
        )
    vertex_of = {s: i for i, s in enumerate(cx.simplices)}
    chains = _chains_of_poset(
        list(range(len(cx.simplices))),
        lambda i: _proper_faces(cx.simplices[i], vertex_of),
    )
    sd = SimplicialComplex(chains, _skip_validation=True)
    return sd, vertex_of


def _fubini(n: int) -> int:
    """Number of ordered set partitions of an n-set (1, 1, 3, 13, 75, ...)."""
    a = [1]
    for m in range(1, n + 1):
        a.append(sum(math.comb(m, k) * a[m - k] for k in range(1, m + 1)))
    return a[n]


def _proper_faces(s, vertex_of):
    m = len(s)
    out = []
    for mask in range(1, (1 << m) - 1):
        f = tuple(s[i] for i in range(m) if mask >> i & 1)
        out.append(vertex_of[f])
    return out


def _chains_of_poset(elements, predecessors):
    """All nonempty chains of a finite poset, as sorted tuples of elements.

    ``predecessors(e)`` lists the strict predecessors of e.  Elements must
    be ints listed in increasing order, and that order must extend the
    partial order (each element comes after its predecessors), so that
    every chain is emitted as a sorted tuple.  Raises SizeCapExceeded once
    the chains outnumber ``DEFAULT_SIMPLEX_CAP``.
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
        if total > DEFAULT_SIMPLEX_CAP:
            raise SizeCapExceeded(
                f"chain enumeration exceeds simplex cap {DEFAULT_SIMPLEX_CAP}"
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
    simps = set()
    for sx in x.simplices:
        for sy in y.simplices:
            # The chains of the grid poset sx x sy.  Codes increase with the
            # lexicographic order of pairs, which extends the grid order.
            codes = [u * stride + v for u in sx for v in sy]
            simps.update(
                _chains_of_poset(
                    codes,
                    lambda e: [
                        c
                        for c in codes
                        if c != e
                        and c // stride <= e // stride
                        and c % stride <= e % stride
                    ],
                )
            )
    return SimplicialComplex(simps, _skip_validation=True)


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


def _sparse_rank(vectors) -> int:
    """Rank over Q of a family of sparse vectors (dicts index -> value).

    Gaussian elimination in order; each pivot vector is stored scaled to 1
    at its least index, and a vector reduced to zero adds nothing.  Scaling
    by a unit keeps integer entries integers, so boundary columns (entries
    +-1) are mostly reduced without Fractions.
    """
    pivots: dict = {}
    for v in vectors:
        col = {r: x for r, x in v.items() if x}
        while col:
            r = min(col)
            coef = col[r]
            pcol = pivots.get(r)
            if pcol is None:
                inv = coef if coef in (1, -1) else 1 / Fraction(coef)
                pivots[r] = {rr: x * inv for rr, x in col.items()}
                break
            for rr, x in pcol.items():
                nv = col.get(rr, 0) - coef * x
                if nv:
                    col[rr] = nv
                else:
                    del col[rr]
    return len(pivots)


def betti_numbers(cx: SimplicialComplex) -> list[int]:
    """Rational Betti numbers b_0..b_dim (empty list for the empty complex)."""
    d = cx.dim()
    if d < 0:
        return []
    counts = cx.f_vector()
    ranks = [0] * (d + 2)  # rank of boundary_k for k = 0..d+1
    for k in range(1, d + 1):
        ranks[k] = _sparse_rank(boundary_matrix(cx, k)[0].values())
    return [counts[k] - ranks[k] - ranks[k + 1] for k in range(d + 1)]


def signed_total_dimension(betti: list[int]) -> int:
    """Even Betti sum minus odd Betti sum."""
    return sum(b if k % 2 == 0 else -b for k, b in enumerate(betti))
