"""Bredon-averaging oracle: traces of a group action on rational homology.

Test-only.  ``homology_traces`` gives the trace of every group element on
H_k(X; Q) from explicit cycle bases; averaging the traces over the group
gives the Betti numbers of the orbit space, which the tests compare with
``betti_numbers(orbit_complex(...))``.  The library computes ranks only
(``complexes._sparse_rank``); the relation vectors these bases need are
built here, by ``_reduce``.
"""
from fractions import Fraction

from orbichar.complexes import SimplicialComplex, boundary_matrix
from orbichar.equivariant import RegularEquivariantComplex, _require_regular

from helpers import apply


def _reduce(vectors) -> list:
    """Gaussian elimination over Q on sparse vectors, in order.

    Each vector is a dict index -> value.  Entry i of the result is None
    when vectors[i] is independent of the vectors before it; otherwise it
    is a dict j -> c over earlier independent j with
    vectors[i] == sum of c * vectors[j].
    """
    # pivot index -> (reduced vector scaled to 1 there, the same vector as
    # a combination of the input vectors)
    pivots: dict = {}
    out = []
    for i, v in enumerate(vectors):
        col = {r: Fraction(x) for r, x in v.items() if x}
        used: dict = {}  # col == v - sum of used[j] * vectors[j]
        while col:
            r = min(col)
            coef = col[r]
            if r not in pivots:
                break
            pcol, pcombo = pivots[r]
            for rr, x in pcol.items():
                nv = col.get(rr, 0) - coef * x
                if nv:
                    col[rr] = nv
                else:
                    del col[rr]
            for j, c in pcombo.items():
                used[j] = used.get(j, 0) + coef * c
        if col:
            pcombo = {j: -c / coef for j, c in used.items() if c}
            pcombo[i] = 1 / coef
            pivots[r] = ({rr: x / coef for rr, x in col.items()}, pcombo)
            out.append(None)
        else:
            out.append({j: c for j, c in used.items() if c})
    return out


def homology_basis(cx: SimplicialComplex, k: int):
    """Cycle representatives of a basis of H_k(X; Q).

    Returns (generators, boundary_basis): lists of sparse vectors (dicts)
    over the k-simplices; together they are a basis of the cycle space.
    """
    columns = boundary_matrix(cx, k)[0]
    # A column that depends on earlier ones gives a cycle: e_j - relation.
    kernel = []
    for j, rel in enumerate(_reduce(columns.values())):
        if rel is not None:
            z = {i: -c for i, c in rel.items()}
            z[j] = Fraction(1)
            kernel.append(z)
    bcols = list(boundary_matrix(cx, k + 1)[0].values())
    boundary = [c for c, rel in zip(bcols, _reduce(bcols)) if rel is None]
    # Boundaries are cycles, so the kernel vectors independent of them and
    # of each other extend the boundary basis to a cycle basis.
    tail = _reduce(boundary + kernel)[len(boundary):]
    gens = [z for z, rel in zip(kernel, tail) if rel is None]
    return gens, boundary


def homology_traces(rec: RegularEquivariantComplex, k: int) -> list[Fraction]:
    """Trace of every group element on H_k(X; Q).

    Orientation signs come from the parity of the permutation each element
    induces on the sorted vertex list of a simplex.
    """
    ec = _require_regular(rec)
    simps_k = ec.cx.simplices_of_dim(k)
    pos = {s: i for i, s in enumerate(simps_k)}
    gens, boundary = homology_basis(ec.cx, k)
    images = []
    for g in range(ec.group.order):
        for z in gens:
            out: dict = {}
            for i, c in z.items():
                vs = [apply(ec, g, v) for v in simps_k[i]]
                j = pos[tuple(sorted(vs))]
                out[j] = out.get(j, 0) + c * _sort_sign(vs)
            images.append(out)
    # g.z is a cycle, so it depends on the cycle basis boundary + gens; its
    # relation gives its coordinates, and the gens' coordinates sum to the
    # trace.
    basis = boundary + gens
    rels = _reduce(basis + images)[len(basis):]
    nb, ng = len(boundary), len(gens)
    return [
        Fraction(sum(rels[g * ng + i].get(nb + i, 0) for i in range(ng)))
        for g in range(ec.group.order)
    ]


def _sort_sign(values: list) -> int:
    sign = 1
    vals = list(values)
    for i in range(len(vals)):
        for j in range(len(vals) - 1 - i):
            if vals[j] > vals[j + 1]:
                vals[j], vals[j + 1] = vals[j + 1], vals[j]
                sign = -sign
    return sign
