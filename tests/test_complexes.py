from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from orbichar import complexes
from orbichar.errors import InputError, SizeCapExceeded
from orbichar.complexes import (
    _sparse_rank,
    SimplicialComplex,
    barycentric_subdivision,
    betti_numbers,
    boundary_matrix,
    complex_from_json,
    euler_characteristic,
    from_maximal,
    product_complex,
    signed_total_dimension,
    staircase_product,
)
from orbichar.library import (
    EQUIVARIANT_PRESETS,
    builtin_complex,
    circle,
    edge,
    octahedron,
    point,
    torus,
    two_points,
)

from homology_oracle import _reduce, homology_basis


def test_from_maximal_closes_faces():
    cx = from_maximal([(0, 1, 2)])
    assert cx.f_vector() == [3, 3, 1]
    assert (0, 2) in cx.simplices


def test_vertex_validation():
    with pytest.raises(InputError):
        SimplicialComplex([(0, 0)])
    with pytest.raises(InputError):
        from_maximal([()])


def test_complex_from_json():
    cx = complex_from_json({"vertices": 3, "maximal_simplices": [[0, 1], [1, 2]]})
    assert cx.f_vector() == [3, 2]
    iso = complex_from_json({"vertices": 4, "maximal_simplices": []})
    assert iso.f_vector() == [4]
    with pytest.raises(InputError):
        complex_from_json({"vertices": 3})


def test_complex_from_json_boundary():
    # a listed vertex in no maximal simplex is an isolated point
    cx = complex_from_json({"vertices": 4, "maximal_simplices": [[0, 1]]})
    assert cx.vertices == (0, 1, 2, 3) and cx.f_vector() == [4, 1]
    assert euler_characteristic(cx) == 3
    listed = complex_from_json({"vertices": [5, 7], "maximal_simplices": [[7]]})
    assert listed.simplices == ((5,), (7,))
    for spec in (
        {"maximal_simplices": [[0, 1, 2, 2]]},
        {"vertices": 3, "maximal_simplices": [[0, 0]]},
        {"vertices": 2, "maximal_simplices": [[0, 1, 2]]},
    ):
        with pytest.raises(InputError):
            complex_from_json(spec)


def test_euler_characteristics_of_library():
    assert euler_characteristic(point()) == 1
    assert euler_characteristic(two_points()) == 2
    assert euler_characteristic(edge()) == 1
    assert euler_characteristic(circle(5)) == 0
    assert euler_characteristic(octahedron()) == 2
    assert euler_characteristic(torus()) == 0


def test_octahedron_f_vector():
    assert octahedron().f_vector() == [6, 12, 8]


def test_torus_staircase_f_vector():
    # (3-gon) x (3-gon): 9 vertices, 27 edges, 18 triangles
    assert torus().f_vector() == [9, 27, 18]


def test_betti_numbers():
    assert betti_numbers(point()) == [1]
    assert betti_numbers(circle(4)) == [1, 1]
    assert betti_numbers(octahedron()) == [1, 0, 1]  # a 2-sphere
    assert betti_numbers(torus()) == [1, 2, 1]


def test_betti_two_holes():
    # wedge-like figure eight: two circles sharing vertex 0
    cx = from_maximal(
        [(0, 1), (1, 2), (0, 2), (0, 3), (3, 4), (0, 4)]
    )
    assert betti_numbers(cx) == [1, 2]


def test_signed_total_dimension():
    assert signed_total_dimension([1, 0, 1]) == 2
    assert signed_total_dimension([1, 2, 1]) == 0
    assert signed_total_dimension([1, 3]) == -2


def test_boundary_matrix_degree_zero():
    cx = circle(3)
    cols, nrows, ncols = boundary_matrix(cx, 0)
    assert nrows == 0 and ncols == 3
    assert all(col == {} for col in cols.values())


def test_boundary_squared_is_zero():
    cx = octahedron()
    d2, _, _ = boundary_matrix(cx, 2)
    d1, _, _ = boundary_matrix(cx, 1)
    for j, col in d2.items():
        acc = {}
        for i, a in col.items():
            for ii, b in d1[i].items():
                acc[ii] = acc.get(ii, 0) + a * b
        assert all(v == 0 for v in acc.values())


def test_homology_basis_dimensions():
    cx = torus()
    for k, b in enumerate(betti_numbers(cx)):
        assert len(homology_basis(cx, k)[0]) == b


def test_subdivision_preserves_invariants():
    for cx in (edge(), circle(4), octahedron()):
        sd, vertex_of = barycentric_subdivision(cx)
        assert euler_characteristic(sd) == euler_characteristic(cx)
        assert betti_numbers(sd) == betti_numbers(cx)
        assert len(vertex_of) == len(cx.simplices)
    assert barycentric_subdivision(octahedron())[0].f_vector() == [26, 72, 48]


def test_staircase_product_is_multiplicative():
    for a, b in [(edge(), edge()), (circle(3), edge()), (circle(3), circle(4))]:
        prod = staircase_product(a, b)
        assert euler_characteristic(prod) == euler_characteristic(
            a
        ) * euler_characteristic(b)


def test_staircase_square_betti():
    square = staircase_product(edge(), edge())
    assert betti_numbers(square) == [1, 0, 0]


def test_circle_needs_three_vertices():
    with pytest.raises(InputError):
        circle(2)


def test_chain_cap():
    # 6^8 poset cells is past DEFAULT_SIMPLEX_CAP = 10^6
    with pytest.raises(SizeCapExceeded):
        product_complex([circle(3)] * 8)


# ---------------------------------------------------------------------------
# the one elimination routine, and the oracle's relation-carrying one


def _dense_rank(vectors, width):
    """Rank over Q by dense row reduction (an oracle independent of
    _sparse_rank and _reduce)."""
    rows = [[Fraction(v.get(i, 0)) for i in range(width)] for v in vectors]
    rank = 0
    for col in range(width):
        pivot = next((r for r in range(rank, len(rows)) if rows[r][col]), None)
        if pivot is None:
            continue
        rows[rank], rows[pivot] = rows[pivot], rows[rank]
        for r in range(len(rows)):
            if r != rank and rows[r][col]:
                c = rows[r][col] / rows[rank][col]
                rows[r] = [x - c * y for x, y in zip(rows[r], rows[rank])]
        rank += 1
    return rank


_sparse_vectors = st.lists(
    st.dictionaries(st.integers(0, 5), st.integers(-3, 3), max_size=4),
    max_size=9,
)


@settings(max_examples=200, deadline=None)
@given(_sparse_vectors)
def test_reduce_matches_dense_rank(vectors):
    for i in range(len(vectors) + 1):
        assert _sparse_rank(vectors[:i]) == _dense_rank(vectors[:i], 6)
    rels = _reduce(vectors)
    assert len(rels) == len(vectors)
    for i, (v, rel) in enumerate(zip(vectors, rels)):
        independent = _dense_rank(vectors[: i + 1], 6) > _dense_rank(vectors[:i], 6)
        assert (rel is None) == independent
        if rel is None:
            continue
        assert all(j < i and rels[j] is None for j in rel)
        rebuilt = {}
        for j, c in rel.items():
            for r, x in vectors[j].items():
                rebuilt[r] = rebuilt.get(r, 0) + c * x
        assert {r: x for r, x in rebuilt.items() if x} == {
            r: x for r, x in v.items() if x
        }


# ---------------------------------------------------------------------------
# the subdivision size is known before any chain is built


def _predicted_subdivision_size(cx):
    fubini = [1, 1, 3, 13, 75, 541]
    return sum(f * fubini[d + 1] for d, f in enumerate(cx.f_vector()))


def test_predicted_subdivision_size_is_exact():
    named = {
        name: builtin_complex(name)
        for name in ("point", "S0", "edge", "octahedron", "torus", "circle(3)")
    }
    named.update((name, build().cx) for name, build in EQUIVARIANT_PRESETS.items())
    for name, cx in named.items():
        assert len(barycentric_subdivision(cx)[0].simplices) == (
            _predicted_subdivision_size(cx)
        ), name
    assert _predicted_subdivision_size(octahedron()) == 146
    assert _predicted_subdivision_size(torus()) == 324


def test_subdivision_cap_trips_before_any_chain(monkeypatch):
    cx = torus()
    size = _predicted_subdivision_size(cx)

    def no_chains(*args):
        raise AssertionError("chains were built past the cap")

    monkeypatch.setattr(complexes, "DEFAULT_SIMPLEX_CAP", size - 1)
    monkeypatch.setattr(complexes, "_chains_of_poset", no_chains)
    monkeypatch.setattr(complexes, "_tuple_predecessors", no_chains)
    with pytest.raises(SizeCapExceeded, match=f"simplex cap {size - 1}") as exc:
        barycentric_subdivision(cx)
    assert f"has {size} simplices" in str(exc.value)
    monkeypatch.undo()
    monkeypatch.setattr(complexes, "DEFAULT_SIMPLEX_CAP", size)
    assert len(barycentric_subdivision(cx)[0].simplices) == size
