import pytest
from hypothesis import given, strategies as st

from nucleate.lattice import Box, Mesh, add, directions, opposite


def test_direction_counts():
    assert len(directions(2)) == 4
    assert len(directions(3)) == 6
    assert [d.name for d in directions(2)] == ["west", "north", "east", "south"]
    assert [d.name for d in directions(3)] == ["west", "north", "east", "south", "down", "up"]


def test_opposites_cancel():
    for k in (2, 3):
        for d in directions(k):
            assert opposite(opposite(d)) == d
            assert add(d.vector, opposite(d).vector) == (0,) * k


def test_unsupported_dimension():
    with pytest.raises(ValueError):
        directions(4)
    with pytest.raises(ValueError):
        Mesh(1, 5)


def test_neighbors_interior_order():
    # vertex set {0,1,2}^2: (1,1) is interior
    mesh = Mesh(2, 3)
    assert mesh.neighbors((1, 1)) == [(0, 1), (1, 2), (2, 1), (1, 0)]


def test_neighbors_corner():
    mesh = Mesh(2, 3)
    nbrs = mesh.neighbors((0, 0))
    assert set(nbrs) == {(1, 0), (0, 1)}
    assert len(nbrs) == 2


def test_neighbors_3d_interior():
    # vertex set {0,...,3}^3: (1,1,1) is interior with degree 2k = 6
    mesh = Mesh(3, 4)
    assert len(mesh.neighbors((1, 1, 1))) == 6


def test_neighbors_outside_mesh():
    with pytest.raises(ValueError):
        Mesh(2, 3).neighbors((3, 0))


@given(st.integers(2, 6), st.data())
def test_neighbors_symmetric(side, data):
    mesh = Mesh(2, side)
    v = data.draw(st.tuples(st.integers(0, side - 1), st.integers(0, side - 1)))
    for w in mesh.neighbors(v):
        assert v in mesh.neighbors(w)


@given(st.sampled_from([2, 3]), st.integers(2, 5), st.data())
def test_degree_bounds(k, side, data):
    mesh = Mesh(k, side)
    v = data.draw(st.tuples(*[st.integers(0, side - 1)] * k))
    assert k <= len(mesh.neighbors(v)) <= 2 * k


def test_vertex_count():
    assert Mesh(2, 4).size == 16
    assert Mesh(3, 3).size == 27
    assert len(list(Mesh(2, 3).vertices())) == 9


def test_box():
    box = Box((2, 1))
    assert box.k == 2 and box.size == 2
    assert list(box.vertices()) == [(0, 0), (1, 0)]
    assert box.contains((1, 0)) and not box.contains((0, 1))
    with pytest.raises(ValueError):
        Box((0, 3))
