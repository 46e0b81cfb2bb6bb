import pytest
from hypothesis import given, strategies as st

from nucleate.lattice import OPPOSITE, Mesh, add, around, directions


def test_direction_counts():
    assert len(directions(2)) == 4
    assert len(directions(3)) == 6
    assert [d.name for d in directions(2)] == ["west", "north", "east", "south"]
    assert [d.name for d in directions(3)] == ["west", "north", "east", "south", "down", "up"]


def test_opposites_cancel():
    for k in (2, 3):
        dirs = directions(k)
        for d in dirs:
            assert OPPOSITE[OPPOSITE[d.index]] == d.index
            assert add(d.vector, dirs[OPPOSITE[d.index]].vector) == (0,) * k


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


def _point(k, lo=-3, hi=8):
    return st.tuples(*[st.integers(lo, hi)] * k)


@given(st.sampled_from([2, 3]).flatmap(_point))
def test_around_is_add_over_directions(v):
    assert around(v) == tuple(add(v, d.vector) for d in directions(len(v)))
    for i, w in enumerate(around(v)):
        assert around(w)[OPPOSITE[i]] == v


def test_around_rejects_unsupported_dimensions():
    for v in ((), (1,), (1, 2, 3, 4)):
        with pytest.raises(ValueError):
            around(v)


@given(st.sampled_from([2, 3]), st.integers(1, 6), st.data())
def test_neighbors_match_add_definition(k, side, data):
    mesh = Mesh(k, side)
    v = data.draw(_point(k, 0, side - 1))
    expected = [add(v, d.vector) for d in directions(k)
                if all(0 <= c < side for c in add(v, d.vector))]
    assert mesh.neighbors(v) == expected


@given(st.sampled_from([2, 3]), st.integers(1, 5), st.data())
def test_mesh_contains_is_the_definition(k, side, data):
    mesh = Mesh(k, side)
    v = data.draw(st.integers(1, 4).flatmap(lambda n: _point(n, -2, side + 1)))
    assert mesh.contains(v) == (len(v) == k and all(0 <= c < side for c in v))


@pytest.mark.parametrize("window", [Mesh(2, 3), Mesh(3, 3)])
def test_contains_rejects_wrong_length_negative_and_side(window):
    k = window.k
    inside = (1,) * k
    assert window.contains(inside)
    assert not window.contains((1,) * (k - 1))
    assert not window.contains((1,) * (k + 1))
    for axis in range(k):
        for bad in (-1, 3):
            v = inside[:axis] + (bad,) + inside[axis + 1:]
            assert not window.contains(v)


POINTS = st.lists(st.lists(st.integers(-2, 6), min_size=1, max_size=4).map(tuple), max_size=12)


@given(st.sampled_from([2, 3]), st.integers(1, 5), POINTS)
def test_contains_all_equals_contains_per_point(k, side, points):
    mesh = Mesh(k, side)
    assert mesh.contains_all(points) == all(map(mesh.contains, points))
    assert mesh.contains_all(dict.fromkeys(points)) == all(map(mesh.contains, points))


def _configuration(cells, window=None):
    from nucleate.tiles import Configuration
    return Configuration(cells, window)


def _coloring(assignment, c=2):
    from nucleate.coloring import Coloring
    return Coloring(assignment, Mesh(2, 4), c)


# Each case holds an off-window, wrong-dimension or out-of-range entry
# among valid ones: the batched checks must report the first offender in
# iteration order, with the message of the per-point loop.
@pytest.mark.parametrize("build, message", [
    (lambda: _configuration({(0, 0): "a", (4, 1): "a", (1, 1, 1): "a"}, Mesh(2, 4)),
     "location (4, 1) lies outside the window"),
    (lambda: _configuration({(0, 0): "a", (1, -1): "a"}, Mesh(2, 4)),
     "location (1, -1) lies outside the window"),
    (lambda: _configuration({(0, 0): "a", (1, 1, 1): "a", (9, 9): "a"}, Mesh(2, 4)),
     "location (1, 1, 1) is not 2-dimensional"),
    (lambda: _configuration({(0, 0): "a", (1,): "a"}),
     "location (1,) is not 2-dimensional"),
    (lambda: _coloring({(0, 0): 1, (0, 4): 3, (1, 1): 1}),
     "(0, 4) is not a vertex of the 2-dim mesh of side 4"),
    (lambda: _coloring({(0, 0): 1, (1, 1, 1): 1}),
     "(1, 1, 1) is not a vertex of the 2-dim mesh of side 4"),
    (lambda: _coloring({(0, 0): 1, (0, 1): 3, (1, 1): 0}),
     "color 3 at (0, 1) outside 1..2"),
    (lambda: _coloring({(0, 0): 2, (0, 1): 0}),
     "color 0 at (0, 1) outside 1..2"),
])
def test_window_errors_name_the_first_offender(build, message):
    with pytest.raises(ValueError) as err:
        build()
    assert str(err.value) == message
