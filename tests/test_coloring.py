import itertools
import random

import pytest

from nucleate.coloring import (
    Coloring,
    FULL,
    INDUCED,
    check_weak_coloring,
    find_monochromatic_plus,
    report_document,
)
from nucleate.lattice import Mesh

from support import literal_plus_centers, literal_weak_coloring


def grid_coloring(side, fn, c=2):
    mesh = Mesh(2, side)
    return Coloring({v: fn(v) for v in mesh.vertices()}, mesh, c)


def checkerboard(side):
    return grid_coloring(side, lambda v: 1 + (v[0] + v[1]) % 2)


def test_single_vertex_is_exempt():
    mesh = Mesh(2, 1)
    report = check_weak_coloring(Coloring({(0, 0): 1}, mesh, 2))
    assert report.valid and report.violation_count == 0


def test_monochromatic_block_violates_everywhere():
    report = check_weak_coloring(grid_coloring(2, lambda v: 1))
    assert not report.valid
    assert report.violation_count == 4


def test_checkerboard_is_valid():
    for side in (2, 5, 8):
        report = check_weak_coloring(checkerboard(side))
        assert report.valid and report.violation_count == 0


def test_color_out_of_range():
    mesh = Mesh(2, 2)
    with pytest.raises(ValueError):
        Coloring({(0, 0): 3}, mesh, 2)
    with pytest.raises(ValueError):
        Coloring({(0, 0): 0}, mesh, 2)


def test_partial_coloring_modes():
    mesh = Mesh(2, 3)
    # a colored vertex with no colored neighbor: hole around (0, 0)
    col = Coloring({(0, 0): 1, (2, 2): 1, (2, 1): 2}, mesh, 2)
    full = check_weak_coloring(col, FULL)
    assert not full.coverage_complete
    assert not full.valid
    assert (0, 0) in full.violations
    induced = check_weak_coloring(col, INDUCED)
    assert (0, 0) not in induced.violations
    assert induced.valid  # isolated in the induced sub-mesh is exempt


def test_full_mode_demands_coverage_even_without_violations():
    mesh = Mesh(2, 2)
    col = Coloring({(0, 0): 1, (0, 1): 2}, mesh, 2)
    report = check_weak_coloring(col, FULL)
    assert report.violation_count == 0
    assert not report.valid
    assert check_weak_coloring(col, INDUCED).valid


def test_plus_on_checkerboard_is_empty():
    assert find_monochromatic_plus(checkerboard(6)) == []


def test_plus_center_of_monochrome_3x3():
    assert find_monochromatic_plus(grid_coloring(3, lambda v: 1)) == [(1, 1)]


def test_plus_centers_5x5_with_recolored_cells():
    # all interior pluses of a monochrome 5x5 are centers; none of them
    # contains a mesh corner, so recoloring a corner changes nothing
    col = grid_coloring(5, lambda v: 2 if v == (0, 0) else 1)
    assert len(find_monochromatic_plus(col)) == 9
    # recoloring a cell adjacent to the corner kills exactly one plus
    col = grid_coloring(5, lambda v: 2 if v == (1, 0) else 1)
    centers = find_monochromatic_plus(col)
    assert len(centers) == 8
    assert (1, 1) not in centers


def test_plus_requires_two_dimensions():
    mesh = Mesh(3, 3)
    col = Coloring({v: 1 for v in mesh.vertices()}, mesh, 2)
    with pytest.raises(ValueError):
        find_monochromatic_plus(col)


def test_violation_iff_restricted_plus_exhaustive():
    # every full 2-coloring of the 3x3 mesh: a vertex violates exactly when
    # it and all of its actual neighbors share one color
    mesh = Mesh(2, 3)
    vertices = list(mesh.vertices())
    for bits in itertools.product((1, 2), repeat=9):
        col = Coloring(dict(zip(vertices, bits)), mesh, 2)
        report = check_weak_coloring(col)
        violations = set(report.violations)
        for v in vertices:
            nbrs = mesh.neighbors(v)
            mono = all(col.assignment[w] == col.assignment[v] for w in nbrs)
            assert (v in violations) == mono


def test_recoloring_a_neighbor_fresh_never_adds_violation():
    mesh = Mesh(2, 3)
    base = grid_coloring(3, lambda v: 1, c=3)
    report = check_weak_coloring(base)
    for v in report.violations:
        w = mesh.neighbors(v)[0]
        recolored = dict(base.assignment)
        recolored[w] = 3
        after = check_weak_coloring(Coloring(recolored, mesh, 3))
        assert v not in after.violations


def test_checker_touches_only_neighbors():
    # decide a single vertex from its closed neighborhood alone
    mesh = Mesh(2, 5)
    col = checkerboard(5)
    reads = []

    class Probe(dict):
        def __getitem__(self, key):
            reads.append(key)
            return dict.__getitem__(self, key)

        def get(self, key, default=None):
            reads.append(key)
            return dict.get(self, key, default)

    probed = Coloring(Probe(col.assignment), mesh, 2)
    check_weak_coloring(probed)
    allowed = {v: set(mesh.neighbors(v)) | {v} for v in mesh.vertices()}
    # every read burst for a vertex stays within its closed neighborhood;
    # reconstruct bursts by replaying the checker's vertex order
    it = iter(reads)
    for v in sorted(col.assignment):
        burst = {next(it)}
        for w in mesh.neighbors(v):
            burst.add(next(it))
        assert burst <= allowed[v]


@pytest.mark.parametrize("k", [2, 3])
@pytest.mark.parametrize("side", range(1, 7))
def test_checks_match_the_neighbors_oracle_on_random_partial_colorings(k, side):
    # side 1 is the isolated vertex; fills from sparse to full, 1..3 colors
    mesh = Mesh(k, side)
    rng = random.Random(100 * k + side)
    for _ in range(40):
        c = rng.randint(1, 3)
        fill = rng.choice([0.2, 0.5, 0.9, 1.0])
        col = Coloring({v: rng.randint(1, c) for v in mesh.vertices() if rng.random() < fill},
                       mesh, c)
        for mode in (FULL, INDUCED):
            report = check_weak_coloring(col, mode)
            assert (report.valid, report.coverage_complete, report.violations) == \
                literal_weak_coloring(col, mode)
            assert report.plus_centers == (
                tuple(literal_plus_centers(col)) if k == 2 else None)
        if k == 2:
            assert find_monochromatic_plus(col) == literal_plus_centers(col)
        else:
            with pytest.raises(ValueError):
                find_monochromatic_plus(col)


def test_report_document_caps_violations():
    col = grid_coloring(20, lambda v: 1)
    report = check_weak_coloring(col)
    doc = report_document(report)
    assert doc["violation_count"] == 400
    assert len(doc["violations"]) == 100
    # the plus centers are the 18 x 18 interior vertices, listed uncapped
    assert doc["plus_centers"] == [list(v) for v in literal_plus_centers(col)]
    assert len(doc["plus_centers"]) == 18 * 18
    assert not doc["valid"]
