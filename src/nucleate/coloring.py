"""Weak c-coloring verification on k-dimensional meshes.

A coloring weakly colors a mesh when every non-isolated vertex has at least
one neighbor of a different color.  The check reports the violating
vertices and, on a 2D mesh, the centers of monochromatic "+" patterns: an
interior vertex whose four neighbors all share its color, which is exactly
a weak-coloring violation at a fully-surrounded vertex.  One pass finds
both: the plus centers are the violations whose neighbors are all colored
(`WeakColoringReport.plus_centers`), and `find_monochromatic_plus` reads
them off the check.

The check walks each vertex's row of `lattice.neighbor_rows`, the one
neighbour table of the mesh, and skips its None slots off the mesh; no
neighbour is tested for mesh membership, and no key off the mesh is read
from the assignment.
"""

from dataclasses import dataclass
from typing import Mapping, Optional

from .lattice import Mesh, Point, neighbor_rows, sorted_vertices

#: Check every mesh vertex; uncolored vertices break coverage.
FULL = "full"
#: Check only the sub-mesh induced by the colored vertices (mid-run views).
INDUCED = "induced"


@dataclass(frozen=True)
class Coloring:
    """Partial assignment of colors {1..c} to the vertices of a mesh."""

    assignment: Mapping[Point, int]
    mesh: Mesh
    c: int

    def __post_init__(self):
        if self.c < 1:
            raise ValueError("color count c must be >= 1")
        assignment = self.assignment
        if self.mesh.contains_all(assignment) and (
                not assignment
                or (min(assignment.values()) >= 1 and max(assignment.values()) <= self.c)):
            return
        for v, color in assignment.items():  # find the first offender
            self.mesh.require(v)
            if not 1 <= color <= self.c:
                raise ValueError(f"color {color} at {v} outside 1..{self.c}")


@dataclass(frozen=True)
class WeakColoringReport:
    """One check's verdict.  `plus_centers` lists, on a 2D mesh, the
    violations at interior vertices whose four neighbors are all colored
    (the same in either mode), in the order of `violations`; it is None on
    any other mesh."""

    valid: bool
    coverage_complete: bool
    violations: tuple
    mode: str
    plus_centers: Optional[tuple] = None

    @property
    def violation_count(self) -> int:
        return len(self.violations)


def check_weak_coloring(col: Coloring, mode: str = FULL) -> WeakColoringReport:
    """Find every colored vertex all of whose visible neighbors match it.

    A vertex with no colored neighbor counts as a violation in full mode
    (the surface around it should have been tiled) and is exempt in induced
    mode (it is isolated in the induced sub-mesh).  Mesh-isolated vertices
    are always exempt.  On a 2D mesh the same pass also lists the plus
    centers among the violations.
    """
    if mode not in (FULL, INDUCED):
        raise ValueError(f"unknown mode {mode!r}")
    assignment = col.assignment
    get = assignment.get
    rows = neighbor_rows(col.mesh.k, col.mesh.side)
    full = mode == FULL
    violations = []
    for v in sorted_vertices(assignment, rows):
        color = assignment[v]
        nbrs = rows[v]
        if None in nbrs:
            # on the mesh boundary: keep the neighbours inside, in order
            nbrs = [w for w in nbrs if w is not None]
            if not nbrs:
                continue  # isolated vertex, exempt
        colored = [c for c in map(get, nbrs) if c is not None]
        if not colored:
            if full:
                violations.append(v)
        elif colored.count(color) == len(colored):
            violations.append(v)
    plus = None
    if col.mesh.k == 2:
        # an interior violation with every neighbour colored is a plus
        plus = tuple(v for v in violations
                     if None not in rows[v] and None not in map(get, rows[v]))
    coverage = len(col.assignment) == col.mesh.size
    valid = not violations and (coverage or mode == INDUCED)
    return WeakColoringReport(valid, coverage, tuple(violations), mode, plus)


def find_monochromatic_plus(col: Coloring) -> list[Point]:
    """Centers of single-color plus shapes: self and all four neighbors equal.

    Defined for 2-dimensional meshes only; centers must be interior
    vertices.  Read off the check (`WeakColoringReport.plus_centers`).
    """
    if col.mesh.k != 2:
        raise ValueError("monochromatic-plus search is defined for 2-dimensional meshes")
    return list(check_weak_coloring(col).plus_centers)


#: the most violations a report document lists, to keep files small
REPORT_CAP = 100


def report_document(report: WeakColoringReport) -> dict:
    """JSON-ready report; the violation list is capped at REPORT_CAP.  A
    report from a 2D mesh also lists every plus center (`plus_centers`)."""
    doc = {
        "valid": report.valid,
        "coverage": report.coverage_complete,
        "mode": report.mode,
        "violation_count": report.violation_count,
        "violations": [list(v) for v in report.violations[:REPORT_CAP]],
    }
    if report.plus_centers is not None:
        doc["plus_centers"] = [list(v) for v in report.plus_centers]
    return doc
