"""Weak c-coloring verification on k-dimensional meshes.

A coloring weakly colors a mesh when every non-isolated vertex has at least
one neighbor of a different color.  The checker reports violating vertices,
and a 2D diagnostic locates monochromatic "+" patterns: an interior vertex
whose four neighbors all share its color, which is exactly a weak-coloring
violation at a fully-surrounded vertex.
"""

from dataclasses import dataclass
from typing import Mapping

from .lattice import Mesh, Point, around

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
    valid: bool
    coverage_complete: bool
    violations: tuple
    mode: str

    @property
    def violation_count(self) -> int:
        return len(self.violations)


def check_weak_coloring(col: Coloring, mode: str = FULL) -> WeakColoringReport:
    """Find every colored vertex all of whose visible neighbors match it.

    A vertex with no colored neighbor counts as a violation in full mode
    (the surface around it should have been tiled) and is exempt in induced
    mode (it is isolated in the induced sub-mesh).  Mesh-isolated vertices
    are always exempt.
    """
    if mode not in (FULL, INDUCED):
        raise ValueError(f"unknown mode {mode!r}")
    assignment = col.assignment
    get = assignment.get
    last = col.mesh.side - 1
    full = mode == FULL
    violations = []
    for v in sorted(assignment):
        color = assignment[v]
        nbrs = around(v)
        if min(v) == 0 or max(v) == last:
            # on the mesh boundary: keep the neighbours inside, in order
            nbrs = [w for w in nbrs if min(w) >= 0 and max(w) <= last]
            if not nbrs:
                continue  # isolated vertex, exempt
        colored = [c for c in map(get, nbrs) if c is not None]
        if not colored:
            if full:
                violations.append(v)
        elif colored.count(color) == len(colored):
            violations.append(v)
    coverage = len(col.assignment) == col.mesh.size
    valid = not violations and (coverage or mode == INDUCED)
    return WeakColoringReport(valid, coverage, tuple(violations), mode)


def find_monochromatic_plus(col: Coloring) -> list[Point]:
    """Centers of single-color plus shapes: self and all four neighbors equal.

    Defined for 2-dimensional meshes only; centers must be interior vertices.
    """
    if col.mesh.k != 2:
        raise ValueError("monochromatic-plus search is defined for 2-dimensional meshes")
    centers = []
    n = col.mesh.side
    colors = col.assignment
    get = colors.get
    for v in sorted(colors):
        if min(v) < 1 or max(v) > n - 2:
            continue
        color = colors[v]
        # an interior vertex has all four neighbors inside the mesh; the
        # first one of another color settles it
        for w in around(v):
            if get(w) != color:
                break
        else:
            centers.append(v)
    return centers


def report_document(report: WeakColoringReport, plus_centers=None, cap: int = 100) -> dict:
    """JSON-ready report; the violation list is capped to keep files small."""
    doc = {
        "valid": report.valid,
        "coverage": report.coverage_complete,
        "mode": report.mode,
        "violation_count": report.violation_count,
        "violations": [list(v) for v in report.violations[:cap]],
    }
    if plus_centers is not None:
        doc["plus_centers"] = [list(v) for v in plus_centers]
    return doc
