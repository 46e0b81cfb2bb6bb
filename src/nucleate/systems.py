"""Shipped model instances, verified by this repo's own checkers.

The centerpiece is a seven-tile-type system that grows a two-colored
checkerboard from a single corner seed: one seed tile, two alternating
bottom-row tiles, two alternating left-column tiles, and two interior tiles
that bind cooperatively from their west and south neighbors at temperature
2.  The exact glue assignment here is a reconstruction (the construction is
classical); it is frozen as a data file with a content hash so downstream
numbers stay stable.

Axis tiles carry the parity of the next cell in their strength-2 glue
labels; interior tiles carry row/column parity in their strength-1 labels,
which is what forces strict color alternation and hence a weak coloring
with no monochromatic plus anywhere.
"""

from dataclasses import dataclass
from importlib import resources
from pathlib import Path
from typing import Union

from .agents import AgentModel, AgentType, BindingRules, Kinetics
from .tiles import Configuration, TileAssemblySystem, tile

SHIPPED_MODELS = ("tstar", "fidelity2", "checkerboard_local")


def shipped_model_path(name: str) -> Path:
    """Filesystem path of a model file shipped in the package data."""
    if name not in SHIPPED_MODELS:
        raise KeyError(f"no shipped model {name!r}; available: {SHIPPED_MODELS}")
    return Path(resources.files("nucleate").joinpath(f"data/{name}.json"))

#: Content hash of the canonical checkerboard tileset document
#: (see formats.content_hash); tests refuse to ship a drifted instance.
CHECKERBOARD_HASH = "sha256:86b8d79da3bea8fedf1645228b2a8dad8ef442880e8cab9bda1bdaa83befcb2d"


@dataclass(frozen=True)
class NamedSystem:
    """A shipped system plus the property manifest the test suite re-verifies."""

    identifier: str
    kind: str  # "tile-system" or "agent-model"
    system: Union[TileAssemblySystem, AgentModel]
    provenance: str
    manifest: tuple[str, ...]


def checkerboard_tileset() -> NamedSystem:
    """The seven-tile-type weak-coloring system (temperature 2).

    Its unique terminal assembly on any n x n window is a checkerboard:
    color 1 + ((x + y) mod 2) at (x, y), seed at the origin.
    """
    tiles = {
        t.name: t
        for t in (
            # name, color, west, north, east, south
            tile("seed", 1, ("", 0), ("ay1", 2), ("ax1", 2), ("", 0)),
            tile("x-odd", 2, ("ax1", 2), ("v0", 1), ("ax0", 2), ("", 0)),
            tile("x-even", 1, ("ax0", 2), ("v1", 1), ("ax1", 2), ("", 0)),
            tile("y-odd", 2, ("", 0), ("ay0", 2), ("h0", 1), ("ay1", 2)),
            tile("y-even", 1, ("", 0), ("ay1", 2), ("h1", 1), ("ay0", 2)),
            tile("int-even", 1, ("h0", 1), ("v1", 1), ("h1", 1), ("v0", 1)),
            tile("int-odd", 2, ("h1", 1), ("v0", 1), ("h0", 1), ("v1", 1)),
        )
    }
    system = TileAssemblySystem(
        tiles=tiles,
        seed=Configuration({(0, 0): "seed"}),
        temperature=2,
    )
    return NamedSystem(
        identifier="checkerboard-7",
        kind="tile-system",
        system=system,
        provenance="reconstructed seven-type checkerboard construction; "
                   "glue assignment fixed by this repo and frozen by hash",
        manifest=(
            "tile-types-7",
            "locally-deterministic",
            "unique-terminal-assembly",
            "weak-coloring-valid",
            "plus-free",
        ),
    )


NUCLEATION_RULE_IDS = ("checkerboard-local",)


def nucleation_family(pi_nu: float, rule_id: str) -> NamedSystem:
    """A multiply-nucleating agent model with purely local attachment rules.

    "checkerboard-local": two colors; an agent attaches where it differs
    from every already-bound neighbor.  Opposite colors bind at strength 1;
    like colors repel at strength -4, so a single same-color contact vetoes
    attachment (greedy local two-coloring).  Each nucleation point grows a
    perfect checkerboard wave, but waves with clashing parity cannot knit
    together: their seam cells stay empty forever, and no constant round
    budget clears that as surfaces grow.
    """
    if rule_id == "checkerboard-local":
        types = {
            "dark": AgentType("dark", ("c1", "c1", "c1", "c1"), color=1),
            "light": AgentType("light", ("c2", "c2", "c2", "c2"), color=2),
        }
        model = AgentModel(
            types=types,
            rules=BindingRules({("c1", "c2"): 1, ("c1", "c1"): -4, ("c2", "c2"): -4}),
            temperature=1,
            seed={},
            pi_nu=pi_nu,
            kinetics=Kinetics(lambda_on=1.0, detach=False, p_off=0.0, epsilon=0.0),
            messages=(),
            k=2,
        )
        return NamedSystem(
            identifier=f"checkerboard-local-pi{pi_nu}",
            kind="agent-model",
            system=model,
            provenance="local two-coloring rule family for nucleation experiments",
            manifest=("agent-model-valid",),
        )
    raise ValueError(f"unknown nucleation rule family {rule_id!r}; "
                     f"shipped: {NUCLEATION_RULE_IDS}")


def fidelity_model() -> NamedSystem:
    """Two freely inter-binding agent types with reversible, error-permitting
    kinetics, used by the simulation-fidelity driver on small meshes.

    Both types carry the same glue everywhere and any abutting pair bonds at
    strength 1, so each cell next to an occupant legally accepts both types;
    that keeps every outcome's probability large enough for empirical
    support checks to be meaningful.
    """
    types = {
        "amber": AgentType("amber", ("g", "g", "g", "g"), color=1),
        "jade": AgentType("jade", ("g", "g", "g", "g"), color=2),
    }
    model = AgentModel(
        types=types,
        rules=BindingRules({("g", "g"): 1}),
        temperature=1,
        seed={(0, 0): "amber"},
        pi_nu=0.0,
        kinetics=Kinetics(lambda_on=0.5, detach=True, p_off=0.2, epsilon=0.1),
        messages=(),
        k=2,
    )
    return NamedSystem(
        identifier="fidelity-2type",
        kind="agent-model",
        system=model,
        provenance="two-type reversible model for mesh-vs-model fidelity checks",
        manifest=("agent-model-valid",),
    )
