"""Shipped model instances, verified by this repo's own checkers.

The models are defined only by the hash-frozen JSON files in `data/`; the
functions here load them through `formats`, so every caller -- the CLI, the
experiment drivers and the tests -- sees the same tiles, glues, agents and
rules.

The centerpiece (`tstar.json`) is a seven-tile-type system that grows a
two-colored checkerboard from a single corner seed: one seed tile, two
alternating bottom-row tiles, two alternating left-column tiles, and two
interior tiles that bind cooperatively from their west and south neighbors
at temperature 2.  The exact glue assignment is a reconstruction (the
construction is classical); it is frozen as a data file with a content hash
so downstream numbers stay stable.

Axis tiles carry the parity of the next cell in their strength-2 glue
labels; interior tiles carry row/column parity in their strength-1 labels,
which is what forces strict color alternation and hence a weak coloring
with no monochromatic plus anywhere.
"""

from dataclasses import dataclass, replace
from importlib import resources
from pathlib import Path
from typing import Union

from .agents import AgentModel
from .formats import load_agent_model, load_tile_system
from .tiles import TileAssemblySystem

SHIPPED_MODELS = ("tstar", "fidelity2", "checkerboard_local")


def shipped_model_path(name: str) -> Path:
    """Filesystem path of a model file shipped in the package data."""
    if name not in SHIPPED_MODELS:
        raise KeyError(f"no shipped model {name!r}; available: {SHIPPED_MODELS}")
    return Path(resources.files("nucleate").joinpath(f"data/{name}.json"))


@dataclass(frozen=True)
class NamedSystem:
    """A shipped system plus the property manifest the test suite re-verifies."""

    identifier: str
    system: Union[TileAssemblySystem, AgentModel]
    manifest: tuple[str, ...]


def checkerboard_tileset() -> NamedSystem:
    """The seven-tile-type weak-coloring system (temperature 2).

    Its unique terminal assembly on any n x n window is a checkerboard:
    color 1 + ((x + y) mod 2) at (x, y), seed at the origin.
    """
    system, _ = load_tile_system(shipped_model_path("tstar"))
    return NamedSystem("checkerboard-7", system, (
        "tile-types-7",
        "locally-deterministic",
        "unique-terminal-assembly",
        "weak-coloring-valid",
        "plus-free",
    ))


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

    The file's own pi_nu is replaced by `pi_nu`; `replace` re-runs the
    model's validation, so an out-of-range value still raises.
    """
    if rule_id not in NUCLEATION_RULE_IDS:
        raise ValueError(f"unknown nucleation rule family {rule_id!r}; "
                         f"shipped: {NUCLEATION_RULE_IDS}")
    model, _ = load_agent_model(shipped_model_path("checkerboard_local"))
    return NamedSystem(f"checkerboard-local-pi{pi_nu}",
                       replace(model, pi_nu=pi_nu),
                       ("agent-model-valid",))


def fidelity_model() -> NamedSystem:
    """Two freely inter-binding agent types with reversible, error-permitting
    kinetics, used by the simulation-fidelity driver on small meshes.

    Both types carry the same glue everywhere and any abutting pair bonds at
    strength 1, so each cell next to an occupant legally accepts both types;
    that keeps every outcome's probability large enough for empirical
    support checks to be meaningful.
    """
    model, _ = load_agent_model(shipped_model_path("fidelity2"))
    return NamedSystem("fidelity-2type", model, ("agent-model-valid",))
