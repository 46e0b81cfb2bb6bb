"""Self-assembly workbench.

Core pieces: the abstract tile assembly model and its growth dynamics
(`tiles`, `engine`), d-regular agent models with multiple nucleation and a
one-round transition law (`agents`), a synchronous mesh-of-processors
simulation of those models (`meshnet`), weak c-coloring verification
(`coloring`), shipped systems (`systems`), and an experiment harness with a
CLI (`experiment`, `cli`).
"""

from .agents import (
    AgentModel,
    AgentType,
    BindingRules,
    Kinetics,
    TransitionLaw,
    embed_tile_system,
    model_step,
    nucleate,
)
from .coloring import Coloring, check_weak_coloring, find_monochromatic_plus
from .engine import (
    AssemblyResult,
    AssemblySequence,
    check_local_determinism,
    run,
    step,
    terminal_assemblies_equal,
)
from .lattice import Direction, Mesh, directions
from .meshnet import MeshNetwork
from .systems import checkerboard_tileset, fidelity_model, nucleation_family
from .tiles import (
    BindingGraph,
    Configuration,
    Glue,
    TileAssemblySystem,
    TileType,
    binding_strength,
    build_binding_graph,
    cut_strength,
    is_tau_stable,
)

__version__ = "0.1.0"

__all__ = [
    "AgentModel", "AgentType", "AssemblyResult", "AssemblySequence",
    "BindingGraph", "BindingRules", "Coloring", "Configuration",
    "Direction", "Glue", "Kinetics", "Mesh", "MeshNetwork",
    "TileAssemblySystem", "TileType", "TransitionLaw",
    "binding_strength", "build_binding_graph", "check_local_determinism",
    "check_weak_coloring", "checkerboard_tileset", "cut_strength",
    "directions", "embed_tile_system", "fidelity_model",
    "find_monochromatic_plus", "is_tau_stable", "model_step",
    "nucleate", "nucleation_family", "run", "step",
    "terminal_assemblies_equal",
]
