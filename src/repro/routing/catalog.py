"""Catalog of routing algorithms, registered as first-class scenarios.

Benchmarks, examples, and the CLI look algorithms up by name here instead of
importing classes directly.  Since the scenario layer landed, this module is
the *population site* of :mod:`repro.scenario`: every entry is a
:class:`~repro.scenario.ScenarioSpec` (relation factory, canonical
verification-sized :class:`~repro.scenario.TopologySpec`, VC requirement,
certifying theorem, expected verdict, selection policy) registered into the
shared registry.  ``CATALOG`` *is* that registry mapping -- existing callers
keep iterating ``sorted(CATALOG)`` and indexing ``CATALOG[name]``.
"""

from __future__ import annotations

from collections.abc import Callable, Sequence
from typing import Any

from .. import scenario
from ..scenario import ScenarioSpec, TopologySpec
from ..topology.network import Network
from .adaptive3d import MinimalAdaptive3D
from .duato_adaptive import (
    DuatoFullyAdaptiveHypercube,
    DuatoFullyAdaptiveMesh,
    DuatoFullyAdaptiveTorus,
)
from .ecube import DimensionOrderHypercube, DimensionOrderMesh
from .efa import EnhancedFullyAdaptive, RelaxedEFA
from .hpl import HighestPositiveLast
from .incoherent import IncoherentExample
from .prior_hypercube import DraperGhoshMECA, LiStyleHypercube, YangTsai
from .relation import RoutingAlgorithm
from .ring_example import RingExample
from .torus_vc import DallySeitzTorus
from .turn_model import NegativeFirst, NorthLast, WestFirst
from .unrestricted import UnrestrictedMinimal

#: the live scenario registry (shared object, not a copy)
CATALOG: dict[str, ScenarioSpec] = scenario.REGISTRY


def _register(
    name: str,
    factory: Callable[[Network], RoutingAlgorithm],
    family: str,
    min_vcs: int,
    adaptivity: str,
    deadlock_free: bool,
    certified_by: str,
    notes: str = "",
    *,
    dims: Sequence[int] | None = None,
    params: Sequence[tuple[str, Any]] = (),
    selection: str = "first-free",
) -> None:
    scenario.register(ScenarioSpec(
        name=name,
        factory=factory,
        topology=TopologySpec(
            family=family,
            dims=None if dims is None else tuple(dims),
            params=tuple(params),
        ),
        min_vcs=min_vcs,
        adaptivity=adaptivity,
        deadlock_free=deadlock_free,
        certified_by=certified_by,
        notes=notes,
        selection=selection,
    ))


# Canonical dims are the verification-sized instances the batch pipeline and
# the pinned verdict matrices have always used: 4x4 grids, dimension-3 cubes.
_register(
    "e-cube-mesh", DimensionOrderMesh, "mesh", 1, "nonadaptive", True,
    "Dally-Seitz (acyclic CDG)", dims=(4, 4),
)
_register(
    "e-cube", DimensionOrderHypercube, "hypercube", 1, "nonadaptive", True,
    "Dally-Seitz (acyclic CDG)", dims=(3,),
)
_register(
    "dally-seitz-torus", DallySeitzTorus, "torus", 2, "nonadaptive", True,
    "Dally-Seitz (acyclic CDG)", "dateline virtual channels", dims=(4, 4),
)
_register(
    "negative-first", NegativeFirst, "mesh", 1, "partial", True,
    "Dally-Seitz (acyclic CDG)", "turn model", dims=(4, 4),
)
_register(
    "west-first", WestFirst, "mesh", 1, "partial", True,
    "Dally-Seitz (acyclic CDG)", "turn model, 2D", dims=(4, 4),
)
_register(
    "north-last", NorthLast, "mesh", 1, "partial", True,
    "Dally-Seitz (acyclic CDG)", "turn model, 2D", dims=(4, 4),
)
_register(
    "highest-positive-last", HighestPositiveLast, "mesh", 1, "partial", True,
    "Theorem 2 (acyclic CWG; CDG is cyclic)",
    "the paper's Section 9.2 algorithm; nonminimal, incoherent, 0 extra VCs",
    dims=(4, 4),
)
_register(
    "enhanced-fully-adaptive", EnhancedFullyAdaptive, "hypercube", 2, "full", True,
    "Theorem 2 (no True Cycles)",
    "the paper's Section 9.3 algorithm; incoherent, partially adaptive first VC class",
    dims=(3,),
)
_register(
    "relaxed-efa", RelaxedEFA, "hypercube", 2, "full", False,
    "Theorem 2 necessity (True Cycle exists)", "Theorem 6 relaxation", dims=(3,),
)
_register(
    "duato-mesh", DuatoFullyAdaptiveMesh, "mesh", 2, "full", True,
    "Duato's condition / Theorem 2", "escape VC class = dimension order",
    dims=(4, 4),
)
_register(
    "duato-hypercube", DuatoFullyAdaptiveHypercube, "hypercube", 2, "full", True,
    "Duato's condition / Theorem 2", "escape VC class = dimension order",
    dims=(3,),
)
_register(
    "duato-torus", DuatoFullyAdaptiveTorus, "torus", 3, "full", True,
    "Duato's condition / Theorem 2", "escape = Dally-Seitz dateline pair",
    dims=(4, 4),
)
_register(
    "incoherent-example", IncoherentExample, "figure1", 1, "partial", True,
    "Theorem 3 (CWG' exists); deadlocks under specific-waiting",
    "Duato's Figure-1 incoherent example",
)
_register(
    "ring-figure4", RingExample, "figure4", 4, "partial", True,
    "Theorem 2 (all CWG cycles are False Resource Cycles)",
    "Section 7.1 minimal-routing ring",
)
_register(
    "unrestricted-minimal", UnrestrictedMinimal, "mesh", 1, "full", False,
    "Theorem 2/3 necessity (True Cycles exist)",
    "the Dally-Seitz negative example: no restrictions at all", dims=(4, 4),
)
_register(
    "draper-ghosh-meca", DraperGhoshMECA, "hypercube", 2, "partial", True,
    "Theorem 2 (acyclic CWG)",
    "Section 9.1 baseline: skip-ahead + strict e-cube escape", dims=(3,),
)
_register(
    "yang-tsai", YangTsai, "hypercube", 2, "partial", True,
    "Dally-Seitz / Theorem 2",
    "Section 9.1 baseline: positive phase then negative, twice", dims=(3,),
)
_register(
    "li-hypercube", LiStyleHypercube, "hypercube", 1, "partial", True,
    "Theorem 2 (acyclic CWG)",
    "Section 9.1 baseline: 1-VC sign-disciplined partial adaptivity", dims=(3,),
)

# --- the 3D / pillar-sparse scenarios ---------------------------------
_register(
    "adaptive-mesh3d", MinimalAdaptive3D, "mesh3d", 2, "full", True,
    "Duato's condition / Theorem 2",
    "table-driven minimal candidates; vc0 = dimension-ordered escape",
    dims=(3, 3, 3), selection="credit",
)
_register(
    "pillar-wall-3d", MinimalAdaptive3D, "sparse-pillar", 2, "full", True,
    "Duato's condition / Theorem 2",
    "vertical links only on the collinear y=0 pillar wall; BFS-minimal "
    "candidates bend through it, escape stays acyclic",
    dims=(3, 3, 3), params=(("pillars", ((0, 0), (1, 0), (2, 0))),),
    selection="credit",
)
_register(
    "pillar-diag-3d", MinimalAdaptive3D, "sparse-pillar", 2, "full", False,
    "Theorem 2 necessity (True Cycle exists)",
    "two non-collinear pillars: dimension-ordered escape ascends one and "
    "descends the other, closing a True Cycle",
    dims=(3, 3, 3), params=(("pillars", ((0, 0), (2, 2))),),
    selection="credit",
)


def make(name: str, network: Network, **kwargs: Any) -> RoutingAlgorithm:
    """Instantiate a cataloged algorithm on ``network``."""
    try:
        entry = CATALOG[name]
    except KeyError:
        raise KeyError(f"unknown routing algorithm {name!r}; have {sorted(CATALOG)}") from None
    return entry.factory(network, **kwargs)  # type: ignore[call-arg]
