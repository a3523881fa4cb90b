"""Routing relations, algorithms, selection functions, and path tools.

Implements Definitions 2-8 of the paper (routing relations of both the
general ``R(c_in, n, d)`` and Duato's ``R(n, d)`` forms, selection
functions, waiting channels) plus every routing algorithm the paper
discusses: the e-cube and turn-model baselines, Dally--Seitz torus routing,
Duato's fully adaptive algorithms, the paper's own Highest Positive Last
(Section 9.2) and Enhanced Fully Adaptive (Section 9.3), and the worked
examples of Figures 1 and 4.
"""

from .adaptive3d import MinimalAdaptive3D
from .catalog import CATALOG, make
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
from .paths import count_minimal_paths, count_paths, enumerate_paths, has_route, path_nodes
from .properties import (
    PropertyReport,
    is_coherent,
    is_connected,
    is_fully_adaptive,
    is_minimal,
    is_prefix_closed,
    is_suffix_closed,
    never_revisits_node,
    provides_minimal_path,
)
from .relation import (
    NodeDestRouting,
    RestrictedWaiting,
    RouteEntry,
    RouteTable,
    RoutingAlgorithm,
    RoutingError,
    WaitPolicy,
)
from .ring_example import RingExample
from .selection import (
    SELECTIONS,
    CreditSelection,
    RandomSelection,
    RoundRobinSelection,
    SelectionFunction,
    first_free,
    highest_vc_first,
    lowest_vc_first,
    make_selection,
    straight_first,
)
from .torus_vc import DallySeitzTorus
from .turn_model import NegativeFirst, NorthLast, WestFirst
from .unrestricted import UnrestrictedMinimal

__all__ = [
    "CATALOG",
    "CreditSelection",
    "DallySeitzTorus",
    "DimensionOrderHypercube",
    "DimensionOrderMesh",
    "DuatoFullyAdaptiveHypercube",
    "DuatoFullyAdaptiveMesh",
    "DuatoFullyAdaptiveTorus",
    "EnhancedFullyAdaptive",
    "HighestPositiveLast",
    "IncoherentExample",
    "MinimalAdaptive3D",
    "NegativeFirst",
    "NodeDestRouting",
    "NorthLast",
    "PropertyReport",
    "RandomSelection",
    "RelaxedEFA",
    "RestrictedWaiting",
    "RouteEntry",
    "RouteTable",
    "RingExample",
    "RoundRobinSelection",
    "RoutingAlgorithm",
    "RoutingError",
    "SELECTIONS",
    "SelectionFunction",
    "WaitPolicy",
    "WestFirst",
    "count_minimal_paths",
    "count_paths",
    "enumerate_paths",
    "first_free",
    "has_route",
    "highest_vc_first",
    "is_coherent",
    "is_connected",
    "is_fully_adaptive",
    "is_minimal",
    "is_prefix_closed",
    "is_suffix_closed",
    "lowest_vc_first",
    "make",
    "make_selection",
    "never_revisits_node",
    "path_nodes",
    "provides_minimal_path",
    "straight_first",
    "UnrestrictedMinimal",
    "DraperGhoshMECA",
    "LiStyleHypercube",
    "YangTsai",
]
