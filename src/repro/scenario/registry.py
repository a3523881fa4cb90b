"""The scenario registry and the topology family dispatch.

Two registries live here:

* **families** -- ``family name -> builder(TopologySpec) -> Network``.  The
  standard families (mesh, torus, hypercube, figure1, figure4, mesh3d,
  sparse-pillar) register at import; plugins (tests, fuzz generators) may
  add more via :func:`register_family`.
* **scenarios** -- ``name -> ScenarioSpec``.  ``repro.routing.catalog``
  populates it with every relation the repository certifies; the mapping
  object itself is exported there as ``CATALOG`` (``sorted(CATALOG)``,
  membership tests, ``CATALOG[name]``).

This module imports only :mod:`repro.topology`, never :mod:`repro.routing`,
so relation modules are free to import it for registration.
"""

from __future__ import annotations

from collections.abc import Callable, Iterator

from ..topology import (
    build_figure1_network,
    build_figure4_ring,
    build_hypercube,
    build_mesh,
    build_torus,
)
from ..topology.mesh3d import build_mesh3d, build_sparse_pillar_3d
from ..topology.network import Network
from .specs import ScenarioSpec, TopologySpec

# ----------------------------------------------------------------------
# topology families
# ----------------------------------------------------------------------
FamilyBuilder = Callable[[TopologySpec], Network]

_FAMILIES: dict[str, FamilyBuilder] = {}


def register_family(name: str, builder: FamilyBuilder, *, replace: bool = False) -> None:
    if not replace and name in _FAMILIES:
        raise ValueError(f"topology family {name!r} already registered")
    _FAMILIES[name] = builder


def family_names() -> tuple[str, ...]:
    return tuple(sorted(_FAMILIES))


def build_topology(spec: TopologySpec) -> Network:
    """Materialize a :class:`TopologySpec` via its family builder."""
    try:
        builder = _FAMILIES[spec.family]
    except KeyError:
        raise ValueError(
            f"unknown topology family {spec.family!r}; known: {family_names()}"
        ) from None
    return builder(spec)


def _need_dims(spec: TopologySpec, arity: int | None = None) -> tuple[int, ...]:
    if spec.dims is None:
        raise ValueError(f"topology family {spec.family!r} needs dims (got {spec!r})")
    if arity is not None and len(spec.dims) != arity:
        raise ValueError(
            f"topology family {spec.family!r} needs {arity} dims, got {spec.dims}")
    return spec.dims


def _build_mesh(spec: TopologySpec) -> Network:
    return build_mesh(_need_dims(spec), num_vcs=spec.vcs or 1)


def _build_torus(spec: TopologySpec) -> Network:
    return build_torus(_need_dims(spec), num_vcs=spec.vcs or 1)


def _build_hypercube(spec: TopologySpec) -> Network:
    return build_hypercube(_need_dims(spec, 1)[0], num_vcs=spec.vcs or 1)


def _build_mesh3d(spec: TopologySpec) -> Network:
    return build_mesh3d(_need_dims(spec, 3), num_vcs=spec.vcs or 2)


def _build_sparse_pillar(spec: TopologySpec) -> Network:
    return build_sparse_pillar_3d(
        _need_dims(spec, 3),
        pillars=spec.param_map.get("pillars"),
        num_vcs=spec.vcs or 2,
    )


register_family("mesh", _build_mesh)
register_family("torus", _build_torus)
register_family("hypercube", _build_hypercube)
register_family("figure1", lambda spec: build_figure1_network())
register_family("figure4", lambda spec: build_figure4_ring())
register_family("mesh3d", _build_mesh3d)
register_family("sparse-pillar", _build_sparse_pillar)


# ----------------------------------------------------------------------
# scenario registry
# ----------------------------------------------------------------------
#: the live registry mapping; ``routing.catalog.CATALOG`` is this object
REGISTRY: dict[str, ScenarioSpec] = {}


def register(spec: ScenarioSpec, *, replace: bool = False) -> ScenarioSpec:
    if not replace and spec.name in REGISTRY:
        raise ValueError(f"scenario {spec.name!r} already registered")
    if spec.topology.family not in _FAMILIES:
        raise ValueError(
            f"scenario {spec.name!r} uses unregistered family {spec.topology.family!r}")
    REGISTRY[spec.name] = spec
    return spec


def get(name: str) -> ScenarioSpec:
    """Look up a scenario; raises with the known names on a miss."""
    _ensure_populated()
    try:
        return REGISTRY[name]
    except KeyError:
        raise KeyError(
            f"unknown scenario {name!r}; known: {', '.join(sorted(REGISTRY))}"
        ) from None


def names() -> tuple[str, ...]:
    _ensure_populated()
    return tuple(sorted(REGISTRY))


def all_specs() -> Iterator[ScenarioSpec]:
    _ensure_populated()
    for name in sorted(REGISTRY):
        yield REGISTRY[name]


def for_family(family: str) -> list[ScenarioSpec]:
    """Every registered scenario whose canonical topology is ``family``."""
    return [spec for spec in all_specs() if spec.family == family]


def _ensure_populated() -> None:
    # The relation catalog registers its scenarios at import; importing it
    # here (not at module import) keeps the topology-only dependency rule.
    if not REGISTRY:
        from ..routing import catalog  # noqa: F401
