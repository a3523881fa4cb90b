"""Frozen scenario specs and their stable string/JSON codecs.

A *scenario* is everything a driver needs to reproduce one verification or
simulation setup: a named routing relation, the topology instance it runs
on, and the simulator policy knobs (virtual-channel count, output-selection
policy).  Before this layer existed every driver encoded that as its own
``(algorithm, topology, dims, vcs)`` tuple convention; these dataclasses are
the single replacement.

Codecs
------
``TopologySpec.describe()`` renders a stable, order-independent string form
(``sparse-pillar:3x3x3:v2:pillars=0.0+1.0+2.0``) that
:func:`TopologySpec.parse` round-trips; ``to_json``/``from_json`` do the
same for JSON documents.  Both forms are pinned by tests -- they appear in
sweep output, golden-case identifiers, and the corpus, so changing them is a
fixture-regeneration event, not a refactor.
"""

from __future__ import annotations

import dataclasses
import re
from collections.abc import Callable, Mapping, Sequence
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Any

if TYPE_CHECKING:  # import cycle: routing imports scenario for registration
    from ..routing.relation import RoutingAlgorithm
    from ..topology.network import Network

#: parameter keys the codecs understand; anything else is rejected eagerly
#: so a typo cannot silently produce an unreproducible spec string.
_PARAM_CODECS: dict[str, tuple[Callable[[Any], str], Callable[[str], Any]]] = {
    "pillars": (
        lambda v: "+".join(f"{x}.{y}" for x, y in v),
        lambda s: tuple(tuple(int(p) for p in part.split(".")) for part in s.split("+")),
    ),
}

_DIMS_RE = re.compile(r"^\d+(x\d+)*$")
_VCS_RE = re.compile(r"^v\d+$")


def _freeze_params(params: Mapping[str, Any] | Sequence[tuple[str, Any]] | None,
                   ) -> tuple[tuple[str, Any], ...]:
    if not params:
        return ()
    items = sorted(dict(params).items())
    for key, _ in items:
        if key not in _PARAM_CODECS:
            raise ValueError(
                f"unknown topology parameter {key!r}; known: {sorted(_PARAM_CODECS)}")
    return tuple(items)


@dataclass(frozen=True)
class TopologySpec:
    """One reproducible topology instance: family + dims + VCs + extras.

    ``dims`` is ``None`` for fixed example networks (figure1/figure4);
    ``vcs`` is ``None`` when the consuming scenario's ``min_vcs`` should
    decide.  ``params`` holds family-specific extras (currently the kept
    ``pillars`` of the sparse-pillar family) as a sorted key/value tuple so
    the spec stays hashable and order-independent.
    """

    family: str
    dims: tuple[int, ...] | None = None
    vcs: int | None = None
    params: tuple[tuple[str, Any], ...] = field(default=())

    def __post_init__(self) -> None:
        object.__setattr__(self, "dims",
                           None if self.dims is None else tuple(int(d) for d in self.dims))
        if self.vcs is not None and self.vcs < 1:
            # the family builders would read a falsy count as their default
            raise ValueError("num_vcs must be >= 1")
        object.__setattr__(self, "params", _freeze_params(self.params))

    # ------------------------------------------------------------------
    # derived views
    # ------------------------------------------------------------------
    @property
    def param_map(self) -> dict[str, Any]:
        return dict(self.params)

    def with_dims(self, dims: Sequence[int] | int | None) -> "TopologySpec":
        """A copy with replaced ``dims`` (ints become 1-tuples: hypercube order)."""
        if dims is None:
            return self
        if isinstance(dims, int):
            dims = (dims,)
        return dataclasses.replace(self, dims=tuple(int(d) for d in dims))

    def with_vcs(self, vcs: int | None) -> "TopologySpec":
        return self if vcs is None else dataclasses.replace(self, vcs=int(vcs))

    def build(self) -> "Network":
        """Materialize the network via the registered family builder."""
        from .registry import build_topology

        return build_topology(self)

    # ------------------------------------------------------------------
    # string codec
    # ------------------------------------------------------------------
    def describe(self) -> str:
        parts = [self.family]
        if self.dims is not None:
            parts.append("x".join(str(d) for d in self.dims))
        if self.vcs is not None:
            parts.append(f"v{self.vcs}")
        for key, value in self.params:
            render, _ = _PARAM_CODECS[key]
            parts.append(f"{key}={render(value)}")
        return ":".join(parts)

    @classmethod
    def parse(cls, text: str) -> "TopologySpec":
        parts = text.split(":")
        if not parts or not parts[0]:
            raise ValueError(f"empty topology spec {text!r}")
        family = parts[0]
        dims: tuple[int, ...] | None = None
        vcs: int | None = None
        params: dict[str, Any] = {}
        for token in parts[1:]:
            if _DIMS_RE.match(token):
                dims = tuple(int(d) for d in token.split("x"))
            elif _VCS_RE.match(token):
                vcs = int(token[1:])
            elif "=" in token:
                key, _, raw = token.partition("=")
                if key not in _PARAM_CODECS:
                    raise ValueError(f"unknown topology parameter {key!r} in {text!r}")
                params[key] = _PARAM_CODECS[key][1](raw)
            else:
                raise ValueError(f"unparseable topology token {token!r} in {text!r}")
        return cls(family=family, dims=dims, vcs=vcs, params=tuple(sorted(params.items())))

    # ------------------------------------------------------------------
    # JSON codec
    # ------------------------------------------------------------------
    def to_json(self) -> dict[str, Any]:
        return {
            "family": self.family,
            "dims": None if self.dims is None else list(self.dims),
            "vcs": self.vcs,
            "params": {k: [list(p) for p in v] if k == "pillars" else v
                       for k, v in self.params},
        }

    @classmethod
    def from_json(cls, doc: Mapping[str, Any]) -> "TopologySpec":
        params: dict[str, Any] = {}
        for key, value in (doc.get("params") or {}).items():
            if key == "pillars":
                value = tuple(tuple(int(c) for c in p) for p in value)
            params[key] = value
        dims = doc.get("dims")
        return cls(
            family=str(doc["family"]),
            dims=None if dims is None else tuple(int(d) for d in dims),
            vcs=None if doc.get("vcs") is None else int(doc["vcs"]),
            params=tuple(sorted(params.items())),
        )


@dataclass(frozen=True)
class ScenarioSpec:
    """One registered scenario: relation factory + canonical topology + knobs.

    ``topology`` is the *canonical verification-sized* instance; drivers
    that want other sizes derive them with :meth:`topology_for` /
    ``TopologySpec.with_dims`` rather than inventing their own dims
    convention.
    """

    #: registry key, e.g. ``"duato-mesh"``
    name: str
    #: builds the relation on a compatible network
    factory: Callable[["Network"], "RoutingAlgorithm"] = field(compare=False)
    #: canonical topology instance (family + verify-sized dims)
    topology: TopologySpec = field()
    #: virtual channels the relation needs
    min_vcs: int = 1
    #: "nonadaptive", "partial", or "full"
    adaptivity: str = "nonadaptive"
    #: the expected verdict (pinned against the verifiers by CI)
    deadlock_free: bool = True
    #: which result certifies / refutes it
    certified_by: str = ""
    notes: str = ""
    #: named output-selection policy (see ``repro.routing.selection.SELECTIONS``)
    selection: str = "first-free"

    @property
    def family(self) -> str:
        return self.topology.family

    def topology_for(self,
                     family_dims: Mapping[str, Sequence[int] | int] | None = None,
                     *, dims: Sequence[int] | int | None = None,
                     vcs: int | None = None) -> TopologySpec:
        """The canonical topology resized for a driver's context.

        ``family_dims`` maps family name -> dims override (how sweep/pipeline
        express "meshes at 8x8, hypercubes at dimension 5"); an explicit
        ``dims`` wins over it.  A missing ``vcs`` resolves to ``min_vcs`` so
        the built network always carries enough virtual channels.
        """
        spec = self.topology
        if dims is not None:
            spec = spec.with_dims(dims)
        elif family_dims and spec.family in family_dims:
            spec = spec.with_dims(family_dims[spec.family])
        if vcs is not None:
            spec = spec.with_vcs(vcs)
        elif spec.vcs is None:
            spec = spec.with_vcs(self.min_vcs)
        return spec

    def instantiate(self,
                    family_dims: Mapping[str, Sequence[int] | int] | None = None,
                    *, dims: Sequence[int] | int | None = None,
                    vcs: int | None = None,
                    network: "Network | None" = None) -> "RoutingAlgorithm":
        """Build the network (unless given) and the relation on it."""
        if network is None:
            network = self.topology_for(family_dims, dims=dims, vcs=vcs).build()
        return self.factory(network)

    def to_json(self) -> dict[str, Any]:
        return {
            "name": self.name,
            "topology": self.topology.to_json(),
            "min_vcs": self.min_vcs,
            "adaptivity": self.adaptivity,
            "deadlock_free": self.deadlock_free,
            "certified_by": self.certified_by,
            "notes": self.notes,
            "selection": self.selection,
        }
