"""The rule registry and the initial rule pack.

Rules are small pure functions over an :class:`AnalysisContext` (which
lazily builds and shares the transition cache, CWG, CDG, and triage), each
registered with an id, a default severity, and the paper clause it
encodes.  :class:`RuleConfig` turns rules off or overrides their severity
per run; the CLI and the baseline layer sit on top of that.

Rule pack
---------

========  ========================  ========  ===================================
id        name                      severity  paper clause
========  ========================  ========  ===================================
RR001     not-wait-connected        error     Definition 10 (theorem precondition)
RR002     incoherent-relation       warning   Definitions 5--7 (Duato hypotheses;
                                              *not* required by the CWG theorems)
RR003     unreachable-pair          error     Definitions 1--2 (the relation must
                                              deliver every source/dest pair)
RH101     dead-channel              info      Definition 2 reachability (hardware
                                              no message can ever occupy)
RH102     unreachable-table-entry   info      table entries at routing states no
                                              message reaches (dead relation rows)
RH103     asymmetric-physical-link  info      Definition 1 (one-way adjacencies;
                                              legal, but often an omission)
RH104     self-waiting-channel      warning   Definition 9 (a length-1 CWG cycle;
                                              Section 7.2 decides if it is True)
RT201     forced-deadlock-cycle     error     Theorem 2/3 necessity via the
                                              scc-condensation triage screen
========  ========================  ========  ===================================
"""

from __future__ import annotations

from collections.abc import Callable, Iterable, Iterator
from dataclasses import dataclass, field

from ..core.cwg import ChannelWaitingGraph, wait_connected
from ..core.depgraph import bits, mask_of_ints
from ..core.transitions import TransitionCache
from ..deps.cdg import ChannelDependencyGraph
from ..routing.relation import RoutingAlgorithm
from .diagnostics import Diagnostic, Location, Severity, sort_diagnostics
from .screens import TriageResult, triage


class AnalysisContext:
    """Shared lazily-built state all rules read from.

    One context per analysis target; graphs are built at most once and may
    be injected by callers that already have them (the incremental session
    injects views of its maintained kernels).  The condition dispatcher
    (:func:`repro.verify.dispatch.decide`) reads its graphs and triage from
    one context per relation, so triage and the conditions share them.
    """

    def __init__(
        self,
        algorithm: RoutingAlgorithm,
        *,
        transitions: TransitionCache | None = None,
        cwg: ChannelWaitingGraph | None = None,
        cdg: ChannelDependencyGraph | None = None,
    ) -> None:
        self.algorithm = algorithm
        self.network = algorithm.network
        self.transitions = transitions or (
            cwg.transitions if cwg is not None else TransitionCache(algorithm)
        )
        self._cwg = cwg
        self._cdg = cdg
        self._wait_connectivity: tuple[bool, str] | None = None
        self._triage: TriageResult | None = None

    @property
    def cwg(self) -> ChannelWaitingGraph:
        if self._cwg is None:
            self._cwg = ChannelWaitingGraph(self.algorithm, transitions=self.transitions)
        return self._cwg

    @property
    def cdg(self) -> ChannelDependencyGraph:
        if self._cdg is None:
            self._cdg = ChannelDependencyGraph(self.algorithm, transitions=self.transitions)
        return self._cdg

    @property
    def wait_connectivity(self) -> tuple[bool, str]:
        if self._wait_connectivity is None:
            self._wait_connectivity = wait_connected(
                self.algorithm, transitions=self.transitions
            )
        return self._wait_connectivity

    @property
    def triage(self) -> TriageResult:
        if self._triage is None:
            self._triage = triage(
                self.algorithm,
                transitions=self.transitions,
                cwg=self._cwg,
                cdg=self.cdg,
                cwg_builder=lambda: self.cwg,
            )
        return self._triage


RuleCheck = Callable[[AnalysisContext], Iterator[Diagnostic]]


@dataclass(frozen=True)
class Rule:
    """A registered rule: identity, default severity, paper clause, check."""

    id: str
    name: str
    severity: Severity
    summary: str
    clause: str
    check: RuleCheck

    def help_text(self) -> str:
        return f"{self.summary} [{self.clause}]"


REGISTRY: dict[str, Rule] = {}


def rule(id: str, name: str, severity: Severity, summary: str, clause: str):
    """Register a rule check function under ``id``."""

    def register(fn: RuleCheck) -> RuleCheck:
        if id in REGISTRY:
            raise ValueError(f"duplicate rule id {id!r}")
        REGISTRY[id] = Rule(id, name, severity, summary, clause, fn)
        return fn

    return register


def resolve_rule(token: str) -> Rule:
    """Look a rule up by id (``RR001``) or name (``not-wait-connected``)."""
    t = token.strip()
    if t.upper() in REGISTRY:
        return REGISTRY[t.upper()]
    for r in REGISTRY.values():
        if r.name == t:
            return r
    raise ValueError(f"unknown rule {token!r}; have {sorted(REGISTRY)}")


@dataclass
class RuleConfig:
    """Per-run rule selection and severity overrides."""

    disabled: frozenset[str] = frozenset()
    #: when nonempty, only these rule ids run
    selected: frozenset[str] = frozenset()
    severities: dict[str, Severity] = field(default_factory=dict)

    @classmethod
    def from_tokens(
        cls,
        *,
        disable: Iterable[str] = (),
        select: Iterable[str] = (),
        severities: dict[str, str] | None = None,
    ) -> "RuleConfig":
        return cls(
            disabled=frozenset(resolve_rule(t).id for t in disable),
            selected=frozenset(resolve_rule(t).id for t in select),
            severities={
                resolve_rule(k).id: Severity.parse(v)
                for k, v in (severities or {}).items()
            },
        )

    def enabled(self, r: Rule) -> bool:
        if r.id in self.disabled:
            return False
        return not self.selected or r.id in self.selected

    def severity_for(self, r: Rule) -> Severity:
        return self.severities.get(r.id, r.severity)


def run_rules(ctx: AnalysisContext, config: RuleConfig | None = None) -> list[Diagnostic]:
    """Run every enabled rule; returns canonically sorted diagnostics."""
    config = config or RuleConfig()
    out: list[Diagnostic] = []
    for rid in sorted(REGISTRY):
        r = REGISTRY[rid]
        if not config.enabled(r):
            continue
        severity = config.severity_for(r)
        for d in r.check(ctx):
            if d.severity is not severity:
                d = d.with_severity(severity)
            out.append(d)
    return sort_diagnostics(out)


# ----------------------------------------------------------------------
# precondition rules
# ----------------------------------------------------------------------
@rule("RR001", "not-wait-connected", Severity.ERROR,
      "the relation is not wait-connected: some reachable state has no "
      "usable waiting channel",
      "Definition 10")
def check_wait_connected(ctx: AnalysisContext) -> Iterator[Diagnostic]:
    ok, why = ctx.wait_connectivity
    if not ok:
        yield Diagnostic(
            rule="RR001", severity=Severity.ERROR,
            message=f"relation is not wait-connected: {why}",
            location=Location("relation"),
            suggestion=(
                "ensure every reachable routing state keeps a nonempty "
                "waiting set inside its route set (Definition 10); the "
                "theorem checker refutes such relations outright"
            ),
        )


@rule("RR002", "incoherent-relation", Severity.WARNING,
      "the relation is not coherent (prefix/suffix closure or node revisits "
      "fail) -- Duato's condition does not apply, only the CWG theorems do",
      "Definitions 5-7")
def check_coherent(ctx: AnalysisContext) -> Iterator[Diagnostic]:
    from ..routing.properties import is_coherent

    rep = is_coherent(ctx.algorithm, transitions=ctx.transitions)
    if not rep:
        yield Diagnostic(
            rule="RR002", severity=Severity.WARNING,
            message=f"relation is not coherent: {rep.counterexample}",
            location=Location("relation"),
            suggestion=(
                "incoherence is legal for the CWG theorems (Section 9 relies "
                "on it) but disqualifies Duato-style escape analysis; verify "
                "with `python -m repro verify`, not the ECDG condition"
            ),
        )


@rule("RR003", "unreachable-pair", Severity.ERROR,
      "some source cannot deliver to some destination under the relation",
      "Definitions 1-2")
def check_pairs_deliverable(ctx: AnalysisContext) -> Iterator[Diagnostic]:
    net = ctx.network
    for dest in net.nodes:
        dt = ctx.transitions[dest]
        for src in net.nodes:
            if src == dest:
                continue
            reach = dt.reachable_from(net.injection_channel(src))
            if not any(c.dst == dest for c in reach):
                yield Diagnostic(
                    rule="RR003", severity=Severity.ERROR,
                    message=f"no permitted path delivers {src} -> {dest}",
                    location=Location("pair", nodes=(src, dest)),
                    suggestion=(
                        "extend the relation (or repair the topology) so every "
                        "ordered node pair has a permitted path; undeliverable "
                        "pairs make every freedom verdict vacuous for them"
                    ),
                )


# ----------------------------------------------------------------------
# hygiene rules
# ----------------------------------------------------------------------
@rule("RH101", "dead-channel", Severity.INFO,
      "a link channel no message can ever occupy, for any destination",
      "Definition 2 reachability")
def check_dead_channels(ctx: AnalysisContext) -> Iterator[Diagnostic]:
    used = 0
    for dt in ctx.transitions.all_destinations():
        used |= mask_of_ints(dt.usable_cids)
    for cid in bits(ctx.network.link_mask & ~used):
        c = ctx.network.channel(cid)
        yield Diagnostic(
            rule="RH101", severity=Severity.INFO,
            message=(
                f"channel c{cid} ({c.src}->{c.dst} vc{c.vc}) is unreachable "
                "from every injection channel: dead hardware"
            ),
            location=Location("channel", channels=(cid,)),
            suggestion=(
                "remove the channel or extend the relation to use it; dead "
                "channels inflate every graph the checkers build"
            ),
        )


@rule("RH102", "unreachable-table-entry", Severity.INFO,
      "a routing-table entry defined at a state no message ever reaches",
      "Definition 2 reachability")
def check_table_entries(ctx: AnalysisContext) -> Iterator[Diagnostic]:
    case = getattr(ctx.algorithm, "case", None)
    routes = getattr(case, "routes", None)
    if not isinstance(routes, dict):
        return  # only table-backed relations carry an explicit entry list
    net = ctx.network
    heads, links = net.heads, net.link_mask
    reachable: set[str] = set()
    nd = bool(getattr(case, "nd", False))
    for dt in ctx.transitions.all_destinations():
        for a, out in dt.succ_masks.items():
            if not out:
                continue
            if nd:
                reachable.add(f"n{heads[a]}->{dt.dest}")
            elif links >> a & 1:
                reachable.add(f"c{a}->{dt.dest}")
            else:  # an injection channel starts and ends at its node
                reachable.add(f"i{heads[a]}->{dt.dest}")
    for key in sorted(routes):
        if key in reachable or not routes[key]:
            continue
        state, _, dest = key.partition("->")
        channels: tuple[int, ...] = ()
        nodes: tuple[int, ...] = ()
        if state.startswith("c") and state[1:].isdigit():
            channels = (int(state[1:]),)
        elif state[1:].isdigit():
            nodes = (int(state[1:]),)
        if dest.isdigit() and int(dest) < net.num_nodes:
            nodes = nodes + (int(dest),)
        yield Diagnostic(
            rule="RH102", severity=Severity.INFO,
            message=f"table entry {key!r} is defined but its state is unreachable",
            location=Location("state", channels=channels, nodes=nodes),
            suggestion="delete the entry; unreachable rows cannot affect any verdict",
        )


@rule("RH103", "asymmetric-physical-link", Severity.INFO,
      "an adjacent node pair is connected in one direction only",
      "Definition 1")
def check_symmetric_links(ctx: AnalysisContext) -> Iterator[Diagnostic]:
    adjacent: set[tuple[int, int]] = set()
    for c in ctx.network.link_channels:
        adjacent.add((c.src, c.dst))
    for (a, b) in sorted(adjacent):
        if (b, a) not in adjacent:
            yield Diagnostic(
                rule="RH103", severity=Severity.INFO,
                message=(
                    f"physical link {a} -> {b} has no reverse channel: "
                    "traffic b->a must route around"
                ),
                location=Location("pair", nodes=(a, b)),
                suggestion=(
                    "one-way adjacencies are legal (the Figure 1/4 rings use "
                    "them) but double-check the omission was intended"
                ),
            )


@rule("RH104", "self-waiting-channel", Severity.WARNING,
      "a channel can wait on itself: a length-1 CWG cycle",
      "Definition 9 / Section 7.2")
def check_self_waits(ctx: AnalysisContext) -> Iterator[Diagnostic]:
    dep = ctx.cwg.dep
    for u in dep.self_loops():
        dests = sorted(bits(dep.mask_of(u, u)))
        yield Diagnostic(
            rule="RH104", severity=Severity.WARNING,
            message=(
                f"channel c{u} can wait on itself "
                f"(destinations {dests}): a one-channel CWG cycle"
            ),
            location=Location("channel", channels=(u,)),
            witness=tuple(f"dest {d}" for d in dests),
            suggestion=(
                "a self-wait is a cycle the Section 7.2 classifier must "
                "analyze; if it is a True Cycle the relation deadlocks with "
                "a single message"
            ),
        )


# ----------------------------------------------------------------------
# triage-backed rules
# ----------------------------------------------------------------------
@rule("RT201", "forced-deadlock-cycle", Severity.ERROR,
      "the scc-condensation screen found a forced cycle: a reachable "
      "Definition 12 deadlock configuration exists",
      "Theorem 2/3 necessity")
def check_forced_cycle(ctx: AnalysisContext) -> Iterator[Diagnostic]:
    screen = ctx.triage.screen("scc-condensation")
    if screen is None or screen.outcome != "deadlock":
        return
    cycle = [int(u) for u in screen.witness["cycle"]]
    dests = [int(d) for d in screen.witness["cycle_dests"]]
    witness = tuple(
        f"c{cycle[i]} -> c{cycle[(i + 1) % len(cycle)]} (dest {dests[i]})"
        for i in range(len(cycle))
    )
    yield Diagnostic(
        rule="RT201", severity=Severity.ERROR,
        message=(
            "forced deadlock cycle "
            + "->".join(f"c{u}" for u in cycle) + f"->c{cycle[0]}: "
            "every hop is a source-startable forced wait"
        ),
        location=Location("cycle", channels=tuple(cycle)),
        witness=witness,
        suggestion=(
            "break the cycle: add an escape channel, widen a waiting set "
            "(under wait-on-any), or restrict the relation so some hop "
            "is no longer forced"
        ),
    )


#: re-exported convenience: every rule in id order
def all_rules() -> list[Rule]:
    return [REGISTRY[rid] for rid in sorted(REGISTRY)]


__all__ = [
    "AnalysisContext", "Rule", "RuleConfig", "REGISTRY",
    "all_rules", "resolve_rule", "rule", "run_rules",
]
