"""networkx views of dependency graphs: the suite's independent reference.

The package itself runs every graph question on
:class:`~repro.core.depgraph.DepGraph`; the tests cross-check it against
networkx (``simple_cycles``, ``transitive_closure``) on these views.
"""

from __future__ import annotations

import networkx as nx


def nx_view(dep, *, removed=()) -> nx.DiGraph:
    """``dep``'s channel edges as an ``nx.DiGraph``, minus any ``removed``."""
    skip = set(removed)
    g = nx.DiGraph()
    g.add_edges_from(e for e in dep.channel_edges() if e not in skip)
    return g
