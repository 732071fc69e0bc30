"""A small directed graph for service relationships.

The service-relationship structure FUNNEL consumes (paper section 3.1,
Fig. 4) is tiny — tens of services with request/response edges — so the
library carries its own dependency-free digraph rather than pulling in a
graph framework.  Edges are directed ("Service A sends requests and
responses to Service B"), but impact propagates along relationships in
either direction, so the traversals used for impact-set identification
treat the graph as undirected unless asked otherwise.
"""

from __future__ import annotations

from collections import deque
from typing import Dict, Iterator, Set

from ..exceptions import TopologyError

__all__ = ["ServiceGraph"]


class ServiceGraph:
    """Directed graph over hashable node names with reachability queries."""

    def __init__(self) -> None:
        self._successors: Dict[str, Set[str]] = {}
        self._predecessors: Dict[str, Set[str]] = {}

    # -- construction --------------------------------------------------------

    def add_node(self, node: str) -> None:
        """Register ``node``; adding an existing node is a no-op."""
        self._successors.setdefault(node, set())
        self._predecessors.setdefault(node, set())

    def add_edge(self, source: str, target: str) -> None:
        """Add the relationship ``source -> target``.

        Self-loops are rejected: a service is trivially related to itself
        and a loop would only distort traversals.
        """
        if source == target:
            raise TopologyError("self-relationship on %r" % source)
        self.add_node(source)
        self.add_node(target)
        self._successors[source].add(target)
        self._predecessors[target].add(source)

    # -- queries -------------------------------------------------------------

    def __contains__(self, node: str) -> bool:
        return node in self._successors

    def __len__(self) -> int:
        return len(self._successors)

    def __iter__(self) -> Iterator[str]:
        return iter(self._successors)

    # -- traversals ------------------------------------------------------------

    def reachable(self, start: str, directed: bool = False) -> Set[str]:
        """Every node reachable from ``start``, excluding ``start`` itself.

        Args:
            start: traversal origin.
            directed: follow only outgoing edges if True; by default the
                traversal is undirected, matching the paper's notion that
                impact flows along relationships both ways (Fig. 4: a
                change in A affects B, C and D; B and D are A's direct
                relations, C is related to B).  There is no hop limit.
        """
        self._require(start)
        frontier = deque([start])
        seen = {start}
        while frontier:
            node = frontier.popleft()
            step = (self._successors[node] if directed
                    else self._successors[node] | self._predecessors[node])
            for nxt in step:
                if nxt not in seen:
                    seen.add(nxt)
                    frontier.append(nxt)
        return seen - {start}

    def _require(self, node: str) -> None:
        if node not in self._successors:
            raise TopologyError("unknown service %r" % node)
