"""Service naming rules and the relationships derived from them.

Paper section 3.1: "the operations team names the services based on the
service hierarchy ... FUNNEL derives the relationship among services
using the naming rules."  This module models that practice:

* service names are dot-separated paths in a hierarchy, e.g.
  ``search.frontend.query`` is a child of ``search.frontend``;
* sibling and parent/child services in the hierarchy exchange requests by
  construction (a frontend talks to its backends), so naming alone yields
  a useful relationship graph that explicit edges can then extend.
"""

from __future__ import annotations

import re
from typing import Iterable, Sequence, Tuple

from ..exceptions import TopologyError
from .graph import ServiceGraph

__all__ = [
    "validate_service_name",
    "parent_of",
    "derive_relationships",
]

_NAME_SEGMENT = re.compile(r"^[a-z][a-z0-9_-]*$")


def validate_service_name(name: str) -> str:
    """Check a dot-separated service name; returns it unchanged.

    Raises:
        TopologyError: for empty names or malformed segments.
    """
    if not name:
        raise TopologyError("service name must be non-empty")
    for segment in name.split("."):
        if not _NAME_SEGMENT.match(segment):
            raise TopologyError(
                "invalid segment %r in service name %r" % (segment, name)
            )
    return name


def parent_of(name: str) -> str:
    """The immediate parent of ``name`` in the hierarchy, or ``""``."""
    validate_service_name(name)
    head, _, _ = name.rpartition(".")
    return head


def derive_relationships(names: Sequence[str],
                         explicit_edges: Iterable[Tuple[str, str]] = ()
                         ) -> ServiceGraph:
    """Build the service-relationship graph from names plus explicit edges.

    Naming rules contribute edges between services whose names are
    hierarchy-adjacent: a parent is related to each of its children
    (``search`` -> ``search.frontend``), and siblings under the same
    parent are related to each other (``search.frontend`` <->
    ``search.backend``) since a service tier typically fans out to its
    peer tiers.  Explicit edges (from the operations team's relationship
    inventory) are merged on top.

    Only the *given* names become nodes: a parent that is not itself a
    deployed service does not appear (its children are still linked as
    siblings).
    """
    graph = ServiceGraph()
    known = set()
    for name in names:
        validate_service_name(name)
        if name in known:
            raise TopologyError("duplicate service name %r" % name)
        known.add(name)
        graph.add_node(name)

    by_parent: dict = {}
    for name in known:
        by_parent.setdefault(parent_of(name), []).append(name)

    for name in sorted(known):
        parent = parent_of(name)
        if parent in known:
            graph.add_edge(parent, name)
    for siblings in by_parent.values():
        ordered = sorted(siblings)
        for i, first in enumerate(ordered):
            for second in ordered[i + 1:]:
                graph.add_edge(first, second)

    for source, target in explicit_edges:
        if source not in known or target not in known:
            raise TopologyError(
                "explicit edge %r -> %r references an unknown service"
                % (source, target)
            )
        graph.add_edge(source, target)
    return graph
