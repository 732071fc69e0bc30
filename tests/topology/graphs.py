"""The edge list of a :class:`~repro.topology.graph.ServiceGraph`, for
tests that check which relationships a fleet or a naming rule derived."""


def edges(graph):
    """Every ``(source, target)`` relationship of ``graph``, sorted."""
    return sorted((source, target) for source in graph
                  for target in graph._successors[source])
