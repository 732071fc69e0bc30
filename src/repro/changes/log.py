"""The change deployment log.

Paper section 3.1: "The set of tservers is directly obtained from the
software change logs."  The log is the source of truth FUNNEL reads
impact sets from; it also enforces the operational practice section 3.1
relies on: "The operations team usually does not deploy two software
changes in one service at the same time."
"""

from __future__ import annotations

from typing import Dict, Iterator, List

from ..exceptions import ChangeLogError
from .change import SoftwareChange

__all__ = ["ChangeLog"]

#: Two changes to the *same service* closer than this are rejected,
#: encoding the no-concurrent-changes practice (1 hour matches the
#: paper's assessment horizon).
CONCURRENCY_GUARD_SECONDS = 3600


class ChangeLog:
    """Append-only record of software changes, indexed by service and time."""

    def __init__(self) -> None:
        self._by_id: Dict[str, SoftwareChange] = {}
        self._by_service: Dict[str, List[SoftwareChange]] = {}

    def record(self, change: SoftwareChange) -> SoftwareChange:
        """Append a change; rejects duplicates and same-service overlaps."""
        if change.change_id in self._by_id:
            raise ChangeLogError("duplicate change id %r" % change.change_id)
        for other in self._by_service.get(change.service, ()):
            if (abs(other.at_time - change.at_time)
                    < CONCURRENCY_GUARD_SECONDS):
                raise ChangeLogError(
                    "change %s overlaps %s on service %r within the "
                    "%d-second guard"
                    % (change.change_id, other.change_id, change.service,
                       CONCURRENCY_GUARD_SECONDS)
                )
        self._by_id[change.change_id] = change
        self._by_service.setdefault(change.service, []).append(change)
        self._by_service[change.service].sort(key=lambda c: c.at_time)
        return change

    # -- queries -------------------------------------------------------------

    def __len__(self) -> int:
        return len(self._by_id)

    def __iter__(self) -> Iterator[SoftwareChange]:
        return iter(sorted(self._by_id.values(), key=lambda c: c.at_time))

    def get(self, change_id: str) -> SoftwareChange:
        try:
            return self._by_id[change_id]
        except KeyError:
            raise ChangeLogError("unknown change id %r" % change_id) from None
