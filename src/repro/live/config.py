"""Configuration of the live assessment service."""

from __future__ import annotations

from dataclasses import dataclass, field

from ..core.funnel import FunnelConfig
from ..exceptions import ParameterError

__all__ = ["LiveConfig"]

#: ``(field, smallest valid value)`` of every numeric knob.
_LOWER_BOUNDS = (
    ("assessment_window_seconds", 1), ("baseline_bins", 1),
    ("queue_capacity", 1), ("max_fragments_per_tick", 0),
    ("max_active_changes", 0), ("max_control_units", 1),
    ("history_days", 0), ("score_chunk_bins", 1),
    ("close_grace_seconds", 0))


@dataclass(frozen=True)
class LiveConfig:
    """Knobs of the live pipeline (watcher, queues, scheduler, assessor).

    A tick reaches each session as one block that trackers only buffer;
    the scheduler's pool stage decides every pending tracker in one
    :func:`repro.live.detector.score_pass`, deadline flushes included.

    Attributes:
        funnel: the detection/attribution parameters (paper defaults).
        assessment_window_seconds: how long a change stays open before
            the scheduler auto-closes it; every KPI without a declared
            change by then gets a ``no_change`` verdict.  The default is
            the paper's one-hour assessment horizon.  The replay driver
            overrides it to the scenario's window length so live and
            offline assess the same data.
        baseline_bins: pre-change bins backfilled from the store when a
            change is admitted — the robust-normalisation baseline.
        queue_capacity: bound on each KPI's queued fragments; one
            beyond it sheds the stalest queued fragment (keeps the
            stream fresh, creates a gap the tracker detects).  Blocks
            over the same keys queue whole, so a full queue sheds a
            whole tick.
        max_fragments_per_tick: the scheduler's drain budget per tick
            across all changes (0 = unlimited).  Setting it below the
            ingest rate is how overload is simulated/handled: queues
            fill, the oldest fragments shed, memory stays bounded.
        max_active_changes: cap on concurrently assessed changes
            (0 = unlimited).  At capacity an arriving change is admitted
            only if its priority beats the lowest active one, which is
            then evicted; otherwise the new change is shed whole.
        max_control_units: cap on peer-control rows per DiD panel.
        history_days: days of historical control the store-backed
            provider fetches for full launches / service KPIs.
        score_chunk_bins: how many newly scoreable bins accumulate
            before one batched scoring call.  Larger chunks amortise the
            per-call cost (higher throughput) and delay *emission* by up
            to ``chunk - 1`` bins; declared indices and verdicts are
            unaffected, and any remainder is flushed at the deadline.
        close_grace_seconds: how long past its deadline a session stays
            open before the scheduler settles it.  With delayed-delivery
            faults injected, fragments for in-window bins can reach the
            store only after the deadline instant; a grace covering the
            worst injected delay lets them arrive and drain before the
            close.  Data beyond the deadline never reaches a detector —
            the assessor truncates every delivery at the session
            deadline — so a grace changes *when* verdicts emit, never
            what they say.
        repair_from_store: when the push stream skips ahead of a
            session's expected next bin (a dropped or reordered push),
            read the missing range back from the durable metric store
            instead of degrading the tracker, and reconcile any
            undelivered tail at session close.  Off by default: under
            queue-shedding overload the gap *is* the load-shedding
            signal and repairing it would undo the shed work.  The
            chaos-replay harness turns it on.
    """

    funnel: FunnelConfig = field(default_factory=FunnelConfig)
    assessment_window_seconds: int = 3600
    baseline_bins: int = 80
    queue_capacity: int = 64
    max_fragments_per_tick: int = 0
    max_active_changes: int = 0
    max_control_units: int = 8
    history_days: int = 2
    score_chunk_bins: int = 1
    close_grace_seconds: int = 0
    repair_from_store: bool = False

    def __post_init__(self) -> None:
        for name, low in _LOWER_BOUNDS:
            if getattr(self, name) < low:
                raise ParameterError("%s must be >= %s, got %r"
                                     % (name, low, getattr(self, name)))
