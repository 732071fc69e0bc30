"""Configuration of the live assessment service."""

from __future__ import annotations

from dataclasses import dataclass, field

from ..core.funnel import FunnelConfig
from ..exceptions import ParameterError

__all__ = ["LiveConfig", "DROP_OLDEST", "DROP_NEWEST"]

#: Load-shedding policies for a full per-KPI ingest queue.
DROP_OLDEST = "drop_oldest"
DROP_NEWEST = "drop_newest"


@dataclass(frozen=True)
class LiveConfig:
    """Knobs of the live pipeline (watcher, queues, scheduler, assessor).

    There is one ingest path and one scoring path: a tick's block
    reaches each session's queues as one batch, trackers buffer what
    the tick drains, and the scheduler's pool stage decides every
    pending tracker in one :func:`repro.live.detector.score_pass`
    before any deadline close, which flushes the same way.

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
        queue_capacity: bound on each per-KPI ingest queue, in
            fragments; an arriving fragment beyond it triggers
            ``drop_policy``.
        drop_policy: :data:`DROP_OLDEST` sheds the stalest queued
            fragment (keeps the stream fresh, creates a gap the tracker
            detects); :data:`DROP_NEWEST` sheds the arriving fragment.
        max_fragments_per_tick: the scheduler's drain budget per tick
            across all changes (0 = unlimited).  Setting it below the
            ingest rate is how overload is simulated/absorbed: queues
            fill, the policy sheds, memory stays bounded.
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
        fetch_retries: additional attempts after a failed (or timed-out)
            history-provider fetch before the assessor degrades the
            verdict instead of crashing.
        fetch_backoff_seconds: initial wall-clock backoff between fetch
            retries (doubled per attempt); 0 retries immediately, which
            is what the virtual-time replay wants.
        fetch_timeout_seconds: per-call wall-clock budget for one
            history fetch; a slower call counts as a failure and is
            retried.  0 disables the budget.
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
    drop_policy: str = DROP_OLDEST
    max_fragments_per_tick: int = 0
    max_active_changes: int = 0
    max_control_units: int = 8
    history_days: int = 2
    score_chunk_bins: int = 1
    fetch_retries: int = 2
    fetch_backoff_seconds: float = 0.0
    fetch_timeout_seconds: float = 0.0
    close_grace_seconds: int = 0
    repair_from_store: bool = False

    def __post_init__(self) -> None:
        if self.assessment_window_seconds <= 0:
            raise ParameterError("assessment_window_seconds must be positive")
        if self.baseline_bins < 1:
            raise ParameterError("baseline_bins must be >= 1")
        if self.queue_capacity < 1:
            raise ParameterError("queue_capacity must be >= 1")
        if self.drop_policy not in (DROP_OLDEST, DROP_NEWEST):
            raise ParameterError(
                "drop_policy must be %r or %r, got %r"
                % (DROP_OLDEST, DROP_NEWEST, self.drop_policy))
        if self.max_fragments_per_tick < 0:
            raise ParameterError("max_fragments_per_tick must be >= 0")
        if self.max_active_changes < 0:
            raise ParameterError("max_active_changes must be >= 0")
        if self.max_control_units < 1:
            raise ParameterError("max_control_units must be >= 1")
        if self.history_days < 0:
            raise ParameterError("history_days must be >= 0")
        if self.score_chunk_bins < 1:
            raise ParameterError("score_chunk_bins must be >= 1")
        if self.fetch_retries < 0:
            raise ParameterError("fetch_retries must be >= 0")
        if self.fetch_backoff_seconds < 0:
            raise ParameterError("fetch_backoff_seconds must be >= 0")
        if self.fetch_timeout_seconds < 0:
            raise ParameterError("fetch_timeout_seconds must be >= 0")
        if self.close_grace_seconds < 0:
            raise ParameterError("close_grace_seconds must be >= 0")
