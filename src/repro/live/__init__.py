"""repro.live — the fleet-scale live assessment service.

The offline engine answers "what did this change do?" after the fact;
this package answers it *while the assessment window is still open*.
A :class:`~repro.live.watcher.ChangeWatcher` tails the change log and
opens metric-store subscriptions over each change's impact set; bounded
ingest queues buffer the push stream (shedding, not growing, under
overload); an event-time scheduler drains them and enforces per-change
deadlines; the :class:`~repro.live.assessor.LiveAssessor` advances one
streaming FUNNEL detector per (entity, KPI) and attributes declarations
the moment they fire; verdicts leave through the at-most-once
:class:`~repro.live.bus.VerdictBus`.

``repro live-replay`` streams a synthetic fleet scenario through the
whole pipeline in accelerated virtual time and can verify the verdicts
against ``repro assess-fleet`` — see ``docs/live.md``.
"""

from .assessor import ChangeSession, KpiTracker, LiveAssessor
from .bus import JsonlVerdictSink, LiveVerdict, VerdictBus, verdict_sort_key
from .checkpoint import (Checkpointer, load_checkpoint, restore_service,
                         snapshot_service, write_checkpoint)
from .config import LiveConfig
from .detector import IncrementalDetector
from .pool import DetectorPool
from .queues import IngestQueues
from .replay import (LiveReplayReport, fleet_kpi_keys,
                     offline_verdict_records, parity_live_config,
                     replay_scenario)
from .scheduler import EventTimeScheduler
from .service import LiveAssessmentService
from .watcher import ChangeWatcher, StoreHistoryProvider, default_priority

__all__ = [
    "ChangeSession", "KpiTracker", "LiveAssessor",
    "JsonlVerdictSink", "LiveVerdict", "VerdictBus",
    "verdict_sort_key",
    "Checkpointer", "load_checkpoint", "restore_service",
    "snapshot_service", "write_checkpoint",
    "LiveConfig",
    "DetectorPool", "IncrementalDetector", "IngestQueues",
    "LiveReplayReport", "fleet_kpi_keys", "offline_verdict_records",
    "parity_live_config", "replay_scenario",
    "EventTimeScheduler", "LiveAssessmentService",
    "ChangeWatcher", "StoreHistoryProvider", "default_priority",
]
