"""Engine methods: a name, its :class:`~repro.engine.jobs.DetectorSpec`,
and the baseline detector a spec names.

What each method is *allowed to see* matches the evaluation setting of
section 4.2:

* ``funnel`` — treated + control/history, detection then DiD
  attribution (timed as separate stages);
* ``improved_sst`` — the same detector, no DiD: any post-change
  detection counts as positive;
* ``cusum`` / ``mrls`` / ``wow`` — the baseline on the treated
  aggregate only, no DiD.

The two FUNNEL-family methods run through the executor's stacked route
(:mod:`repro.engine.batching`); the baselines run one job at a time
through :func:`repro.engine.executor.run_job`, each on a fresh detector
from :func:`baseline_detector` — so a detector with internal random
state (CUSUM's bootstrap) never carries that state across jobs.
"""

from __future__ import annotations

from typing import Optional

from ..baselines.cusum import CusumDetector, CusumParams
from ..baselines.mrls import MrlsDetector, MrlsParams
from ..baselines.wow import WeekOverWeekDetector
from ..core.funnel import FunnelConfig
from ..exceptions import EngineError
from .jobs import DetectorSpec

__all__ = ["spec_for_method", "baseline_detector"]


def spec_for_method(name: str,
                    funnel_config: Optional[FunnelConfig] = None,
                    cusum_params: Optional[CusumParams] = None,
                    mrls_params: Optional[MrlsParams] = None) -> DetectorSpec:
    """Build the :class:`DetectorSpec` for a method name.

    Only the options a method understands are attached to its spec, so
    two specs for the same method with irrelevant extra arguments still
    compare (and cache) equal.  A tuned week-over-week baseline is a
    ``DetectorSpec.create("wow", wow_params=...)``.
    """
    if name in ("funnel", "improved_sst"):
        return DetectorSpec.create(name, funnel_config=funnel_config)
    if name == "cusum":
        return DetectorSpec.create(name, cusum_params=cusum_params)
    if name == "mrls":
        return DetectorSpec.create(name, mrls_params=mrls_params)
    if name == "wow":
        return DetectorSpec.create(name)
    raise EngineError("unknown method %r; known: funnel, improved_sst, "
                      "cusum, mrls, wow" % name)


def baseline_detector(spec: DetectorSpec, seed: int):
    """A fresh CUSUM / MRLS / WoW detector for ``spec``, seeded ``seed``.

    Each has ``detect(series) -> List[DetectedChange]``.
    """
    if spec.name == "cusum":
        return CusumDetector(spec.option("cusum_params"), seed=seed)
    if spec.name == "mrls":
        return MrlsDetector(spec.option("mrls_params"))
    if spec.name == "wow":
        return WeekOverWeekDetector(spec.option("wow_params"))
    raise EngineError("unknown detector %r; the baselines are cusum, mrls "
                      "and wow" % spec.name)
