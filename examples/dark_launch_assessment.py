#!/usr/bin/env python
"""End-to-end dark-launch assessment on a simulated fleet.

Builds a synthetic fleet (services named so that the naming rules imply
their relationships, section 3.1), picks a dark-launched change that
genuinely shifts its treated servers' KPIs, and lets the engine do
FUNNEL's walk: identify the change's impact set, fetch every monitored
KPI's window with its peer or historical control, and assess each one.

Run:
    python examples/dark_launch_assessment.py
"""

from repro.engine import (AssessmentEngine, FleetScenarioSpec,
                          SyntheticFleetSource, plan_change_jobs,
                          spec_for_method)
from repro.telemetry import KpiKey
from repro.topology.impact import identify_impact_set


def main() -> None:
    source = SyntheticFleetSource(FleetScenarioSpec(
        n_services=6, n_servers=48, n_changes=8, seed=42))

    # The first dark launch whose treated servers really regress
    # (``truth`` is the scenario's ground truth for one entity and KPI).
    change = next(
        c for c in source.changes
        if len(c.hostnames) < len(source.fleet.service(c.service).hostnames)
        and source.truth(c, "server", c.hostnames[0], "memory_utilization"))
    n_hosts = len(source.fleet.service(change.service).hostnames)
    print("change %s (%s) dark-launched on %d of %d servers of %s"
          % (change.change_id, change.kind.value, len(change.hostnames),
             n_hosts, change.service))

    impact = identify_impact_set(source.fleet, change.service,
                                 change.hostnames)
    print("\nimpact set:")
    print("  tservers:  %s" % (impact.treated_hostnames,))
    print("  cservers:  %d peers form the control group"
          % len(impact.cservers))
    print("  affected services: %s" % sorted(impact.affected_services))

    # One job per monitored (entity, KPI); the engine scores them in
    # one stacked pass and attributes the declared ones with DiD.
    jobs = list(plan_change_jobs(source.fleet, change, source,
                                 spec_for_method("funnel")))
    results = AssessmentEngine().run(jobs)
    keys = [KpiKey(job.entity_type, job.entity, job.metric) for job in jobs]

    print("\nper-KPI verdicts (%d KPIs assessed):" % len(jobs))
    for key, result in zip(keys, results):
        marker = "  <-- impact" if result.positive else ""
        # The control group that justified the verdict: peers (the
        # cservers) or history; none when nothing was declared.
        print("  %-56s %s (%s)%s" % (key, result.verdict.value,
                                     result.control, marker))

    flagged = {key for key, result in zip(keys, results) if result.positive}
    truth = {key for key, job in zip(keys, jobs) if job.truth_positive}
    print("\nFUNNEL attributes %d KPI change(s) to %s (%d true)"
          % (len(flagged), change.change_id, len(truth)))
    assert flagged, "the regression must be caught"
    assert flagged == truth, "flagged KPIs must be the change's true ones"


if __name__ == "__main__":
    main()
