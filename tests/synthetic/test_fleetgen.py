"""Tests for fleet and change-workload generation."""

import pytest

from repro.exceptions import ParameterError
from repro.synthetic.fleetgen import (ChangeWorkloadSpec, FleetSpec,
                                      generate_change_workload,
                                      generate_fleet)
from repro.topology.impact import identify_impact_set
from repro.types import LaunchMode


@pytest.fixture(scope="module")
def fleet():
    return generate_fleet(FleetSpec())


class TestGenerateFleet:
    def test_paper_shape(self, fleet):
        assert len(fleet) == 19
        assert len(fleet.server_names) == 931

    def test_min_servers_respected(self, fleet):
        for name in fleet.service_names:
            assert len(fleet.service(name).hostnames) >= 4

    def test_names_form_hierarchy(self, fleet):
        for name in fleet.service_names:
            family, tier = name.split(".")
            assert family and tier

    def test_relationships_exist(self, fleet):
        graph = fleet.relationships
        assert len(graph.edges) > 0
        # Same-family tiers are siblings in the naming hierarchy.
        families = {}
        for name in fleet.service_names:
            families.setdefault(name.split(".")[0], []).append(name)
        multi = [v for v in families.values() if len(v) >= 2]
        assert multi
        a, b = multi[0][0], multi[0][1]
        assert b in graph.neighbors(a)

    def test_deterministic(self):
        a = generate_fleet(FleetSpec(seed=11))
        b = generate_fleet(FleetSpec(seed=11))
        assert a.service_names == b.service_names
        assert a.server_names == b.server_names

    def test_impact_sets_work_everywhere(self, fleet):
        for name in fleet.service_names[:5]:
            hosts = fleet.service(name).hostnames
            impact = identify_impact_set(fleet, name, hosts[:1])
            assert impact.treated_hostnames == (hosts[0],)

    @pytest.mark.parametrize("n_services", [1, 42, 43, 100])
    def test_any_service_count_gets_unique_names(self, n_services):
        """Only 7 x 6 family.tier pairs exist: past 42 services the
        names used to never fill up (an endless loop), and a single
        service crashed drawing a cross-family pair."""
        fleet = generate_fleet(FleetSpec(n_services=n_services,
                                         n_servers=4 * n_services))
        names = fleet.service_names
        assert len(names) == len(set(names)) == n_services
        for name in names:
            family, tier = name.split(".")
            assert family and tier
        # Growing the fleet never renames the services it already had.
        smaller = generate_fleet(FleetSpec(n_services=min(n_services, 42),
                                           n_servers=400))
        assert set(smaller.service_names) <= set(names)

    def test_invalid_spec(self):
        with pytest.raises(ParameterError):
            FleetSpec(n_services=0)
        with pytest.raises(ParameterError):
            FleetSpec(n_services=100, n_servers=100)


class TestChangeWorkload:
    @pytest.fixture(scope="class")
    def workload(self):
        fleet = generate_fleet(FleetSpec())
        spec = ChangeWorkloadSpec(changes_per_day=300, seed=2)
        log, changes = generate_change_workload(fleet, spec)
        return fleet, log, changes

    def test_volume_near_target(self, workload):
        _, log, changes = workload
        # Some slots are dropped by the concurrency guard.
        assert 150 <= len(changes) <= 300
        assert len(log) == len(changes)

    def test_time_ordered(self, workload):
        _, _, changes = workload
        times = [c.at_time for c in changes]
        assert times == sorted(times)

    def test_guard_respected(self, workload):
        _, _, changes = workload
        last = {}
        for change in changes:
            if change.service in last:
                assert change.at_time - last[change.service] >= 3600
            last[change.service] = change.at_time

    def test_launch_mode_mix(self, workload):
        fleet, _, changes = workload
        modes = [c.launch_mode(tuple(fleet.service(c.service).hostnames))
                 for c in changes]
        dark = sum(1 for m in modes if m is LaunchMode.DARK)
        assert 0 < dark < len(modes)
        assert dark / len(modes) > 0.5

    def test_hostnames_belong_to_service(self, workload):
        fleet, _, changes = workload
        for change in changes[:50]:
            service_hosts = set(fleet.service(change.service).hostnames)
            assert set(change.hostnames) <= service_hosts

    def test_deterministic(self):
        fleet = generate_fleet(FleetSpec(seed=8))
        spec = ChangeWorkloadSpec(changes_per_day=100, seed=5)
        _, a = generate_change_workload(fleet, spec)
        _, b = generate_change_workload(fleet, spec)
        assert [c.at_time for c in a] == [c.at_time for c in b]
        assert [c.service for c in a] == [c.service for c in b]
