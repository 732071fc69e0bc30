"""Tests for fleet generation."""

import pytest

from repro.exceptions import ParameterError
from repro.synthetic.fleetgen import FleetSpec, generate_fleet
from repro.topology.impact import identify_impact_set

from ..topology.graphs import edges


@pytest.fixture(scope="module")
def fleet():
    return generate_fleet(FleetSpec())


def hostnames(fleet):
    return [host for name in fleet.service_names
            for host in fleet.service(name).hostnames]


class TestGenerateFleet:
    def test_paper_shape(self, fleet):
        assert len(fleet) == 19
        assert len(set(hostnames(fleet))) == 931

    def test_min_servers_respected(self, fleet):
        for name in fleet.service_names:
            assert len(fleet.service(name).hostnames) >= 4

    def test_names_form_hierarchy(self, fleet):
        for name in fleet.service_names:
            family, tier = name.split(".")
            assert family and tier

    def test_relationships_exist(self, fleet):
        graph = edges(fleet.relationships)
        assert len(graph) > 0
        # Same-family tiers are siblings in the naming hierarchy.
        families = {}
        for name in fleet.service_names:
            families.setdefault(name.split(".")[0], []).append(name)
        multi = [v for v in families.values() if len(v) >= 2]
        assert multi
        a, b = multi[0][0], multi[0][1]
        assert (a, b) in graph or (b, a) in graph

    def test_deterministic(self):
        a = generate_fleet(FleetSpec(seed=11))
        b = generate_fleet(FleetSpec(seed=11))
        assert a.service_names == b.service_names
        assert hostnames(a) == hostnames(b)

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
