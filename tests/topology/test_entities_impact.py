"""Tests for fleet entities and impact-set identification."""

import pytest

from repro.exceptions import TopologyError
from repro.topology.entities import Fleet, Instance, Server
from repro.topology.impact import identify_impact_set

from .graphs import edges


@pytest.fixture
def fig4_fleet():
    """The paper's Fig. 4 setting: service A with instances A1..An,
    related to B and D; B related to C."""
    fleet = Fleet()
    fleet.add_service("svc.a", ["a-%d" % i for i in range(1, 7)])
    fleet.add_service("svc.b", ["b-1", "b-2"])
    fleet.add_service("svc.c", ["c-1"])
    fleet.add_service("svc.d", ["d-1"])
    # Siblings under "svc" are auto-related (a-b, a-c, a-d, ...); prune
    # to the exact Fig. 4 shape by building explicit relations instead.
    return fleet


class TestEntities:
    def test_server_validation(self):
        with pytest.raises(TopologyError):
            Server("", "svc.a")

    def test_instance_name(self):
        assert Instance("svc.a", "host-1").name == "svc.a@host-1"


class TestFleet:
    def test_add_and_query(self, fig4_fleet):
        assert len(fig4_fleet) == 4
        assert "a-1" in fig4_fleet.service("svc.a").hostnames
        assert len(fig4_fleet.service("svc.a").hostnames) == 6

    def test_duplicate_service_rejected(self, fig4_fleet):
        with pytest.raises(TopologyError):
            fig4_fleet.add_service("svc.a", ["x-1"])

    def test_server_cannot_serve_two_services(self, fig4_fleet):
        with pytest.raises(TopologyError):
            fig4_fleet.add_service("svc.e", ["a-1"])

    def test_duplicate_hostnames_rejected(self):
        fleet = Fleet()
        with pytest.raises(TopologyError):
            fleet.add_service("svc.x", ["h", "h"])

    def test_unknown_lookups_raise(self, fig4_fleet):
        with pytest.raises(TopologyError):
            fig4_fleet.service("nope")

    def test_relationships_cached_and_invalidated(self, fig4_fleet):
        g1 = fig4_fleet.relationships
        assert g1 is fig4_fleet.relationships
        fig4_fleet.add_service("svc.e", ["e-1"])
        assert fig4_fleet.relationships is not g1

    def test_explicit_relationship(self, fig4_fleet):
        fleet = Fleet()
        fleet.add_service("alpha", ["h1"])
        fleet.add_service("beta.core", ["h2"])
        fleet.add_relationship("alpha", "beta.core")
        assert ("alpha", "beta.core") in edges(fleet.relationships)

    def test_explicit_relationship_unknown_raises(self, fig4_fleet):
        with pytest.raises(TopologyError):
            fig4_fleet.add_relationship("svc.a", "nope")


class TestImpactSet:
    def test_dark_launch_split(self, fig4_fleet):
        impact = identify_impact_set(fig4_fleet, "svc.a", ["a-1", "a-2"])
        assert impact.treated_hostnames == ("a-1", "a-2")
        assert set(impact.control_hostnames) == {"a-3", "a-4", "a-5",
                                                 "a-6"}
        assert impact.dark_launched

    def test_full_launch_has_no_control(self, fig4_fleet):
        hosts = ["a-%d" % i for i in range(1, 7)]
        impact = identify_impact_set(fig4_fleet, "svc.a", hosts)
        assert not impact.dark_launched
        assert impact.cinstances == ()

    def test_affected_services_via_relationships(self, fig4_fleet):
        impact = identify_impact_set(fig4_fleet, "svc.a", ["a-1"])
        # Siblings svc.b/c/d are reachable from svc.a in the
        # naming-derived graph — all are affected (Fig. 4 semantics).
        assert impact.affected_services == {"svc.b", "svc.c", "svc.d"}

    def test_tinstances_match_tservers(self, fig4_fleet):
        impact = identify_impact_set(fig4_fleet, "svc.a", ["a-3"])
        assert [i.name for i in impact.tinstances] == ["svc.a@a-3"]

    def test_monitored_entities(self, fig4_fleet):
        impact = identify_impact_set(fig4_fleet, "svc.a", ["a-1"])
        entities = impact.monitored_entities()
        assert ("server", "a-1") in entities
        assert ("instance", "svc.a@a-1") in entities
        assert ("service", "svc.a") in entities
        assert ("service", "svc.b") in entities
        # Instances of affected services are NOT in the impact set.
        assert ("instance", "svc.b@b-1") not in entities

    def test_unknown_host_rejected(self, fig4_fleet):
        with pytest.raises(TopologyError):
            identify_impact_set(fig4_fleet, "svc.a", ["b-1"])

    def test_empty_deployment_rejected(self, fig4_fleet):
        with pytest.raises(TopologyError):
            identify_impact_set(fig4_fleet, "svc.a", [])

    def test_duplicate_hostnames_deduplicated(self, fig4_fleet):
        impact = identify_impact_set(fig4_fleet, "svc.a", ["a-1", "a-1"])
        assert impact.treated_hostnames == ("a-1",)
