"""Tests for service naming rules and derived relationships."""

import pytest

from repro.exceptions import TopologyError
from repro.topology.naming import (derive_relationships, parent_of,
                                   validate_service_name)

from .graphs import edges


class TestValidation:
    @pytest.mark.parametrize("name", [
        "search", "search.frontend", "ads.anti-cheat.v2_scoring",
    ])
    def test_valid_names(self, name):
        assert validate_service_name(name) == name

    @pytest.mark.parametrize("name", [
        "", "Search", "search..frontend", "search.", "9lives",
        "search.Front", "a b",
    ])
    def test_invalid_names(self, name):
        with pytest.raises(TopologyError):
            validate_service_name(name)


class TestHierarchy:
    def test_parent_of(self):
        assert parent_of("a.b.c") == "a.b"
        assert parent_of("a") == ""


class TestDeriveRelationships:
    def test_parent_child_edge(self):
        g = derive_relationships(["search", "search.frontend"])
        assert ("search", "search.frontend") in edges(g)

    def test_sibling_edges(self):
        g = derive_relationships(["search.frontend", "search.backend"])
        assert ("search.backend", "search.frontend") in edges(g)

    def test_unrelated_services_not_linked(self):
        g = derive_relationships(["search.frontend", "mail.smtp"])
        assert g.reachable("search.frontend") == set()

    def test_missing_parent_does_not_appear(self):
        g = derive_relationships(["search.frontend", "search.backend"])
        assert "search" not in g

    def test_explicit_edges_merged(self):
        g = derive_relationships(
            ["search.frontend", "ads.serving"],
            explicit_edges=[("search.frontend", "ads.serving")],
        )
        assert ("search.frontend", "ads.serving") in edges(g)

    def test_explicit_edge_unknown_service_raises(self):
        with pytest.raises(TopologyError):
            derive_relationships(["a"], explicit_edges=[("a", "zzz")])

    def test_duplicate_names_raise(self):
        with pytest.raises(TopologyError):
            derive_relationships(["a", "a"])

    def test_three_level_hierarchy(self):
        names = ["svc", "svc.web", "svc.web.static", "svc.web.dynamic",
                 "svc.db"]
        g = derive_relationships(names)
        assert ("svc", "svc.web") in edges(g)
        assert ("svc.web", "svc.web.static") in edges(g)
        assert ("svc.web.dynamic", "svc.web.static") in edges(g)
        assert ("svc.db", "svc.web") in edges(g)
        # Cousins are not directly related...
        assert ("svc.db", "svc.web.static") not in edges(g)
        # ...but are reachable through the hierarchy.
        assert "svc.web.static" in g.reachable("svc.db")
