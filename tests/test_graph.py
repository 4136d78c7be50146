"""Influence graph structure, queries, and connectivity-preserving mutations."""

import itertools

import numpy as np
import pytest

from opinionflow import InfluenceGraph, choose_attachment


def brute_force_independent(edges, s):
    return not any(u in s and v in s for u, v in edges)


class TestIndependentSet:
    def test_single_vertex_in_triangle(self):
        g = InfluenceGraph.triangle()
        assert g.is_independent_set({0}) is True

    def test_edge_inside_set(self):
        g = InfluenceGraph.triangle()
        assert g.is_independent_set({0, 1}) is False

    def test_path_endpoints(self):
        # A-C-B: the two endpoints never interact, so {A, B} is stable together
        g = InfluenceGraph([0, 1, 2], [(0, 2), (1, 2)])
        assert g.is_independent_set({0, 1}) is True

    def test_unknown_vertex_rejected(self):
        g = InfluenceGraph.triangle()
        with pytest.raises(ValueError):
            g.is_independent_set({0, 99})

    def test_agrees_with_brute_force_exhaustively(self):
        # every subset of every sampled graph up to 8 vertices
        rng = np.random.default_rng(7)
        for n in range(1, 9):
            for _ in range(8):
                edges = [(i, j) for i in range(n) for j in range(i + 1, n)
                         if rng.random() < 0.4]
                g = InfluenceGraph(range(n), edges)
                for r in range(n + 1):
                    for s in itertools.combinations(range(n), r):
                        assert g.is_independent_set(s) == brute_force_independent(edges, set(s))


class TestComponents:
    def test_edge_graph(self):
        g = InfluenceGraph([0, 1], [(0, 1)])
        assert g.connected_components() == [{0, 1}]

    def test_isolated_vertices(self):
        g = InfluenceGraph([0, 1])
        assert sorted(map(sorted, g.connected_components())) == [[0], [1]]

    def test_path(self):
        g = InfluenceGraph.path(3)
        assert g.connected_components() == [{0, 1, 2}]

    def test_singleton(self):
        g = InfluenceGraph([5])
        assert g.connected_components() == [{5}]

    def test_induced_components(self):
        g = InfluenceGraph.path(5)
        comps = g.induced_components({0, 1, 3})
        assert sorted(map(sorted, comps)) == [[0, 1], [3]]


class TestAddType:
    def test_attach_to_one(self):
        g = InfluenceGraph([0, 1], [(0, 1)])
        new = g.add_type({0})
        assert new == 2
        assert g.edges() == [[0, 1], [0, 2]]

    def test_attach_to_both_makes_triangle(self):
        g = InfluenceGraph([0, 1], [(0, 1)])
        g.add_type({0, 1})
        assert g.edges() == [[0, 1], [0, 2], [1, 2]]

    def test_empty_neighbors_rejected(self):
        g = InfluenceGraph([0, 1], [(0, 1)])
        with pytest.raises(ValueError):
            g.add_type(set())

    def test_ids_never_reused(self):
        g = InfluenceGraph([0, 1], [(0, 1)])
        a = g.add_type({0})
        g.remove_type(a)
        b = g.add_type({0})
        assert b > a


class TestRemoveType:
    def test_triangle_no_rewiring_needed(self):
        g = InfluenceGraph.triangle()
        g.remove_type(2)
        assert g.edges() == [[0, 1]]

    def test_star_center_becomes_neighbor_path(self):
        # center 0, leaves 1,2,3; neighbor-path policy chains the leaves
        g = InfluenceGraph.star(3)
        g.remove_type(0)
        assert g.edges() == [[1, 2], [2, 3]]
        assert g.is_connected()

    def test_path_middle_bridged(self):
        g = InfluenceGraph([0, 1, 2], [(0, 2), (1, 2)])  # A-C-B, remove C
        g.remove_type(2)
        assert g.edges() == [[0, 1]]

    def test_neighbor_clique_policy(self):
        g = InfluenceGraph.star(3)
        g.remove_type(0, rewiring="neighbor-clique")
        assert g.edges() == [[1, 2], [1, 3], [2, 3]]

    def test_last_vertex_protected(self):
        g = InfluenceGraph([0])
        with pytest.raises(ValueError):
            g.remove_type(0)

    def test_connectivity_after_random_mutation_sequences(self):
        rng = np.random.default_rng(123)
        for policy in ("neighbor-path", "neighbor-clique"):
            g = InfluenceGraph.path(3)
            for _ in range(200):
                if len(g) >= 2 and rng.random() < 0.5:
                    ids = g.vertex_list()
                    g.remove_type(ids[rng.integers(len(ids))], rewiring=policy)
                else:
                    g.add_type(choose_attachment(g, "random-subset", rng))
                assert len(g.connected_components()) == 1

    @pytest.mark.parametrize("policy", ["neighbor-path", "neighbor-clique"])
    def test_random_connected_graphs_stay_connected(self, policy):
        rng = np.random.default_rng(7)
        for _ in range(200):
            n = int(rng.integers(2, 12))
            tree = [(int(rng.integers(v)), v) for v in range(1, n)]
            extra = [(u, v) for u in range(n) for v in range(u + 1, n) if rng.random() < 0.15]
            g = InfluenceGraph(range(n), tree + extra)
            before = {tuple(e) for e in g.edges()}
            dead = int(rng.integers(n))
            added = g.remove_type(dead, rewiring=policy)
            assert g.is_connected()
            after = {tuple(e) for e in g.edges()}
            assert set(added) == after - before and len(added) == len(set(added))

    @pytest.mark.parametrize("policy", ["neighbor-path", "neighbor-clique"])
    def test_removal_never_adds_a_component(self, policy):
        rng = np.random.default_rng(8)
        for _ in range(200):
            n = int(rng.integers(2, 12))
            edges = [(u, v) for u in range(n) for v in range(u + 1, n) if rng.random() < 0.2]
            g = InfluenceGraph(range(n), edges)
            components = len(g.connected_components())
            g.remove_type(int(rng.integers(n)), rewiring=policy)
            assert len(g.connected_components()) <= components

    def test_add_then_remove_restores_edges(self):
        # attaching to a connected pair means removal adds nothing back
        g = InfluenceGraph.triangle()
        before = g.edges()
        new = g.add_type({0, 1})
        g.remove_type(new)
        assert g.edges() == before


class TestSerialization:
    def test_round_trip(self):
        g = InfluenceGraph([0, 1, 2, 5], [(0, 1), (1, 2), (2, 5)])
        data = g.to_json_dict()
        assert data == {"vertices": [0, 1, 2, 5], "edges": [[0, 1], [1, 2], [2, 5]]}
        g2 = InfluenceGraph.from_json_dict(data)
        assert g2.to_json_dict() == data

    def test_malformed_rejected(self):
        with pytest.raises(ValueError):
            InfluenceGraph.from_json_dict({"vertices": [0]})

    def test_self_loop_rejected(self):
        with pytest.raises(ValueError):
            InfluenceGraph([0, 1], [(0, 0)])


class TestAttachment:
    def test_connect_to_all(self):
        g = InfluenceGraph.path(4)
        assert choose_attachment(g, "connect-to-all", np.random.default_rng(0)) == {0, 1, 2, 3}

    def test_random_subset_bounds(self):
        g = InfluenceGraph.path(6)
        rng = np.random.default_rng(5)
        for _ in range(50):
            picked = choose_attachment(g, "random-subset", rng)
            assert 1 <= len(picked) <= 3
            assert picked <= set(g.vertex_list())

    def test_unknown_policy(self):
        with pytest.raises(ValueError):
            choose_attachment(InfluenceGraph.path(2), "bogus", np.random.default_rng(0))
