"""Tests for tree construction (TAG baseline and the bushy builder)."""

from __future__ import annotations

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from goldens import assert_golden
from repro.network.placement import BASE_STATION
from repro.tree.construction import (
    _randbelow_each,
    build_bushy_tree,
    build_tag_tree,
)
from repro.tree.domination import domination_factor
from repro.tree.structure import Tree


@settings(max_examples=200, deadline=None)
@given(
    st.lists(
        st.one_of(st.integers(1, 70), st.integers(1, 1 << 70)), max_size=60
    ),
    st.integers(0, 1 << 64),
)
def test_inlined_parent_draws_are_randrange(bounds, seed):
    """The bushy tree's inlined draws consume the stream exactly as
    ``randrange`` does, draw for draw, and leave it in the same state."""
    inlined, reference = random.Random(seed), random.Random(seed)
    assert _randbelow_each(inlined, bounds) == [
        reference.randrange(bound) for bound in bounds
    ]
    assert inlined.getstate() == reference.getstate()


class TestBushyTree:
    def test_spans_all_nodes(self, small_scenario, small_tree):
        assert set(small_tree.nodes) == set(small_scenario.rings.levels)

    def test_links_subset_of_rings(self, small_scenario, small_tree):
        # The synchronisation constraint of Section 4.1: every tree parent
        # is a radio neighbour exactly one ring closer to the base station.
        rings = small_scenario.rings
        for child, parent in small_tree.parents.items():
            assert rings.level(child) == rings.level(parent) + 1
            assert parent in rings.upstream_neighbors(child)

    def test_deterministic(self, small_scenario):
        a = build_bushy_tree(small_scenario.rings, seed=4)
        b = build_bushy_tree(small_scenario.rings, seed=4)
        assert a.parents == b.parents

    def test_rooted_at_base_station(self, small_tree):
        assert small_tree.root == BASE_STATION

    def test_improves_over_tag(self, medium_scenario):
        # Figure 7's claim, statistically: the bushy construction reaches a
        # domination factor at least as high as the standard construction.
        rings = medium_scenario.rings
        ours = [
            domination_factor(build_bushy_tree(rings, seed=s)) for s in range(3)
        ]
        tag = [
            domination_factor(build_tag_tree(rings, seed=s)) for s in range(3)
        ]
        assert sum(ours) / 3 > sum(tag) / 3


def _assert_tree(key, tree: Tree) -> None:
    payload = repr(sorted(tree.parents.items())).encode()
    assert_golden(f"bushy-tree/{key}", payload)


class TestBushyTreeGoldens:
    """The exact trees, pinned against the old dict/set builder.

    Each ``bushy-tree/(synthetic-scale node count | lab | churned)/seed``
    key hashes ``sorted(tree.parents.items())`` as recorded on the dict/set
    builder (commit 71369c4): the draw order of ``stream_rng("bushy-tree",
    seed)`` is part of every downstream golden, so a builder that reorders a
    single ``rng.choice`` must fail here, not in an ``expected.json`` digest.

    (The ``dict_and_packed`` names date from when the goldens were checked
    on two state tiers; array state is the only one now.)
    """

    @pytest.mark.parametrize("num_sensors", [60, 600, 5000])
    def test_synthetic_scale_dict_and_packed(self, num_sensors):
        from repro.datasets.synthetic import make_scale_scenario

        rings = make_scale_scenario(num_sensors, seed=0).rings
        for seed in range(4):
            tree = build_bushy_tree(rings, seed=seed)
            _assert_tree(f"{num_sensors}/{seed}", tree)
            # Consumers iterate ``tree.parents`` in insertion order.
            assert list(tree.parents) == sorted(tree.parents)
            assert all(type(n) is int for n in tree.parents)
            assert all(type(p) is int for p in tree.parents.values())

    def test_labdata_dict_and_packed(self, lab_scenario):
        for seed in range(4):
            tree = build_bushy_tree(lab_scenario.rings, seed=seed)
            _assert_tree(f"lab/{seed}", tree)

    def test_churn_restricted_rings_sparse_ids(self):
        # Re-rung survivors keep their original (now sparse) node ids.
        from repro.datasets.synthetic import make_scale_scenario
        from repro.network.rings import RingsTopology

        scenario = make_scale_scenario(600, seed=0)
        alive = [
            node
            for node in scenario.deployment.node_ids
            if node == BASE_STATION or node % 7 != 3
        ]
        rings, stranded = RingsTopology.build_restricted(
            scenario.connectivity, alive
        )
        assert stranded == []
        for seed in range(2):
            tree = build_bushy_tree(rings, seed=seed)
            _assert_tree(f"churned/{seed}", tree)
            assert set(tree.nodes) == set(alive)


class TestTagTree:
    def test_spans_all_nodes(self, small_scenario):
        tree = build_tag_tree(small_scenario.rings, seed=0)
        assert set(tree.nodes) == set(small_scenario.rings.levels)

    def test_acyclic_with_same_level_parents(self, medium_scenario):
        # Construction must stay a valid tree even with same-level links
        # (Tree.__post_init__ would raise on a cycle).
        for seed in range(5):
            tree = build_tag_tree(medium_scenario.rings, seed=seed)
            assert tree.size == len(medium_scenario.rings.levels)

    def test_contains_same_level_links(self, medium_scenario):
        rings = medium_scenario.rings
        tree = build_tag_tree(rings, seed=1, same_level_fraction=0.4)
        same_level = sum(
            1
            for child, parent in tree.parents.items()
            if rings.level(child) == rings.level(parent)
        )
        assert same_level > 0

    def test_zero_fraction_is_strict_upstream(self, small_scenario):
        rings = small_scenario.rings
        tree = build_tag_tree(rings, seed=1, same_level_fraction=0.0)
        for child, parent in tree.parents.items():
            assert rings.level(child) == rings.level(parent) + 1
