"""Tests for tree construction (TAG baseline and the bushy builder)."""

from __future__ import annotations

import hashlib

import pytest

from repro.network.placement import BASE_STATION
from repro.tree.construction import build_bushy_tree, build_tag_tree
from repro.tree.domination import domination_factor
from repro.tree.structure import Tree


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


def _tree_digest(tree: Tree) -> str:
    return hashlib.sha256(
        repr(sorted(tree.parents.items())).encode()
    ).hexdigest()


#: SHA-256 of ``sorted(tree.parents.items())`` recorded on the dict/set
#: builder (commit 71369c4) — the draw order of ``stream_rng("bushy-tree",
#: seed)`` is part of every downstream golden, so a builder that reorders a
#: single ``rng.choice`` must fail here, not in an ``expected.json`` digest.
#: Keys are ``(synthetic-scale node count | "lab" | "churned", seed)``.
BUSHY_TREE_GOLDENS = {
    (60, 0): "584a0cbe3e780946c246818ef581d9e994f4af000f5560c7c27a521c6f448f1c",
    (60, 1): "e6ebdcfccda458e59c50da6cc73edf9c7cb1193bf810f30022646f7010715760",
    (60, 2): "abe48b693973a382980cf8466f7bd0faa664fb536d85ac1f3b12ac9233d574a2",
    (60, 3): "3316f4ac00ca48730fa5d70b418528df108de2fdaf6162d5e91c24061ea6dac9",
    (600, 0): "31569d4d35c118193999642b917038ce0e09cfd4a1d5924f079e089fc97e8498",
    (600, 1): "ed617b2ea7830d899f70a1d23aa4bf13b082172147738387b048ce8928ec46de",
    (600, 2): "7252be42c0bbf719a77d46319cc4495fb47090b778b352f008561f5c180868c5",
    (600, 3): "0f92d347e90efff86e33fc61ef0628a648608f01b5b14923d087f14123cbed86",
    (5000, 0): "8b9c66821e15854f37ab4f00e950ccf79deff3b75d17b118427e171c04660bd3",
    (5000, 1): "b3105d3339fd13253a0ff583b4b8b7c1cdc84b83fa9e92253c098c786a0b5a05",
    (5000, 2): "13d57a21d3d89471734f8e58a920aa0a5adee82a774bf7dde567e93f3e54f431",
    (5000, 3): "9a3b68c7dd9bc0adcd3e99a643b0f91a0dd7abee5f1ad1f19afddb6d577b2895",
    ("lab", 0): "4452e837009400c7a1082c14a44d34f314096f55411033b43fbd449753d3554f",
    ("lab", 1): "d9393fb914a9911012be731a73aa2d1c153e75f412584fd131edc4b31516f05b",
    ("lab", 2): "82146faeb619b2351d4719cce80fae6e3233f12e72acdb37c7cae6e6da0e1dd9",
    ("lab", 3): "c46fc17883dfbe1a76214d8c0a52b597d0d94988538f5401878613956e60a49b",
    ("churned", 0): "8b6a1cc0969cfe6f3d99aedf6983d9088d8f2b5878b79b36ab63d5ccc05f8542",
    ("churned", 1): "eb4a021819089fe8660f6abaa992484ebb21bd5612026802bd352a5e9c5d2175",
}


class TestBushyTreeGoldens:
    """The exact trees, pinned against the old dict/set builder.

    (The ``dict_and_packed`` names date from when the goldens were checked
    on two state tiers; array state is the only one now.)
    """

    @pytest.mark.parametrize("num_sensors", [60, 600, 5000])
    def test_synthetic_scale_dict_and_packed(self, num_sensors):
        from repro.datasets.synthetic import make_scale_scenario

        rings = make_scale_scenario(num_sensors, seed=0).rings
        for seed in range(4):
            tree = build_bushy_tree(rings, seed=seed)
            assert _tree_digest(tree) == BUSHY_TREE_GOLDENS[(num_sensors, seed)]
            # Consumers iterate ``tree.parents`` in insertion order.
            assert list(tree.parents) == sorted(tree.parents)
            assert all(type(n) is int for n in tree.parents)
            assert all(type(p) is int for p in tree.parents.values())

    def test_labdata_dict_and_packed(self, lab_scenario):
        for seed in range(4):
            tree = build_bushy_tree(lab_scenario.rings, seed=seed)
            assert _tree_digest(tree) == BUSHY_TREE_GOLDENS[("lab", seed)]

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
            assert _tree_digest(tree) == BUSHY_TREE_GOLDENS[("churned", seed)]
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
