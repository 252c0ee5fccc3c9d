"""Shared fixtures: small scenarios used across the test suite."""

from __future__ import annotations

import functools

import pytest

from repro.cli import EXPERIMENTS
from repro.datasets.labdata import LabDataScenario
from repro.datasets.synthetic import make_synthetic_scenario
from repro.tree.construction import build_bushy_tree, build_tag_tree


@pytest.fixture(scope="session")
def small_scenario():
    """A 60-sensor connected synthetic scenario (fast to simulate)."""
    return make_synthetic_scenario(num_sensors=60, seed=11)


@pytest.fixture(scope="session")
def medium_scenario():
    """A 150-sensor scenario for statistical assertions."""
    return make_synthetic_scenario(num_sensors=150, seed=7)


@pytest.fixture(scope="session")
def small_tree(small_scenario):
    return build_bushy_tree(small_scenario.rings, seed=11)


@pytest.fixture(scope="session")
def medium_tree(medium_scenario):
    return build_bushy_tree(medium_scenario.rings, seed=7)


@pytest.fixture(scope="session")
def lab_scenario():
    return LabDataScenario.build()


@pytest.fixture(scope="session")
def quick_figure():
    """``name -> result`` of a CLI experiment at quick size, seed 0.

    Memoised for the session: the golden pins and the paper-claims gate
    read the same figures, and each should run once.
    """
    return functools.cache(lambda name: EXPERIMENTS[name][1](True, 0))
