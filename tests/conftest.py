"""Shared fixtures: small scenarios used across the test suite."""

from __future__ import annotations

import contextlib
import functools

import pytest

import repro.core.wave as wave
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


@pytest.fixture
def object_wave():
    """``object_wave(active=True)``: a context forcing the object wave.

    While active, the one ``refusal`` every scheme's wave consults
    (:mod:`repro.core.wave`) declines every block with ``"forced by test"``,
    so TAG, SD and TD blocks that would run fused take the per-payload
    object wave instead (``engine_path`` reads ``"object: forced by
    test"``). ``active=False`` is a no-op, for loops over engines.
    """

    @contextlib.contextmanager
    def forced(active: bool = True):
        with pytest.MonkeyPatch.context() as patch:
            if active:
                patch.setattr(
                    wave, "refusal", lambda layout, aggregate, channel: "forced by test"
                )
            yield

    return forced
