"""Tests for sample-derived moments (the Section 5 derived aggregates)."""

from __future__ import annotations

import pytest

from repro.aggregates.base import fuse_all
from repro.aggregates.sample import (
    UniformSampleAggregate,
    moment_from_sample,
    quantile_from_sample,
)
from repro.errors import ConfigurationError


@pytest.fixture()
def full_sample():
    # A sample large enough to hold every reading: estimates become exact.
    aggregate = UniformSampleAggregate(k=1000)
    synopses = [
        aggregate.synopsis_local(node, 0, float(node)) for node in range(1, 101)
    ]
    return fuse_all(aggregate, synopses)


class TestMoments:
    def test_first_moment_is_mean(self, full_sample):
        assert moment_from_sample(full_sample, 1) == pytest.approx(50.5)

    def test_second_moment(self, full_sample):
        expected = sum(v * v for v in range(1, 101)) / 100
        assert moment_from_sample(full_sample, 2) == pytest.approx(expected)

    def test_rejects_zero_order(self, full_sample):
        with pytest.raises(ConfigurationError):
            moment_from_sample(full_sample, 0)

    def test_subsample_estimates_are_close(self):
        aggregate = UniformSampleAggregate(k=64)
        synopses = [
            aggregate.synopsis_local(node, 0, float(node % 10))
            for node in range(1, 501)
        ]
        sample = fuse_all(aggregate, synopses)
        # True mean of node % 10 over 1..500 is 4.5.
        assert moment_from_sample(sample, 1) == pytest.approx(4.5, abs=1.5)


class TestQuantilesFromSample:
    def test_full_sample_quantiles_exact(self, full_sample):
        assert quantile_from_sample(full_sample, 0.0) == 1.0
        assert quantile_from_sample(full_sample, 1.0) == 100.0
        assert quantile_from_sample(full_sample, 0.5) == pytest.approx(51, abs=1)
