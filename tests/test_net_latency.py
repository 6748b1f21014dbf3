"""Unit tests for latency models."""

import pytest

from repro.net.latency import ConstantLatency, UniformLatency
from repro.sim.rng import SeededRng


class TestConstantLatency:
    def test_fixed_delay(self):
        model = ConstantLatency(0.1)
        assert model.delay("a", "b", 0) == 0.1

    def test_negative_base_rejected(self):
        with pytest.raises(ValueError):
            ConstantLatency(-1.0)


class TestUniformLatency:
    def test_within_bounds(self):
        model = UniformLatency(0.01, 0.2, SeededRng(1))
        for _ in range(100):
            assert 0.01 <= model.delay("a", "b", 0) <= 0.2

    def test_invalid_bounds_rejected(self):
        with pytest.raises(ValueError):
            UniformLatency(0.5, 0.1, SeededRng(1))
