"""Tests for the simulated device layer and kernel helpers."""

import numpy as np
import pytest

from repro.exceptions import DimensionError
from repro.parallel import LoopBackend, NumpyBackend, SimulatedDevice

NUMPY = NumpyBackend()
LOOP = LoopBackend()


class TestSimulatedDevice:
    def test_launch_returns_value(self):
        device = SimulatedDevice()
        assert device.launch("add", lambda a, b: a + b, 2, 3) == 5

    def test_timings_accumulate(self):
        device = SimulatedDevice()
        for _ in range(4):
            device.launch("noop", lambda: None)
        assert device.kernels["noop"].launches == 4
        assert device.kernels["noop"].total_seconds >= 0.0
        assert device.total_kernel_seconds() >= device.kernels["noop"].total_seconds

    def test_exception_still_recorded(self):
        device = SimulatedDevice()
        with pytest.raises(ValueError):
            device.launch("boom", lambda: (_ for _ in ()).throw(ValueError("x")).__next__())
        assert device.kernels["boom"].launches == 1

    def test_reset(self):
        device = SimulatedDevice()
        device.launch("k", lambda: 1)
        device.reset()
        assert device.total_kernel_seconds() == 0.0
        assert not device.kernels

    def test_report_lists_kernels(self):
        device = SimulatedDevice(name="test-dev")
        device.launch("alpha", lambda: 1)
        device.launch("beta", lambda: 2)
        report = device.report()
        assert "alpha" in report and "beta" in report and "test-dev" in report

    def test_mean_seconds(self):
        device = SimulatedDevice()
        device.launch("k", lambda: sum(range(1000)))
        rec = device.kernels["k"]
        assert rec.mean_seconds == pytest.approx(rec.total_seconds)

    def test_element_throughput_tracked(self):
        device = SimulatedDevice()
        device.launch("k", lambda: sum(range(10000)), elements=64)
        device.launch("k", lambda: sum(range(10000)), elements=64)
        rec = device.kernels["k"]
        assert rec.total_elements == 128
        assert rec.elements_per_second > 0
        assert "elem/s" in device.report()

    def test_throughput_zero_without_elements(self):
        device = SimulatedDevice()
        device.launch("k", lambda: None)
        assert device.kernels["k"].elements_per_second == 0.0
        assert "elem/s" not in device.report()

    def test_as_dict_round_trip(self):
        device = SimulatedDevice(name="dev")
        device.launch("a", lambda: None, elements=8)
        snapshot = device.as_dict()
        assert snapshot["device"] == "dev"
        assert snapshot["kernels"]["a"]["launches"] == 1
        assert snapshot["kernels"]["a"]["total_elements"] == 8
        assert snapshot["total_seconds"] == pytest.approx(device.total_kernel_seconds())


class TestKernels:
    def test_launch_over_elements_matches_python_loop(self, rng):
        def kernel(a, b):
            return np.clip(a * b + 1.0, 0.0, 5.0)

        a = rng.normal(size=50)
        b = rng.normal(size=50)
        vectorised = NUMPY.launch_over_elements(kernel, a, b)
        looped = LOOP.launch_over_elements(kernel, a, b)
        assert np.allclose(vectorised, looped)

    def test_launch_over_elements_tuple_outputs(self, rng):
        def kernel(a):
            return np.sin(a), np.cos(a)

        a = rng.normal(size=20)
        vec = NUMPY.launch_over_elements(kernel, a)
        loop = LOOP.launch_over_elements(kernel, a)
        assert np.allclose(vec[0], loop[0])
        assert np.allclose(vec[1], loop[1])

    def test_mismatched_lengths_rejected(self):
        with pytest.raises(DimensionError):
            NUMPY.launch_over_elements(lambda a, b: a + b, np.zeros(3), np.zeros(4))

    def test_no_arrays_rejected(self):
        with pytest.raises(DimensionError):
            NUMPY.launch_over_elements(lambda: np.zeros(1))

    def test_segment_sum(self):
        values = np.array([1.0, 2.0, 3.0, 4.0])
        ids = np.array([0, 1, 0, 2])
        assert np.allclose(NUMPY.segment_sum(values, ids, 3), [4.0, 2.0, 4.0])

    def test_segment_sum_empty_segment(self):
        out = NUMPY.segment_sum(np.array([1.0]), np.array([2]), 4)
        assert np.allclose(out, [0, 0, 1.0, 0])

    def test_scatter_add_accumulates_duplicates(self):
        target = np.zeros(3)
        NUMPY.scatter_add(target, np.array([0, 0, 2]), np.array([1.0, 2.0, 5.0]))
        assert np.allclose(target, [3.0, 0.0, 5.0])

    def test_segment_sum_single_segment_matches_global_sum(self, rng):
        values = rng.normal(size=17)
        out = NUMPY.segment_sum(values, np.zeros(17, dtype=int), 1)
        assert out.shape == (1,)
        assert out[0] == pytest.approx(values.sum())

    def test_segment_sum_all_segments_empty(self):
        out = NUMPY.segment_sum(np.zeros(0), np.zeros(0, dtype=int), 3)
        assert np.array_equal(out, np.zeros(3))

    def test_segment_max(self):
        values = np.array([1.0, -2.0, 3.0, 0.5])
        ids = np.array([0, 1, 0, 1])
        assert np.allclose(NUMPY.segment_max(values, ids, 2), [3.0, 0.5])

    def test_segment_max_empty_segment_gets_initial(self):
        out = NUMPY.segment_max(np.array([-5.0]), np.array([1]), 3, initial=0.0)
        assert np.allclose(out, [0.0, -5.0, 0.0])

    def test_segment_max_no_values(self):
        out = NUMPY.segment_max(np.zeros(0), np.zeros(0, dtype=int), 2, initial=7.0)
        assert np.allclose(out, [7.0, 7.0])

    def test_segment_max_single_scenario_matches_global_max(self, rng):
        values = np.abs(rng.normal(size=23))
        out = NUMPY.segment_max(values, np.zeros(23, dtype=int), 1)
        assert out[0] == values.max()
