"""Conformance suite for the pluggable kernel-backend registry.

Every registered backend is differential-tested against the reference
:class:`~repro.parallel.backends.numpy_backend.NumpyBackend` oracle: exact
backends (``exact = True``) must reproduce it **bitwise**, JIT backends get
:data:`~repro.parallel.backends.base.JIT_TOLERANCE`.  The suite covers the
primitive set itself, the end-to-end solvers (single network, scenario batch
of one, compaction-active TRON), and the registry/selection machinery
(``REPRO_BACKEND``, solver options, graceful numba degradation).
"""

from __future__ import annotations

import builtins
import sys

import numpy as np
import pytest

import repro
from repro.admm.parameters import AdmmParameters, parameters_for_case
from repro.exceptions import ConfigurationError, DimensionError
from repro.parallel.backends import (
    BACKEND_ENV_VAR,
    JIT_TOLERANCE,
    KernelBackend,
    LoopBackend,
    NumbaBackend,
    NumpyBackend,
    available_backends,
    default_backend_name,
    get_backend,
    register_backend,
    unregister_backend,
)
from repro.tron.batch import QuadraticBatchProblem, solve_batch
from repro.tron.options import TronOptions

ORACLE = NumpyBackend()

try:
    import numba  # noqa: F401
    HAVE_NUMBA = True
except ImportError:
    HAVE_NUMBA = False


def assert_conforms(backend, got, expected) -> None:
    """Bitwise for exact backends, JIT_TOLERANCE otherwise."""
    got = np.asarray(got)
    expected = np.asarray(expected)
    assert got.shape == expected.shape
    if backend.exact:
        assert np.array_equal(got, expected), (
            f"backend {backend.name!r} declares exact=True but differs "
            "from the NumPy oracle")
    else:
        np.testing.assert_allclose(got, expected, rtol=JIT_TOLERANCE, atol=0.0)


@pytest.fixture(params=sorted(available_backends()))
def backend(request):
    return get_backend(request.param)


# --------------------------------------------------------------------- #
# Primitive conformance vs the NumPy oracle                              #
# --------------------------------------------------------------------- #
class TestPrimitiveConformance:
    def test_protocol(self, backend):
        assert isinstance(backend, KernelBackend)
        assert isinstance(backend.name, str) and backend.name
        assert isinstance(backend.exact, bool)

    def test_launch_single_output(self, backend, rng):
        def kernel(a, b):
            return np.clip(a * b + 1.0, 0.0, 5.0)

        a, b = rng.normal(size=40), rng.normal(size=40)
        assert_conforms(backend, backend.launch_over_elements(kernel, a, b),
                        ORACLE.launch_over_elements(kernel, a, b))

    def test_launch_tuple_output(self, backend, rng):
        def kernel(a):
            return np.sin(a), np.cos(a) ** 2

        a = rng.normal(size=25)
        got = backend.launch_over_elements(kernel, a)
        expected = ORACLE.launch_over_elements(kernel, a)
        assert isinstance(got, tuple) and len(got) == 2
        for g, e in zip(got, expected):
            assert_conforms(backend, g, e)

    def test_launch_validates_arguments(self, backend):
        with pytest.raises(DimensionError):
            backend.launch_over_elements(lambda: np.zeros(1))
        with pytest.raises(DimensionError):
            backend.launch_over_elements(lambda a, b: a + b,
                                         np.zeros(3), np.zeros(4))

    def test_scatter_add_duplicate_indices(self, backend, rng):
        indices = rng.integers(0, 7, size=30)
        values = rng.normal(size=30)
        got = backend.scatter_add(np.zeros(7), indices, values)
        expected = ORACLE.scatter_add(np.zeros(7), indices, values)
        assert_conforms(backend, got, expected)

    def test_segment_sum(self, backend, rng):
        values = rng.normal(size=50)
        ids = rng.integers(0, 6, size=50)
        assert_conforms(backend, backend.segment_sum(values, ids, 6),
                        ORACLE.segment_sum(values, ids, 6))

    def test_segment_sum_empty_input(self, backend):
        got = backend.segment_sum(np.zeros(0), np.zeros(0, dtype=int), 3)
        assert np.array_equal(got, np.zeros(3))

    def test_segment_max_empty_segments_get_initial(self, backend, rng):
        values = -np.abs(rng.normal(size=10))  # all negative: initial wins
        ids = np.repeat(np.array([0, 2]), 5)   # segments 1 and 3 empty
        got = backend.segment_max(values, ids, 4, initial=0.5)
        expected = ORACLE.segment_max(values, ids, 4, initial=0.5)
        assert_conforms(backend, got, expected)
        assert got[1] == 0.5 and got[3] == 0.5

    def test_batched_matvec(self, backend, rng):
        m = rng.normal(size=(9, 6, 6))
        v = rng.normal(size=(9, 6))
        assert_conforms(backend, backend.batched_matvec(m, v),
                        ORACLE.batched_matvec(m, v))

    def test_batched_matvec_broadcast_matrices(self, backend, rng):
        # the QuadraticBatchProblem hands the driver a broadcast Hessian view
        m = np.broadcast_to(rng.normal(size=(6, 6)), (9, 6, 6))
        v = rng.normal(size=(9, 6))
        assert_conforms(backend, backend.batched_matvec(m, v),
                        ORACLE.batched_matvec(m, v))

    def test_batched_dot(self, backend, rng):
        a = rng.normal(size=(12, 8))
        b = rng.normal(size=(12, 8))
        assert_conforms(backend, backend.batched_dot(a, b),
                        ORACLE.batched_dot(a, b))

    def test_batched_outer(self, backend, rng):
        a = rng.normal(size=(7, 4))
        b = rng.normal(size=(7, 5))
        assert_conforms(backend, backend.batched_outer(a, b),
                        ORACLE.batched_outer(a, b))

    def test_batched_outer_into_out(self, backend, rng):
        a = rng.normal(size=(7, 4))
        b = rng.normal(size=(7, 5))
        out = np.empty((7, 4, 5))
        result = backend.batched_outer(a, b, out=out)
        assert result is out
        assert_conforms(backend, out, ORACLE.batched_outer(a, b))

    def test_gather_scatter_round_trip(self, backend, rng):
        array = rng.normal(size=(10, 3))
        indices = np.array([7, 2, 2, 0])
        packed = backend.gather(array, indices)
        assert_conforms(backend, packed, ORACLE.gather(array, indices))

        out = np.empty_like(packed)
        assert backend.gather(array, indices, out=out) is out
        assert_conforms(backend, out, packed)

        target = np.zeros((10, 3))
        backend.scatter(target, np.array([7, 2, 0]), packed[:3])
        expected = np.zeros((10, 3))
        ORACLE.scatter(expected, np.array([7, 2, 0]), packed[:3])
        assert_conforms(backend, target, expected)


# --------------------------------------------------------------------- #
# Zero-length launches (the python_loop fallback regression)             #
# --------------------------------------------------------------------- #
class TestZeroLengthLaunch:
    def test_empty_launch_has_empty_result(self, backend):
        def kernel(a, b):
            return a * b + 1.0

        got = backend.launch_over_elements(kernel, np.zeros(0), np.zeros(0))
        assert isinstance(got, np.ndarray)
        assert got.shape == (0,)

    def test_empty_launch_tuple_outputs(self, backend):
        def kernel(a):
            return np.sin(a), np.stack([a, a], axis=-1)

        got = backend.launch_over_elements(kernel, np.zeros(0))
        assert isinstance(got, tuple)
        assert got[0].shape == (0,)
        assert got[1].shape == (0, 2)

    def test_empty_launch_preserves_dtype(self, backend):
        got = backend.launch_over_elements(
            lambda a: (a > 0), np.zeros(0))
        assert got.dtype == bool and got.shape == (0,)

    def test_loop_backend_rejects_non_elementwise_kernel(self):
        # A kernel reducing to a scalar is not element-wise; the old
        # ``python_loop=True`` path silently handed back ``fn(*arrays)``
        # for length-0 launches, hiding the contract violation.
        with pytest.raises(DimensionError):
            LoopBackend().launch_over_elements(
                lambda a: np.float64(a.sum()), np.zeros(0))


# --------------------------------------------------------------------- #
# End-to-end solver conformance                                          #
# --------------------------------------------------------------------- #
@pytest.fixture(scope="module")
def case9():
    return repro.load_case("case9")


def small_budget_params(network) -> AdmmParameters:
    params = parameters_for_case(network)
    params.max_outer = 2
    params.max_inner = 25
    return params


@pytest.fixture(scope="module")
def oracle_solution(case9):
    params = small_budget_params(case9)
    params.kernel_backend = "numpy"
    return repro.solve_acopf_admm(case9, params=params)


class TestEndToEnd:
    def test_admm_solve_matches_oracle(self, backend, case9, oracle_solution):
        params = small_budget_params(case9)
        params.kernel_backend = backend.name
        solution = repro.solve_acopf_admm(case9, params=params)
        if backend.exact:
            assert solution.objective == oracle_solution.objective
            assert np.array_equal(solution.vm, oracle_solution.vm)
            assert np.array_equal(solution.va, oracle_solution.va)
            assert np.array_equal(solution.pg, oracle_solution.pg)
        else:
            np.testing.assert_allclose(solution.vm, oracle_solution.vm,
                                       rtol=1e-8)

    def test_device_stamped_with_backend(self, backend, case9):
        from repro.parallel import SimulatedDevice

        params = small_budget_params(case9)
        params.max_inner = 3
        params.kernel_backend = backend.name
        device = SimulatedDevice()
        repro.solve_acopf_admm(case9, params=params, device=device)
        assert device.as_dict()["backend"] == backend.name
        assert f"backend {backend.name}" in device.report()

    def test_single_scenario_batch_matches_oracle(self, backend, case9,
                                                  oracle_solution):
        # S=1: the stacked solver on one scenario is the classic solve.
        params = small_budget_params(case9)
        params.kernel_backend = backend.name
        solutions = repro.solve_acopf_admm_batch([case9], params=params)
        assert len(solutions) == 1
        if backend.exact:
            assert np.array_equal(solutions[0].vm, oracle_solution.vm)
        else:
            np.testing.assert_allclose(solutions[0].vm, oracle_solution.vm,
                                       rtol=1e-8)

    def test_compacted_tron_solve_matches_oracle(self, backend, rng,
                                                 monkeypatch):
        # Batch is large enough to clear compaction_min_batch, and the
        # spread of condition numbers guarantees staggered convergence, so
        # the compaction window engages and its gathers/scatters run
        # through the backend under test.
        monkeypatch.delenv("REPRO_COMPACTION", raising=False)
        batch, n = 24, 4
        basis = rng.normal(size=(batch, n, n))
        q = np.einsum("bij,bkj->bik", basis, basis) + \
            np.eye(n) * np.linspace(0.1, 10.0, batch)[:, None, None]
        problem = QuadraticBatchProblem(
            q=q, c=rng.normal(size=(batch, n)),
            lb=np.full((batch, n), -1.5), ub=np.full((batch, n), 1.5))
        x0 = np.zeros((batch, n))
        options = TronOptions(compaction_threshold=0.75, compaction_min_batch=8)

        expected = solve_batch(problem, x0, options, kernel_backend="numpy")
        got = solve_batch(problem, x0, options, kernel_backend=backend.name)
        if backend.exact:
            assert np.array_equal(got.x, expected.x)
            assert np.array_equal(got.f, expected.f)
            assert np.array_equal(got.iterations, expected.iterations)
        else:
            np.testing.assert_allclose(got.x, expected.x, rtol=1e-8)
        assert got.converged.all()


# --------------------------------------------------------------------- #
# Registry and selection                                                 #
# --------------------------------------------------------------------- #
class TestRegistry:
    def test_builtins_registered(self):
        names = available_backends()
        assert {"numpy", "loop", "numba"} <= set(names)
        assert names == tuple(sorted(names))

    def test_get_backend_by_name_is_cached(self):
        assert get_backend("numpy") is get_backend("numpy")

    def test_instance_passthrough(self):
        instance = NumpyBackend()
        assert get_backend(instance) is instance

    def test_unknown_name_error_lists_alternatives(self):
        with pytest.raises(ConfigurationError, match="bogus.*registered backends.*numpy"):
            get_backend("bogus")

    def test_unknown_env_backend_fails_with_clear_error(self, monkeypatch):
        monkeypatch.setenv(BACKEND_ENV_VAR, "not-a-backend")
        with pytest.raises(ConfigurationError,
                           match=f"not-a-backend.*{BACKEND_ENV_VAR}"):
            get_backend()

    def test_env_selects_default(self, monkeypatch):
        monkeypatch.setenv(BACKEND_ENV_VAR, "loop")
        assert get_backend().name == "loop"
        assert default_backend_name() == "loop"

    def test_explicit_name_beats_env(self, monkeypatch):
        monkeypatch.setenv(BACKEND_ENV_VAR, "loop")
        assert get_backend("numpy").name == "numpy"

    def test_default_without_env(self, monkeypatch):
        monkeypatch.delenv(BACKEND_ENV_VAR, raising=False)
        assert get_backend().name == "numpy"

    def test_parameters_validate_rejects_unknown_backend(self):
        with pytest.raises(ConfigurationError, match="bogus"):
            AdmmParameters(kernel_backend="bogus").validate()

    def test_parameters_accept_registered_backend(self):
        AdmmParameters(kernel_backend="loop").validate()

    def test_register_duplicate_rejected(self):
        with pytest.raises(ConfigurationError, match="already registered"):
            register_backend("numpy", NumpyBackend)

    def test_register_unregister_third_party(self):
        class Custom(NumpyBackend):
            name = "custom-test"

        register_backend("custom-test", Custom)
        try:
            assert "custom-test" in available_backends()
            assert isinstance(get_backend("custom-test"), Custom)
            register_backend("custom-test", Custom, overwrite=True)
        finally:
            unregister_backend("custom-test")
        assert "custom-test" not in available_backends()
        with pytest.raises(ConfigurationError):
            get_backend("custom-test")

    def test_register_empty_name_rejected(self):
        with pytest.raises(ConfigurationError):
            register_backend("  ", NumpyBackend)


# --------------------------------------------------------------------- #
# Numba degradation                                                      #
# --------------------------------------------------------------------- #
class TestNumbaDegradation:
    def test_degrades_when_numba_hidden(self, monkeypatch, rng):
        """``REPRO_BACKEND=numba`` on a numba-less host must not error."""
        monkeypatch.delitem(sys.modules, "numba", raising=False)
        real_import = builtins.__import__

        def hiding_import(name, *args, **kwargs):
            if name == "numba" or name.startswith("numba."):
                raise ImportError("numba hidden for test")
            return real_import(name, *args, **kwargs)

        monkeypatch.setattr(builtins, "__import__", hiding_import)
        backend = NumbaBackend()
        assert backend.jit_active is False
        assert backend.exact is True

        values = rng.normal(size=30)
        ids = rng.integers(0, 5, size=30)
        assert np.array_equal(backend.segment_sum(values, ids, 5),
                              ORACLE.segment_sum(values, ids, 5))
        m, v = rng.normal(size=(6, 3, 3)), rng.normal(size=(6, 3))
        assert np.array_equal(backend.batched_matvec(m, v),
                              ORACLE.batched_matvec(m, v))

    @pytest.mark.skipif(not HAVE_NUMBA, reason="numba not installed")
    def test_jit_active_with_numba_present(self, rng):
        backend = NumbaBackend()
        assert backend.jit_active is True
        assert backend.exact is False
        m, v = rng.normal(size=(6, 5, 5)), rng.normal(size=(6, 5))
        np.testing.assert_allclose(backend.batched_matvec(m, v),
                                   ORACLE.batched_matvec(m, v),
                                   rtol=JIT_TOLERANCE, atol=0.0)
