"""Simulated GPU execution layer.

The paper runs every ADMM update as a CUDA kernel: closed-form updates launch
one thread per array element, branch subproblems launch one thread block per
branch (ExaTron).  Without a GPU, this package keeps the same *structure* —
each update is an explicitly named "kernel" operating on contiguous arrays
with no cross-component data dependencies — and executes it with vectorised
NumPy.  The :class:`~repro.parallel.device.SimulatedDevice` records per-kernel
wall-clock time so benchmarks can report the breakdown the paper discusses
(closed-form component updates vs. batched branch solves).

Kernel *implementations* are pluggable: :mod:`repro.parallel.backends`
defines the :class:`~repro.parallel.backends.base.KernelBackend` protocol,
the reference :class:`~repro.parallel.backends.numpy_backend.NumpyBackend`
(the bitwise oracle), the per-element
:class:`~repro.parallel.backends.loop_backend.LoopBackend`, and an optional
numba-JIT backend; ``register_backend`` / ``get_backend`` manage the
registry, with selection via :class:`~repro.admm.parameters.AdmmParameters`
or the ``REPRO_BACKEND`` environment variable.
"""

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
from repro.parallel.compaction import ActiveSet, Workspace, compaction_enabled
from repro.parallel.device import KernelRecord, SimulatedDevice, merge_device_dicts
from repro.parallel.faults import FaultCommand, FaultPlan, FaultSpec
from repro.parallel.pool import (
    ChunkFailure,
    DevicePool,
    PoolExecutionError,
    PoolReport,
    solve_acopf_admm_pool,
)

__all__ = [
    "ActiveSet",
    "BACKEND_ENV_VAR",
    "ChunkFailure",
    "DevicePool",
    "FaultCommand",
    "FaultPlan",
    "FaultSpec",
    "JIT_TOLERANCE",
    "KernelBackend",
    "KernelRecord",
    "LoopBackend",
    "NumbaBackend",
    "NumpyBackend",
    "PoolExecutionError",
    "PoolReport",
    "SimulatedDevice",
    "Workspace",
    "available_backends",
    "compaction_enabled",
    "default_backend_name",
    "get_backend",
    "merge_device_dicts",
    "register_backend",
    "solve_acopf_admm_pool",
    "unregister_backend",
]
