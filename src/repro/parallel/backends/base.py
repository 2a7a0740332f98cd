"""The :class:`KernelBackend` protocol — one device-kernel API for every sweep.

Every hot sweep in the reproduction (ADMM closed-form updates, TRON
Cauchy/CG steps, compacted gathers) funnels through a small set of
primitives: element-wise kernel launches, scatter/segment reductions, the
dense batched linear algebra of the trust-region model, and the
gather/scatter pair of stream compaction.  A *kernel backend* is one
implementation of that set.  The reference :class:`NumpyBackend
<repro.parallel.backends.numpy_backend.NumpyBackend>` is the verification
oracle: any other backend must reproduce it bitwise when it declares
``exact = True``, or within :data:`JIT_TOLERANCE` otherwise (the contract
the conformance suite in ``tests/test_backends.py`` enforces for every
registered backend).

All primitives operate on the leading (batch / element) axis and must be
row-separable: row ``i`` of every output depends only on row ``i`` of the
inputs (plus shared per-segment targets for the reductions), which is what
makes stream compaction and per-element launches bitwise-equivalent to the
full sweep.
"""

from __future__ import annotations

from typing import Callable, Protocol, runtime_checkable

import numpy as np

from repro.exceptions import DimensionError

#: Relative tolerance granted to non-exact (JIT-compiled) backends by the
#: conformance suite.  JIT loop nests accumulate in plain ascending order
#: while NumPy's einsum uses blocked partial sums, so the last couple of
#: bits of a dot product may differ; anything beyond this bound is a bug.
JIT_TOLERANCE = 1e-12


def check_aligned(arrays: tuple[np.ndarray, ...]) -> int:
    """Validate that kernel arguments share their leading dimension.

    Returns that shared length.  Shared by every backend so the
    :meth:`KernelBackend.launch_over_elements` contract (at least
    one array, aligned leading axes) does not depend on the execution path.
    """
    if not arrays:
        raise DimensionError("launch_over_elements needs at least one array argument")
    length = arrays[0].shape[0]
    for arr in arrays:
        if arr.shape[0] != length:
            raise DimensionError("all kernel arguments must share their leading dimension")
    return length


@runtime_checkable
class KernelBackend(Protocol):
    """One implementation of the device-kernel primitive set.

    Attributes
    ----------
    name:
        Registry key and the label stamped into device metrics and
        ``BENCH_*.json`` records.
    exact:
        ``True`` when the backend promises bitwise identity with the NumPy
        oracle; ``False`` grants it :data:`JIT_TOLERANCE` in the
        conformance suite.
    """

    name: str
    exact: bool

    # --- element-wise launches ----------------------------------------- #
    def launch_over_elements(self, fn: Callable[..., tuple | np.ndarray],
                             *arrays: np.ndarray) -> tuple | np.ndarray:
        """Execute an element-wise kernel over aligned leading axes."""

    # --- scatter / segment reductions ---------------------------------- #
    def scatter_add(self, target: np.ndarray, indices: np.ndarray,
                    values: np.ndarray) -> np.ndarray:
        """Atomic-add analogue: accumulate ``values`` into ``target`` in place."""

    def segment_sum(self, values: np.ndarray, segment_ids: np.ndarray,
                    n_segments: int) -> np.ndarray:
        """Sum ``values`` grouped by ``segment_ids``."""

    def segment_max(self, values: np.ndarray, segment_ids: np.ndarray,
                    n_segments: int, initial: float = 0.0) -> np.ndarray:
        """Per-segment maximum; empty segments get ``initial``."""

    # --- dense batched linear algebra (TRON Cauchy / CG) ---------------- #
    def batched_matvec(self, matrices: np.ndarray, vectors: np.ndarray) -> np.ndarray:
        """``(B, n, n) @ (B, n) -> (B, n)`` Hessian-vector products."""

    def batched_dot(self, a: np.ndarray, b: np.ndarray) -> np.ndarray:
        """Row-wise inner products ``(B, n) · (B, n) -> (B,)``."""

    def batched_outer(self, a: np.ndarray, b: np.ndarray,
                      out: np.ndarray | None = None) -> np.ndarray:
        """Row-wise outer products ``(B, n) ⊗ (B, m) -> (B, n, m)``."""

    # --- compaction gather / scatter ------------------------------------ #
    def gather(self, array: np.ndarray, indices: np.ndarray,
               out: np.ndarray | None = None) -> np.ndarray:
        """Pack rows ``indices`` of a resident array into a dense sub-batch."""

    def scatter(self, target: np.ndarray, indices: np.ndarray,
                values: np.ndarray) -> np.ndarray:
        """Write packed rows back into the resident array (in place)."""
