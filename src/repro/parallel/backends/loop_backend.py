"""Per-element reference backend — the element-independence proof.

``LoopBackend`` executes every primitive one element (row) at a time and
reassembles the results.  It exists purely for verification: if a kernel's
per-element execution reproduces the vectorised sweep bitwise, the kernel
really is element-wise (no cross-element data flow), so it could be launched
verbatim as a CUDA kernel.  It covers the reductions and the batched linear
algebra too.

It is registered as an *exact* backend: per-element slices of NumPy ufuncs,
in-order accumulation (the order ``np.add.at`` / ``np.maximum.at`` use),
and per-row ``einsum`` all reproduce the vectorised results bit for bit.
"""

from __future__ import annotations

from typing import Callable

import numpy as np

from repro.exceptions import DimensionError
from repro.parallel.backends.base import check_aligned


def empty_launch_result(fn: Callable[..., tuple | np.ndarray],
                        arrays: tuple[np.ndarray, ...]) -> tuple | np.ndarray:
    """Correctly-shaped empty result of a zero-length element-wise launch.

    The kernel is probed on zero-length slices (never on a populated batch,
    preserving the element-independence contract) and each output is
    required to come back with a zero leading dimension — a kernel that
    reduces to a scalar or a fixed shape on an empty launch is a
    non-element-wise kernel and is rejected instead of silently returned.
    """
    probe = fn(*(arr[:0] for arr in arrays))

    def as_empty(out) -> np.ndarray:
        out = np.asarray(out)
        if out.ndim == 0 or out.shape[0] != 0:
            raise DimensionError(
                "element-wise kernel returned a non-empty result "
                f"(shape {out.shape}) for a zero-length launch")
        return out

    if isinstance(probe, tuple):
        return tuple(as_empty(out) for out in probe)
    return as_empty(probe)


class LoopBackend:
    """One-element-at-a-time execution of the kernel primitive set."""

    name = "loop"
    exact = True

    # --- element-wise launches ----------------------------------------- #
    def launch_over_elements(self, fn: Callable[..., tuple | np.ndarray],
                             *arrays: np.ndarray) -> tuple | np.ndarray:
        length = check_aligned(arrays)
        if length == 0:
            return empty_launch_result(fn, arrays)
        per_element = [fn(*(arr[i:i + 1] for arr in arrays)) for i in range(length)]
        if isinstance(per_element[0], tuple):
            n_out = len(per_element[0])
            return tuple(np.concatenate([out[k] for out in per_element])
                         for k in range(n_out))
        return np.concatenate(per_element)

    # --- scatter / segment reductions ---------------------------------- #
    def scatter_add(self, target: np.ndarray, indices: np.ndarray,
                    values: np.ndarray) -> np.ndarray:
        values = np.broadcast_to(values, np.shape(indices))
        for k in range(len(indices)):
            target[indices[k]] += values[k]
        return target

    def segment_sum(self, values: np.ndarray, segment_ids: np.ndarray,
                    n_segments: int) -> np.ndarray:
        out = np.zeros(n_segments, dtype=values.dtype)
        for k in range(values.shape[0]):
            out[segment_ids[k]] += values[k]
        return out

    def segment_max(self, values: np.ndarray, segment_ids: np.ndarray,
                    n_segments: int, initial: float = 0.0) -> np.ndarray:
        out = np.full(n_segments, -np.inf, dtype=float)
        for k in range(values.shape[0]):
            if values[k] > out[segment_ids[k]]:
                out[segment_ids[k]] = values[k]
        return np.where(np.isneginf(out), initial, out)

    # --- dense batched linear algebra ----------------------------------- #
    def batched_matvec(self, matrices: np.ndarray, vectors: np.ndarray) -> np.ndarray:
        matrices = np.broadcast_to(matrices,
                                   vectors.shape[:-1] + matrices.shape[-2:])
        out = np.empty_like(vectors)
        flat_m = matrices.reshape((-1,) + matrices.shape[-2:])
        flat_v = vectors.reshape((-1, vectors.shape[-1]))
        flat_o = out.reshape((-1, vectors.shape[-1]))
        for b in range(flat_v.shape[0]):
            flat_o[b] = np.einsum("ij,j->i", flat_m[b], flat_v[b])
        return out

    def batched_dot(self, a: np.ndarray, b: np.ndarray) -> np.ndarray:
        out = np.empty(a.shape[:-1], dtype=np.result_type(a, b))
        flat_a = a.reshape((-1, a.shape[-1]))
        flat_b = b.reshape((-1, b.shape[-1]))
        flat_o = out.reshape(-1)
        for k in range(flat_a.shape[0]):
            flat_o[k] = np.einsum("i,i->", flat_a[k], flat_b[k])
        return out

    def batched_outer(self, a: np.ndarray, b: np.ndarray,
                      out: np.ndarray | None = None) -> np.ndarray:
        batch = a.shape[0]
        if out is None:
            out = np.empty((batch, a.shape[1], b.shape[1]),
                           dtype=np.result_type(a, b))
        for k in range(batch):
            np.einsum("i,j->ij", a[k], b[k], out=out[k])
        return out

    # --- compaction gather / scatter ------------------------------------ #
    def gather(self, array: np.ndarray, indices: np.ndarray,
               out: np.ndarray | None = None) -> np.ndarray:
        if out is None:
            out = np.empty((len(indices),) + array.shape[1:], dtype=array.dtype)
        for k in range(len(indices)):
            out[k] = array[indices[k]]
        return out

    def scatter(self, target: np.ndarray, indices: np.ndarray,
                values: np.ndarray) -> np.ndarray:
        if np.shape(values)[0] != len(indices):
            raise DimensionError("scatter values must match the index count")
        for k in range(len(indices)):
            target[indices[k]] = values[k]
        return target
