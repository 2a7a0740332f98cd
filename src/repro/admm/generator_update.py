"""Closed-form generator update (eq. (6) of the paper).

Each generator solves, independently of every other component,

``min_{pg ∈ [p̲, p̄]}  f_g(pg) + y (pg − pg_copy + z) + (ρ/2)(pg − pg_copy + z)²``

and the analogous problem in ``qg`` (which carries no cost term).  With
quadratic costs the unconstrained minimiser is available in closed form and
the bound constraint is a projection — one GPU thread per generator in the
paper, one vectorised kernel here.
"""

from __future__ import annotations

import numpy as np

from repro.admm.data import ComponentData
from repro.admm.state import AdmmState
from repro.parallel.backends import KernelBackend, get_backend


def generator_kernel(pg_copy: np.ndarray, qg_copy: np.ndarray,
                     z_p: np.ndarray, z_q: np.ndarray,
                     y_p: np.ndarray, y_q: np.ndarray,
                     c2: np.ndarray, c1: np.ndarray,
                     pmin: np.ndarray, pmax: np.ndarray,
                     qmin: np.ndarray, qmax: np.ndarray,
                     rho_p: np.ndarray, rho_q: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Element-wise closed-form update of (pg, qg) for every generator."""
    pg = (rho_p * (pg_copy - z_p) - y_p - c1) / (2.0 * c2 + rho_p)
    qg = qg_copy - z_q - y_q / rho_q
    return np.clip(pg, pmin, pmax), np.clip(qg, qmin, qmax)


def update_generators(data: ComponentData, state: AdmmState,
                      backend: KernelBackend | None = None) -> None:
    """Launch the generator kernel on the active backend, update the state.

    The penalties are broadcast to per-generator arrays so the launch is a
    pure element-wise sweep over aligned arrays (scalar and per-element rho
    multiply identically, so the broadcast is bitwise-neutral).
    """
    n_gen = state.pg_copy.shape[0]
    rho_p = np.broadcast_to(np.asarray(data.rho["gp"], dtype=float), (n_gen,))
    rho_q = np.broadcast_to(np.asarray(data.rho["gq"], dtype=float), (n_gen,))
    state.pg, state.qg = get_backend(backend).launch_over_elements(
        generator_kernel,
        state.pg_copy, state.qg_copy,
        state.z["gp"], state.z["gq"],
        state.y["gp"], state.y["gq"],
        data.gen_c2, data.gen_c1,
        data.gen_pmin, data.gen_pmax,
        data.gen_qmin, data.gen_qmax,
        rho_p, rho_q,
    )
