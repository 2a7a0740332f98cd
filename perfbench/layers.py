"""The layers the traced run wraps, and the per-layer metrics read off them.

Each entry of :data:`SPANS` names one public function (or method) of the
program and the span it is timed under.  Functions the solver calls through
a module global are wrapped at that call site (``repro.admm.batch_solver``
for the five ADMM component updates), so the span covers exactly the call
the solver makes.  :data:`LAYER_MAP` records which end-to-end metric each
per-layer metric should move, on which workload.
"""

from __future__ import annotations

import importlib
import sys

from perfbench.tracer import Patcher, Tracer

#: The five ADMM component updates, by span suffix.
UPDATES = ("generator", "branch", "bus", "z", "multiplier")


def _tron_counts(tracer: Tracer, args, result) -> None:
    tracer.count("tron.rows", len(args[1]))
    tracer.count("tron.iterations", int(result.iterations.sum()))
    tracer.count("tron.fevals", int(result.function_evaluations))


def _pool_counts(tracer: Tracer, args, report) -> None:
    tracer.count("pool.makespan", report.makespan_seconds)
    tracer.count("pool.busy", report.total_busy_seconds)
    tracer.count("pool.capacity", report.n_workers * report.wall_seconds)
    tracer.count("pool.chunks", len(report.chunks))
    tracer.count("pool.steals", report.n_steals)
    tracer.count("pool.retries", report.retries)
    tracer.count("pool.respawns", report.respawns)


#: (module, attribute path, span name, optional after-hook)
SPANS = (
    ("repro.admm.data", "ComponentData.from_scenarios", "admm.stack", None),
    ("repro.admm.batch_solver", "BatchAdmmSolver.solve", "admm.solve", None),
    ("repro.admm.batch_solver", "update_generators", "admm.generator_update", None),
    ("repro.admm.batch_solver", "update_branches", "admm.branch_update", None),
    ("repro.admm.batch_solver", "update_buses", "admm.bus_update", None),
    ("repro.admm.batch_solver", "update_artificial_variables", "admm.z_update", None),
    ("repro.admm.batch_solver", "update_multipliers", "admm.multiplier_update", None),
    ("repro.admm.batch_solver", "compute_residuals", "admm.residuals", None),
    ("repro.admm.batch_solver", "update_outer_level", "admm.outer_level", None),
    ("repro.admm.batch_solver", "extract_scenario_state", "admm.extract_state", None),
    ("repro.admm.batch_solver", "constraint_violation", "admm.violation", None),
    ("repro.admm.branch_update", "solve_batch", "tron.solve", _tron_counts),
    ("repro.tron.driver", "cauchy_point", "tron.cauchy", None),
    ("repro.tron.driver", "steihaug_cg", "tron.cg", None),
    ("repro.admm.branch_update", "BranchObjective.objective", "tron.obj", None),
    ("repro.admm.branch_update", "BranchObjective.gradient", "tron.grad", None),
    ("repro.admm.branch_update", "BranchObjective.hessian", "tron.hess", None),
    ("repro.parallel.compaction", "ActiveSet.gather", "compaction.gather", None),
    ("repro.parallel.compaction", "ActiveSet.scatter", "compaction.scatter", None),
    ("repro.admm.data", "ComponentData.select_scenarios", "compaction.select", None),
    ("repro.admm.batch_solver", "BatchAdmmSolver.update_scenario_data",
     "tracking.update_data", None),
    ("repro.tracking.pipeline", "ramp_window", "tracking.ramp", None),
    ("repro.grid.network", "Network.with_array_overrides", "tracking.views", None),
    ("repro.tracking.pipeline", "WarmStartCache.store", "tracking.cache", None),
    ("repro.tracking.pipeline", "WarmStartCache.states", "tracking.cache", None),
    ("repro.tracking.pipeline", "WarmStartCache.previous_pg", "tracking.cache", None),
    ("repro.tracking.pipeline", "WarmStartCache.affinity", "tracking.cache", None),
    ("repro.tracking.pipeline", "WarmStartCache.penalties", "tracking.cache", None),
    ("repro.parallel.pool", "DevicePool.solve", "pool.solve", _pool_counts),
)

#: (per-layer metrics, the end-to-end metric they should move, where)
LAYER_MAP = (
    (("grid.load_case_s", "scenarios.build_s", "admm.stack_s"),
     "setup_s", "every workload"),
    (("admm.solve_s", "admm.inner_iterations", "admm.outer_iterations",
      "admm.generator_update_s", "admm.branch_update_s", "admm.bus_update_s",
      "admm.z_update_s", "admm.multiplier_update_s"),
     "solve_s", "cold_n1; iteration cuts must leave max_obj_gap unmoved"),
    (("admm.residuals_s", "admm.outer_level_s", "admm.extract_s",
      "admm.unlaunched_frac"),
     "period_p50_s", "track_warm; little on cold_n1"),
    (("tron.s", "tron.calls", "tron.rows", "tron.iterations", "tron.fevals",
      "tron.cauchy_s", "tron.cg_s", "tron.cg_calls", "tron.eval_s",
      "tron.obj_evals", "tron.grad_evals", "tron.hess_evals"),
     "solve_s", "cold_n1 first, then period_p50_s on track_warm"),
    (("compaction.gather_calls", "compaction.gather_s",
      "compaction.scenario_selects", "admm.branch_occupancy"),
     "solve_s", "cold_n1; no change on track_warm"),
    (("tracking.update_data_s", "tracking.cache_s", "tracking.ramp_s",
      "tracking.views_s", "tracking.period_overhead_s"),
     "period_p50_s", "track_warm; cold_n1 has none of this work"),
    (("pool.wall_s", "pool.makespan_s", "pool.busy_s", "pool.overhead_s",
      "pool.chunks", "pool.steals", "pool.retries", "pool.respawns",
      "pool.idle_frac"),
     "period_p50_s and period_p90_s", "track_pool only"),
    (("trace.spans", "trace.solve_s"),
     "tracing overhead = trace.solve_s - solve_s", "every workload"),
)

#: Per-round counters that must repeat exactly for one commit and seed.
DETERMINISTIC = (
    "admm.inner_iterations", "admm.outer_iterations",
    "tron.calls", "tron.rows", "tron.iterations", "tron.fevals", "tron.cg_calls",
    "tron.obj_evals", "tron.grad_evals", "tron.hess_evals",
    "compaction.gather_calls", "compaction.scenario_selects", "pool.chunks",
)


def _resolve(module: str, path: str):
    owner = importlib.import_module(module)
    *parents, attr = path.split(".")
    for name in parents:
        owner = getattr(owner, name)
    return owner, attr


def _count_branch_rows(tracer: Tracer):
    """Wrap ``SimulatedDevice.launch`` to count swept vs active branch rows."""
    def make(launch):
        def launch_counted(self, kernel_name, fn, *args, elements=None,
                           active_elements=None, **kwargs):
            if (kernel_name == "branch_update" and elements is not None
                    and tracer.recording):
                active = elements if active_elements is None else active_elements
                tracer.count("admm.branch_rows", int(elements))
                tracer.count("admm.branch_active_rows",
                             min(int(active), int(elements)))
            return launch(self, kernel_name, fn, *args, elements=elements,
                          active_elements=active_elements, **kwargs)
        return launch_counted
    return make


def instrument(tracer: Tracer) -> Patcher:
    """Install every wrapper of :data:`SPANS`; the patcher restores them.

    A function the program no longer has is reported on stderr and left
    out, so its metrics read zero rather than the run failing.
    """
    patches = [(module, path, lambda fn, name=name, after=after:
                tracer.wrap(fn, name, after))
               for module, path, name, after in SPANS]
    patches.append(("repro.parallel.device", "SimulatedDevice.launch",
                    _count_branch_rows(tracer)))
    patcher = Patcher()
    for module, path, make in patches:
        try:
            owner, attr = _resolve(module, path)
            patcher.replace(owner, attr, make)
        except (ImportError, AttributeError, KeyError) as error:
            print(f"perfbench: cannot trace {module}.{path}: {error!r}",
                  file=sys.stderr)
    return patcher


def snapshot(tracer: Tracer) -> dict[str, float]:
    """Cumulative counts the per-round deltas are taken from."""
    counts = dict(tracer.counters)
    for metric, spans in (("tron.calls", ("tron.solve",)),
                          ("tron.cg_calls", ("tron.cg",)),
                          ("tron.obj_evals", ("tron.obj",)),
                          ("tron.grad_evals", ("tron.grad",)),
                          ("tron.hess_evals", ("tron.hess",)),
                          ("compaction.gather_calls",
                           ("compaction.gather", "compaction.scatter")),
                          ("compaction.scenario_selects", ("compaction.select",))):
        counts[metric] = sum(tracer.calls(span) for span in spans)
    counts["trace.spans"] = tracer.span_count
    return counts


def delta(after: dict[str, float], before: dict[str, float]) -> dict[str, float]:
    return {key: value - before.get(key, 0) for key, value in after.items()}


def layer_metrics(tracer: Tracer, rounds: list[dict[str, float]],
                  setup_reps: int, period_wall_s: float) -> dict[str, float]:
    """Per-layer metrics of a traced run.

    Times are seconds per timed round (a cold screen, or one tracking
    horizon), averaged over the run's rounds; counts are per round.
    Set-up layers are per set-up repetition (``admm.stack_s`` per stack).
    ``rounds`` holds each round's counter deltas; ``period_wall_s`` is the
    mean per-round sum of period latencies (zero without periods).
    """
    n = len(rounds)

    def per_round(span: str) -> float:
        return tracer.total(span, under="round") / n

    def count(key: str) -> float:
        return sum(r.get(key, 0) for r in rounds) / n

    m: dict[str, float] = {
        "grid.load_case_s": tracer.total("grid.load_case", under="setup") / setup_reps,
        "scenarios.build_s": tracer.total("scenarios.build", under="setup") / setup_reps,
    }
    stacks = tracer.calls("admm.stack", under="setup") + tracer.calls("admm.stack", under="prime")
    m["admm.stack_s"] = ((tracer.total("admm.stack", under="setup")
                          + tracer.total("admm.stack", under="prime")) / max(1, stacks))

    m["admm.solve_s"] = per_round("admm.solve")
    updates = 0.0
    for update in UPDATES:
        seconds = per_round(f"admm.{update}_update")
        m[f"admm.{update}_update_s"] = seconds
        updates += seconds
    m["admm.residuals_s"] = per_round("admm.residuals")
    m["admm.outer_level_s"] = per_round("admm.outer_level")
    m["admm.extract_s"] = per_round("admm.extract_state") + per_round("admm.violation")
    m["admm.unlaunched_frac"] = (1.0 - updates / m["admm.solve_s"]
                                 if m["admm.solve_s"] > 0 else 0.0)
    rows = count("admm.branch_rows")
    m["admm.branch_occupancy"] = count("admm.branch_active_rows") / rows if rows else 0.0
    m["admm.inner_iterations"] = count("admm.inner_iterations")
    m["admm.outer_iterations"] = count("admm.outer_iterations")

    m["tron.s"] = per_round("tron.solve")
    for key in ("tron.calls", "tron.rows", "tron.iterations", "tron.fevals",
                "tron.cg_calls", "tron.obj_evals", "tron.grad_evals",
                "tron.hess_evals"):
        m[key] = count(key)
    m["tron.cauchy_s"] = per_round("tron.cauchy")
    m["tron.cg_s"] = per_round("tron.cg")
    m["tron.eval_s"] = sum(per_round(f"tron.{kind}") for kind in ("obj", "grad", "hess"))

    m["compaction.gather_calls"] = count("compaction.gather_calls")
    m["compaction.gather_s"] = (per_round("compaction.gather")
                                + per_round("compaction.scatter"))
    m["compaction.scenario_selects"] = count("compaction.scenario_selects")

    m["tracking.update_data_s"] = per_round("tracking.update_data")
    m["tracking.cache_s"] = per_round("tracking.cache")
    m["tracking.ramp_s"] = per_round("tracking.ramp")
    m["tracking.views_s"] = per_round("tracking.views")
    solve_calls = per_round("admm.solve") + per_round("pool.solve")
    m["tracking.period_overhead_s"] = (period_wall_s - solve_calls
                                       if period_wall_s > 0 else 0.0)

    m["pool.wall_s"] = per_round("pool.solve")
    m["pool.makespan_s"] = count("pool.makespan")
    m["pool.busy_s"] = count("pool.busy")
    m["pool.overhead_s"] = m["pool.wall_s"] - m["pool.makespan_s"]
    for key in ("pool.chunks", "pool.steals", "pool.retries", "pool.respawns"):
        m[key] = count(key)
    capacity = count("pool.capacity")
    m["pool.idle_frac"] = 1.0 - m["pool.busy_s"] / capacity if capacity else 0.0

    m["trace.spans"] = count("trace.spans")
    return m
