"""The benchmark's workloads: inputs from a seed, set-up, timed rounds, checks.

Every workload is a closed loop in one process: the next solve starts when
the previous one has returned.  A *round* is one timed unit of work — a
cold N-1 screen, or one warm tracking horizon — and a run repeats rounds on
identical inputs, so deterministic counters and answers must repeat exactly
from round to round.  All solves use the solver's default (paper)
tolerances; no iteration budget is capped.

``cold_n1``
    A cold-start N-1 screen: 8 case9 branch outages, each at its own load
    factor in [0.6, 1.05], solved as one batch on one device.  The Table II
    regime — ADMM and TRON do nearly all the work, staggered freezes engage
    stream compaction, tracking and the pool are bypassed.
``track_warm``
    Warm rolling-horizon tracking of an 8-scenario load-scaled case9 fleet
    on one device, each scenario following its own seeded one-minute demand
    profile, from a warm-start cache primed by one cold period during
    set-up — many short warm re-solves, where per-solve fixed costs weigh.
``track_pool``
    The same primed horizon through ``DevicePool(n_workers=2,
    executor="process")``: the only workload that dispatches, spawns
    workers, ships warm states and merges.  Its answers must equal the
    single-device horizon's bit for bit.
"""

from __future__ import annotations

import hashlib
import json
import os
import pickle
import time
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

import repro
from repro.admm.batch_solver import BatchAdmmSolver
from repro.scenarios import Scenario, ScenarioSet
from repro.tracking.load_profile import LoadProfile
from repro.tracking.pipeline import WarmStartCache
from repro.tracking.ramping import ramp_window

from perfbench.tracer import Tracer

CASE = "case9"
N_SCENARIOS = 8
#: Range of the cold screen's load factors; one factor is drawn in each of
#: N_SCENARIOS equal strata, so every seed spans the range and the screen's
#: total work varies little from seed to seed.
LOAD_RANGE = (0.6, 1.05)
#: Distinct periods of one tracking round; a run times at least
#: MIN_TRACKING_ROUNDS rounds, so ≥ 100 periods and ≥ 10 lie beyond the p90.
HORIZON = 50
MIN_TRACKING_ROUNDS = 2
POOL_WORKERS = 2
#: Accuracy every scenario-solve must reach against the IPM reference.
GAP_BOUND = 1e-2          # relative objective gap
VIOLATION_BOUND = 5e-3    # ‖c(x)‖∞, per unit
CENTRED_IPM = repro.InteriorPointOptions(sigma=0.2)


@dataclass
class Round:
    """One timed round: wall time, per-answer latencies and the answers."""

    wall_s: float
    latencies: list[float]
    solutions: list[list]          # [period][scenario] AdmmSolution
    counters: dict[str, float]


@dataclass
class Check:
    """Outcome of the correctness checks of a run."""

    attempted: int = 0
    failed: int = 0
    max_gap: float = 0.0
    max_violation: float = 0.0
    problems: list[str] = field(default_factory=list)


def write_json(path: Path, payload) -> None:
    """Write ``payload`` atomically (a reader never sees a partial file)."""
    path.parent.mkdir(parents=True, exist_ok=True)
    partial = path.with_suffix(f".{os.getpid()}.tmp")
    partial.write_text(json.dumps(payload, indent=1, sort_keys=True))
    partial.replace(path)


class Store:
    """What runs of one program and benchmark source keep on disk.

    ``directory`` is specific to that source, so nothing recorded by other
    code is ever reused: IPM reference answers (keyed by the pickled
    network, i.e. every array the solvers read), and named records such as
    the deterministic counters and answer digests of earlier runs.
    """

    def __init__(self, directory: Path) -> None:
        self.directory = directory

    def recall(self, name: str):
        path = self.directory / f"{name}.json"
        return json.loads(path.read_text()) if path.is_file() else None

    def record(self, name: str, payload) -> None:
        write_json(self.directory / f"{name}.json", payload)

    def reference(self, network) -> tuple[float, bool]:
        """``(objective, converged)`` of ``solve_acopf_ipm(network)``.

        A default solve that stalls (a few ramp-window problems stop with a
        zero step length a hair short of the tolerances) is retried once on
        a more centred barrier path.
        """
        key = hashlib.sha256(pickle.dumps(network, protocol=4)).hexdigest()
        name = f"ipm/{key[:2]}/{key}"
        cached = self.recall(name)
        if cached is not None:
            return float(cached["objective"]), bool(cached["converged"])
        solution = repro.solve_acopf_ipm(network)
        if not solution.converged:
            solution = repro.solve_acopf_ipm(network, options=CENTRED_IPM)
        self.record(name, {"objective": float(solution.objective),
                           "converged": bool(solution.converged)})
        return float(solution.objective), bool(solution.converged)


# --------------------------------------------------------------------- #
# Inputs                                                                  #
# --------------------------------------------------------------------- #
def n1_screen(network, seed: int) -> ScenarioSet:
    """N_SCENARIOS non-islanding outages, each at its own load factor."""
    rng = np.random.default_rng(seed)
    outages = repro.contingency_scenarios(network).scenarios
    picks = np.concatenate([np.arange(len(outages)),
                            rng.choice(len(outages), N_SCENARIOS - len(outages),
                                       replace=False)])
    picks = rng.permutation(picks)
    low, high = LOAD_RANGE
    factors = low + (high - low) * (np.arange(N_SCENARIOS)
                                    + rng.uniform(size=N_SCENARIOS)) / N_SCENARIOS
    scenarios = []
    for pick, factor in zip(picks, factors):
        outage = outages[pick]
        name = f"{outage.name}@x{factor:.4f}"
        scenarios.append(Scenario(
            name=name, network=outage.network.with_scaled_loads(factor, name=name)))
    return ScenarioSet(scenarios=tuple(scenarios), name=f"{CASE}-n1-screen")


@dataclass(frozen=True)
class ClockedProfile(LoadProfile):
    """A load profile that timestamps the start of every period.

    ``track_horizon_batch`` reads each period's multiplier before any other
    work of that period, so consecutive marks bound one period's latency.
    """

    marks: list = field(default_factory=list, compare=False, repr=False)

    def multiplier(self, period: int) -> float:
        if period == len(self.marks):
            self.marks.append(time.perf_counter())
        return super().multiplier(period)


def copy_cache(cache: WarmStartCache, keys) -> WarmStartCache:
    """A fresh cache holding the same records (states are never mutated)."""
    copy = WarmStartCache()
    for key in keys:
        record = cache.get(key)
        copy.store(key, state=record.state, pg=record.pg, worker=record.worker,
                   period=record.period, rho_pq=record.rho_pq,
                   rho_va=record.rho_va)
    return copy


def answers_digest(solutions: list[list]) -> str:
    """Hash of every answer's arrays and iteration counts, in order."""
    digest = hashlib.sha256()
    for period in solutions:
        for s in period:
            for array in (s.vm, s.va, s.pg, s.qg):
                digest.update(np.ascontiguousarray(array, dtype=float).tobytes())
            digest.update(f"{s.inner_iterations},{s.outer_iterations};".encode())
    return digest.hexdigest()


def iteration_counts(solutions: list[list]) -> dict[str, float]:
    return {
        "admm.inner_iterations": sum(s.inner_iterations for row in solutions for s in row),
        "admm.outer_iterations": sum(s.outer_iterations for row in solutions for s in row),
    }


# --------------------------------------------------------------------- #
# Checks                                                                  #
# --------------------------------------------------------------------- #
def same_solution(a, b) -> bool:
    return (a.inner_iterations == b.inner_iterations
            and a.outer_iterations == b.outer_iterations
            and np.array_equal(a.vm, b.vm) and np.array_equal(a.va, b.va)
            and np.array_equal(a.pg, b.pg) and np.array_equal(a.qg, b.qg))


def solution_problems(solution, reference: tuple[float, bool]) -> list[str]:
    problems = []
    if not solution.converged:
        problems.append("not converged")
    arrays = (solution.vm, solution.va, solution.pg, solution.qg)
    if not (np.isfinite(solution.objective) and all(np.isfinite(a).all() for a in arrays)):
        problems.append("non-finite answer")
        return problems
    objective, converged = reference
    if not converged:
        problems.append("IPM reference did not converge")
    gap = repro.relative_objective_gap(solution.objective, objective)
    if not gap <= GAP_BOUND:
        problems.append(f"objective gap {gap:.3e} > {GAP_BOUND:g}")
    violation = solution.max_constraint_violation
    if not violation <= VIOLATION_BOUND:
        problems.append(f"violation {violation:.3e} > {VIOLATION_BOUND:g}")
    return problems


def check_rounds(rounds: list[Round], references: list[list],
                 expected: list[list] | None = None) -> Check:
    """Check every scenario-solve of every round.

    ``references[t][s]`` is the IPM answer to period ``t``'s problem of
    scenario ``s``.  Each round must reproduce ``expected`` bit for bit
    (default: the first round's answers).
    """
    expected = expected if expected is not None else rounds[0].solutions
    check = Check()
    for r, round_ in enumerate(rounds):
        for t, period in enumerate(round_.solutions):
            for s, solution in enumerate(period):
                check.attempted += 1
                problems = solution_problems(solution, references[t][s])
                if not same_solution(solution, expected[t][s]):
                    problems.append("differs bitwise from the expected answer")
                if np.isfinite(solution.objective):
                    check.max_gap = max(check.max_gap, repro.relative_objective_gap(
                        solution.objective, references[t][s][0]))
                    check.max_violation = max(check.max_violation,
                                              solution.max_constraint_violation)
                if problems:
                    check.failed += 1
                    check.problems.append(
                        f"round {r} period {t} {solution.network_name}: "
                        + "; ".join(problems))
    return check


# --------------------------------------------------------------------- #
# Workloads                                                               #
# --------------------------------------------------------------------- #
class ColdN1:
    """Cold-start N-1 screen on one device (see the module docstring).

    Its latencies are the times at which each scenario's answer froze,
    not tracking periods.
    """

    min_rounds = 1
    periodic = False

    def __init__(self, seed: int, tracer: Tracer) -> None:
        self.seed = seed
        self.tracer = tracer

    def setup(self) -> None:
        with self.tracer.span("grid.load_case"):
            network = repro.load_case(CASE)
        with self.tracer.span("scenarios.build"):
            self.scenarios = n1_screen(network, self.seed)
        self.solver = BatchAdmmSolver(self.scenarios)

    def prime(self) -> None:
        """Nothing to prime: every round is a cold start."""

    def run_round(self) -> Round:
        with self.tracer.span("round"):
            start = time.perf_counter()
            solutions = self.solver.solve()
            wall = time.perf_counter() - start
        return Round(wall_s=wall, latencies=[s.solve_seconds for s in solutions],
                     solutions=[solutions], counters=iteration_counts([solutions]))

    def check(self, rounds: list[Round], store: Store) -> Check:
        return check_rounds(rounds, [[store.reference(s.network)
                                      for s in self.scenarios]])


class TrackWarm:
    """Warm tracking on one device (see the module docstring)."""

    min_rounds = MIN_TRACKING_ROUNDS
    periodic = True
    pooled = False

    def __init__(self, seed: int, tracer: Tracer) -> None:
        self.seed = seed
        self.tracer = tracer

    def setup(self) -> None:
        with self.tracer.span("grid.load_case"):
            network = repro.load_case(CASE)
        with self.tracer.span("scenarios.build"):
            self.fleet = repro.tracking_fleet(network, kind="load",
                                              n_scenarios=N_SCENARIOS)
            # One demand profile per scenario: the horizon's work then sums
            # eight independent load paths instead of scaling with one.
            # Period 0 (load 1.0 for every seed) is the primed cold period,
            # periods 1..HORIZON are tracked.
            seeds = np.random.default_rng(self.seed).integers(2**31, size=N_SCENARIOS)
            self.profiles = [repro.make_load_profile(n_periods=HORIZON + 1, seed=int(s))
                             for s in seeds]
        self.pool = (repro.DevicePool(n_workers=POOL_WORKERS, executor="process")
                     if self.pooled else None)

    def tracked(self, clocked: bool = False) -> list[LoadProfile]:
        """Each scenario's profile over the tracked periods."""
        kinds = [ClockedProfile if clocked else LoadProfile] + [LoadProfile] * (N_SCENARIOS - 1)
        return [kind(profile.multipliers[1:])
                for kind, profile in zip(kinds, self.profiles)]

    def prime(self) -> None:
        """One cold first period on one device fills the warm-start cache."""
        self.primed = WarmStartCache()
        repro.track_horizon_batch(
            self.fleet, [LoadProfile(p.multipliers[:1]) for p in self.profiles],
            cache=self.primed)

    def run_round(self) -> Round:
        profiles = self.tracked(clocked=True)
        cache = copy_cache(self.primed, self.fleet.names)
        with self.tracer.span("round"):
            start = time.perf_counter()
            result = repro.track_horizon_batch(self.fleet, profiles, cache=cache,
                                               pool=self.pool)
            end = time.perf_counter()
        latencies = np.diff(profiles[0].marks + [end]).tolist()
        solutions = [period.solutions for period in result.periods]
        return Round(wall_s=end - start, latencies=latencies, solutions=solutions,
                     counters=iteration_counts(solutions))

    def period_references(self, solutions: list[list], store: Store) -> list[list]:
        """IPM answers to each period's problem: its loads and ramp window.

        The ramp window is centred on the previous period's tracked
        dispatch, exactly as the tracking pipeline builds it.
        """
        previous = self.primed.previous_pg(self.fleet.names)
        table = []
        for t, period in enumerate(solutions):
            row = []
            for s, scenario in enumerate(self.fleet.scenarios):
                multiplier = self.profiles[s].multiplier(t + 1)
                network = scenario.network
                pd_mw = np.array([bus.pd for bus in network.buses], dtype=float)
                qd_mw = np.array([bus.qd for bus in network.buses], dtype=float)
                low, high = ramp_window(network, previous[s])
                row.append(store.reference(network.with_array_overrides(
                    bus_pd=(pd_mw * multiplier) / network.base_mva,
                    bus_qd=(qd_mw * multiplier) / network.base_mva,
                    gen_pmin=low, gen_pmax=high)))
            table.append(row)
            previous = [solution.pg for solution in period]
        return table

    def check(self, rounds: list[Round], store: Store) -> Check:
        """Accuracy of every answer, and pooled ≡ single-device bit for bit.

        The single-device horizon's answer digest is recorded per seed; a
        pooled run whose answers hash to it needs no single-device replay.
        """
        name = f"single-device-answers-seed{self.seed}"
        answers = answers_digest(rounds[0].solutions)
        expected = None
        if self.pooled and (store.recall(name) or {}).get("digest") != answers:
            single = repro.track_horizon_batch(
                self.fleet, self.tracked(),
                cache=copy_cache(self.primed, self.fleet.names))
            expected = [period.solutions for period in single.periods]
            answers = answers_digest(expected)
        store.record(name, {"digest": answers})
        table = self.period_references(rounds[0].solutions, store)
        return check_rounds(rounds, table, expected)


class TrackPool(TrackWarm):
    """The primed horizon through a two-worker process pool."""

    pooled = True


WORKLOADS = {"cold_n1": ColdN1, "track_warm": TrackWarm, "track_pool": TrackPool}
