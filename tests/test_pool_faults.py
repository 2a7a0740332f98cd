"""Fault-tolerance tests for the resilient DevicePool.

The differential recovery invariant: because scenarios never couple and warm
states live with the parent, a pool run that loses a chunk to a worker
crash, a stall, or a transient exception and *replays* it must return
solutions bitwise identical to the failure-free run — on both executors,
and mid-horizon inside ``track_horizon_batch``.  These tests script every
failure with a deterministic :class:`FaultPlan` and assert exactly that,
plus the budget/accounting semantics around it: aggregated
``PoolExecutionError`` on exhausted budgets, ``"partial"`` reports with
per-scenario failure markers, poison-scenario isolation via chunk
splitting, the late-arriving-result race, and ``_pool_worker`` surviving
non-``Exception`` exits.
"""

from __future__ import annotations

import multiprocessing

import numpy as np
import pytest

import repro
from repro.admm.batch_solver import ShardTask, solve_scenario_shard
from repro.admm.parameters import parameters_for_case
from repro.exceptions import ConfigurationError
from repro.parallel import DevicePool, FaultPlan, FaultSpec, PoolExecutionError
from repro.parallel.faults import FAULT_PLAN_ENV, FaultCommand
from repro.parallel.pool import (
    _Dispatch,
    _PoolRun,
    _StealScheduler,
    _pool_worker,
)
from repro.scenarios import ScenarioSet, tracking_fleet
from repro.tracking import make_load_profile, track_horizon_batch
from repro.tracking.load_profile import LoadProfile
from repro.tracking.pipeline import WarmStartCache

QUICK = repro.AdmmParameters(max_outer=2, max_inner=15)


def quick_batch(n: int = 4) -> ScenarioSet:
    network = repro.load_case("case9")
    factors = [0.8 + 0.1 * k for k in range(n)]
    return repro.load_scaling_scenarios(network, factors)


def assert_solutions_identical(pooled, batched) -> None:
    assert len(pooled) == len(batched)
    for a, b in zip(pooled, batched):
        assert a.network_name == b.network_name
        assert a.inner_iterations == b.inner_iterations
        assert a.outer_iterations == b.outer_iterations
        assert np.array_equal(a.vm, b.vm)
        assert np.array_equal(a.va, b.va)
        assert np.array_equal(a.pg, b.pg)
        assert np.array_equal(a.qg, b.qg)


def resilient_pool(executor: str, fault_plan=None, **overrides) -> DevicePool:
    options = dict(n_workers=2, executor=executor, chunk_scenarios=1,
                   on_failure="retry", respawn_backoff=0.01,
                   fault_plan=fault_plan)
    options.update(overrides)
    return DevicePool(**options)


# --------------------------------------------------------------------- #
# FaultPlan: specs, parsing, seeding, env knob                            #
# --------------------------------------------------------------------- #
class TestFaultPlan:
    def test_parse_explicit_specs(self):
        plan = FaultPlan.parse("crash(worker=1,chunk=2); "
                               "stall(worker=0,chunk=3,seconds=2); "
                               "raise(scenario=5,times=1)")
        kinds = [spec.kind for spec in plan.specs]
        assert kinds == ["crash", "stall", "raise"]
        assert plan.specs[0].worker == 1 and plan.specs[0].chunk == 2
        assert plan.specs[1].seconds == 2.0
        assert plan.specs[2].scenario == 5 and plan.specs[2].times == 1

    def test_parse_seeded_mode(self):
        plan = FaultPlan.parse("seeded(seed=7,rate=0.25)")
        assert plan.seed == 7 and plan.rate == 0.25 and not plan.specs

    @pytest.mark.parametrize("text", [
        "meltdown(worker=0)",          # unknown kind
        "crash(flavor=3)",             # unknown key
        "crash(worker=soon)",          # non-numeric value
        "crash(worker)",               # not key=value
        "crash(worker=0",              # unbalanced
    ])
    def test_parse_rejects_malformed_specs(self, text):
        with pytest.raises(ConfigurationError):
            FaultPlan.parse(text)

    def test_from_env(self):
        plan = FaultPlan.from_env({FAULT_PLAN_ENV: "crash(worker=0,chunk=1)"})
        assert plan is not None and plan.specs[0].kind == "crash"
        assert FaultPlan.from_env({}) is None
        assert FaultPlan.from_env({FAULT_PLAN_ENV: "  "}) is None

    def test_spec_matching_and_disarm(self):
        plan = FaultPlan([FaultSpec("raise", worker=1, chunk=2, times=1)])
        assert plan.draw(0, 2, (0,)) is None          # wrong worker
        assert plan.draw(1, 1, (0,)) is None          # wrong chunk
        command = plan.draw(1, 2, (0,))
        assert command == FaultCommand(kind="raise", seconds=1.0)
        assert plan.draw(1, 2, (0,)) is None          # fired out
        assert plan.n_fired == 1
        plan.reset()
        assert plan.draw(1, 2, (0,)) is not None      # rearmed

    def test_scenario_matching(self):
        plan = FaultPlan([FaultSpec("raise", scenario=5, times=2)])
        assert plan.draw(0, 1, (1, 2)) is None
        assert plan.draw(0, 2, (4, 5)) is not None
        assert plan.draw(1, 1, (5,)) is not None
        assert plan.draw(1, 2, (5,)) is None          # times exhausted

    def test_seeded_draws_are_reproducible(self):
        a = FaultPlan.seeded(seed=11, rate=0.5, kinds=("raise", "crash"))
        b = FaultPlan.seeded(seed=11, rate=0.5, kinds=("raise", "crash"))
        draws = [(w, c) for w in range(4) for c in range(1, 10)]
        assert [a.draw(w, c, (0,)) for w, c in draws] == \
               [b.draw(w, c, (0,)) for w, c in draws]
        assert any(a.draw(w, c, (0,)) for w, c in draws)
        silent = FaultPlan.seeded(seed=11, rate=0.0)
        assert all(silent.draw(w, c, (0,)) is None for w, c in draws)

    def test_spec_validation(self):
        with pytest.raises(ConfigurationError):
            FaultSpec("meltdown")
        with pytest.raises(ConfigurationError):
            FaultSpec("raise", times=0)
        with pytest.raises(ConfigurationError):
            FaultSpec("stall", seconds=-1.0)
        with pytest.raises(ConfigurationError):
            FaultPlan((), seed=1, rate=1.5)

    def test_pool_picks_up_env_plan(self, monkeypatch):
        monkeypatch.setenv(FAULT_PLAN_ENV, "crash(worker=1,chunk=1)")
        pool = DevicePool(n_workers=2, executor="sequential")
        assert pool.fault_plan is not None
        assert pool.fault_plan.specs[0].kind == "crash"
        explicit = FaultPlan([FaultSpec("raise")])
        assert DevicePool(fault_plan=explicit).fault_plan is explicit
        monkeypatch.delenv(FAULT_PLAN_ENV)
        assert DevicePool().fault_plan is None


# --------------------------------------------------------------------- #
# Scheduler replay machinery                                              #
# --------------------------------------------------------------------- #
class TestSchedulerReplay:
    def test_requeue_splits_multi_scenario_chunks(self):
        sched = _StealScheduler([[0, 1, 2, 3]], [1.0] * 4,
                                chunk_scenarios=4, steal_threshold=1)
        indices, origin, _ = sched.next_chunk(0)
        sched.requeue(indices, origin)
        assert sched.next_chunk(0) == ((0, 1), 0, False)
        assert sched.next_chunk(0) == ((2, 3), 0, False)
        assert sched.next_chunk(0) is None

    def test_requeue_single_scenario_stays_whole(self):
        sched = _StealScheduler([[0]], [1.0], chunk_scenarios=1,
                                steal_threshold=1)
        sched.next_chunk(0)
        sched.requeue((0,), 0)
        assert sched.next_chunk(0) == ((0,), 0, False)

    def test_replay_served_before_own_shard(self):
        sched = _StealScheduler([[0], [1]], [1.0, 1.0],
                                chunk_scenarios=1, steal_threshold=1)
        sched.requeue((1,), 1, split=False)
        assert sched.next_chunk(0) == ((1,), 1, False)
        assert sched.next_chunk(0) == ((0,), 0, False)

    def test_orphan_moves_dead_shard_past_steal_threshold(self):
        # threshold 5 forbids stealing, so without orphaning the dead
        # owner's tail would strand
        sched = _StealScheduler([[0], [1, 2]], [1.0] * 3,
                                chunk_scenarios=1, steal_threshold=5)
        assert sched.next_chunk(0) == ((0,), 0, False)
        assert sched.next_chunk(0) is None
        sched.orphan(1)
        assert sched.next_chunk(0) == ((1,), 1, False)
        assert sched.next_chunk(0) == ((2,), 1, False)

    def test_drain_empties_everything(self):
        sched = _StealScheduler([[0, 1], [2]], [1.0] * 3,
                                chunk_scenarios=1, steal_threshold=1)
        assert sched.next_chunk(1) == ((2,), 1, False)
        sched.requeue((2,), 1, split=False)  # chunk lost: back for replay
        items = sched.drain()
        assert sorted(i for indices, _ in items for i in indices) == [0, 1, 2]
        assert not sched.has_work


# --------------------------------------------------------------------- #
# Differential recovery: sequential executor                              #
# --------------------------------------------------------------------- #
class TestRecoverySequential:
    def test_crash_recovery_bitwise_identical(self):
        scenario_set = quick_batch(4)
        reference = repro.solve_acopf_admm_batch(scenario_set, params=QUICK)
        plan = FaultPlan([FaultSpec("crash", worker=1, chunk=1)])
        report = resilient_pool("sequential", plan).solve(scenario_set,
                                                          params=QUICK)
        assert_solutions_identical(report.solutions, reference)
        assert report.respawns == 1
        assert report.retries >= 1
        assert report.replayed_scenarios
        assert [f.kind for f in report.failures] == ["death"]
        assert report.failed_scenarios == ()

    def test_transient_exception_recovery_bitwise_identical(self):
        scenario_set = quick_batch(4)
        reference = repro.solve_acopf_admm_batch(scenario_set, params=QUICK)
        plan = FaultPlan([FaultSpec("raise", scenario=2, times=1)])
        report = resilient_pool("sequential", plan).solve(scenario_set,
                                                          params=QUICK)
        assert_solutions_identical(report.solutions, reference)
        assert report.retries == 1 and report.respawns == 0
        assert report.replayed_scenarios == (2,)
        assert [f.kind for f in report.failures] == ["error"]

    def test_stall_past_deadline_recovery_bitwise_identical(self):
        scenario_set = quick_batch(4)
        reference = repro.solve_acopf_admm_batch(scenario_set, params=QUICK)
        plan = FaultPlan([FaultSpec("stall", worker=0, chunk=1, seconds=60)])
        report = resilient_pool("sequential", plan, chunk_timeout=1.0).solve(
            scenario_set, params=QUICK)
        assert_solutions_identical(report.solutions, reference)
        assert [f.kind for f in report.failures] == ["timeout"]
        assert report.respawns == 1 and report.retries >= 1

    @pytest.mark.parametrize("executor, stall", [("sequential", 60.0),
                                                 ("process", 0.5)])
    def test_stall_without_deadline_only_delays(self, executor, stall):
        scenario_set = quick_batch(4)
        reference = repro.solve_acopf_admm_batch(scenario_set, params=QUICK)
        plan = FaultPlan([FaultSpec("stall", worker=0, chunk=1, seconds=stall)])
        report = resilient_pool(executor, plan).solve(scenario_set,
                                                      params=QUICK)
        assert_solutions_identical(report.solutions, reference)
        assert report.failures == [] and report.retries == 0
        # the stall lands in the worker's busy-time accounting
        assert report.makespan_seconds >= stall

    @pytest.mark.parametrize("executor", ["sequential", "process"])
    def test_seeded_plan_recovery_bitwise_identical(self, executor):
        scenario_set = quick_batch(6)
        reference = repro.solve_acopf_admm_batch(scenario_set, params=QUICK)
        plan = FaultPlan.seeded(seed=3, rate=0.4)  # several transient raises
        report = resilient_pool(executor, plan, max_retries=20).solve(
            scenario_set, params=QUICK)
        assert_solutions_identical(report.solutions, reference)
        assert plan.n_fired == 0  # seeded draws don't count as spec firings
        assert report.retries >= 1

    @pytest.mark.parametrize("executor", ["sequential", "process"])
    def test_poison_chunk_splits_to_isolate_scenario(self, executor):
        scenario_set = quick_batch(4)
        reference = repro.solve_acopf_admm_batch(scenario_set, params=QUICK)
        pool = resilient_pool(executor, None, chunk_scenarios=2,
                              on_failure="partial", solve_fn=_fail_on_x09)
        report = pool.solve(scenario_set, params=QUICK)
        # only the poison scenario is lost; its chunk-mates solved on replay
        assert report.failed_scenarios == (1,)
        assert report.solutions[1] is None
        for s in (0, 2, 3):
            assert np.array_equal(report.solutions[s].vm, reference[s].vm)
        assert report.retries >= 1

    def test_retry_budget_exhaustion_raises_aggregated_error(self):
        scenario_set = quick_batch(3)
        pool = resilient_pool("sequential", None, max_retries=1,
                              solve_fn=_fail_on_x09)
        with pytest.raises(PoolExecutionError) as excinfo:
            pool.solve(scenario_set, params=QUICK)
        error = excinfo.value
        assert error.indices == (1,)
        assert "case9@x0.9" in error.scenario_names
        assert len(error.failures) == 2  # first try + one replay
        assert all(f.kind == "error" for f in error.failures)

    def test_all_failed_scenarios_are_aggregated(self):
        # the old executor dropped every failure after the first; all poison
        # scenarios must be reported together
        scenario_set = quick_batch(4)
        pool = resilient_pool("sequential", None, max_retries=0,
                              solve_fn=_fail_on_x08_x09)
        with pytest.raises(PoolExecutionError) as excinfo:
            pool.solve(scenario_set, params=QUICK)
        error = excinfo.value
        assert error.indices == (0, 1)
        assert set(error.scenario_names) == {"case9@x0.8", "case9@x0.9"}
        assert "case9@x0.8" in str(error) and "case9@x0.9" in str(error)

    @pytest.mark.parametrize("executor", ["sequential", "process"])
    def test_respawn_budget_exhaustion_loses_remaining_work(self, executor):
        scenario_set = quick_batch(3)
        plan = FaultPlan([FaultSpec("crash", times=100)])  # every dispatch dies
        pool = resilient_pool(executor, plan, max_respawns=1,
                              max_retries=100, on_failure="partial")
        report = pool.solve(scenario_set, params=QUICK)
        assert set(report.failed_scenarios) == {0, 1, 2}
        assert all(solution is None for solution in report.solutions)
        assert report.respawns == 1
        assert any(f.kind == "lost" for f in report.failures)

    def test_default_raise_mode_fails_fast_on_injected_crash(self):
        scenario_set = quick_batch(2)
        plan = FaultPlan([FaultSpec("crash", worker=0, chunk=1)])
        pool = DevicePool(n_workers=2, executor="sequential",
                          chunk_scenarios=1, fault_plan=plan)
        with pytest.raises(PoolExecutionError) as excinfo:
            pool.solve(scenario_set, params=QUICK)
        assert "died" in str(excinfo.value)

    def test_env_plan_recovery_end_to_end(self, monkeypatch):
        monkeypatch.setenv(FAULT_PLAN_ENV, "crash(worker=1,chunk=1)")
        scenario_set = quick_batch(4)
        reference = repro.solve_acopf_admm_batch(scenario_set, params=QUICK)
        report = resilient_pool("sequential").solve(scenario_set, params=QUICK)
        assert_solutions_identical(report.solutions, reference)
        assert report.respawns == 1

    def test_new_options_validated(self):
        with pytest.raises(ConfigurationError):
            DevicePool(on_failure="ignore")
        with pytest.raises(ConfigurationError):
            DevicePool(max_retries=-1)
        with pytest.raises(ConfigurationError):
            DevicePool(max_respawns=-1)
        with pytest.raises(ConfigurationError):
            DevicePool(chunk_timeout=0.0)
        with pytest.raises(ConfigurationError):
            DevicePool(respawn_backoff=-0.1)

    def test_report_dict_carries_recovery_fields(self):
        scenario_set = quick_batch(2)
        plan = FaultPlan([FaultSpec("raise", scenario=0, times=1)])
        report = resilient_pool("sequential", plan).solve(scenario_set,
                                                          params=QUICK)
        snapshot = report.as_dict()
        assert snapshot["retries"] == 1
        assert snapshot["replayed_scenarios"] == [0]
        assert snapshot["failures"][0]["kind"] == "error"
        assert snapshot["chunks"][-1]["attempt"] >= 0


# --------------------------------------------------------------------- #
# Differential recovery: process executor                                 #
# --------------------------------------------------------------------- #
class TestRecoveryProcess:
    def test_crash_recovery_bitwise_identical(self):
        scenario_set = quick_batch(4)
        reference = repro.solve_acopf_admm_batch(scenario_set, params=QUICK)
        plan = FaultPlan([FaultSpec("crash", worker=1, chunk=1)])
        report = resilient_pool("process", plan).solve(scenario_set,
                                                       params=QUICK)
        assert_solutions_identical(report.solutions, reference)
        assert report.respawns == 1
        assert report.retries >= 1
        assert "death" in {f.kind for f in report.failures}

    def test_transient_exception_recovery_bitwise_identical(self):
        scenario_set = quick_batch(4)
        reference = repro.solve_acopf_admm_batch(scenario_set, params=QUICK)
        plan = FaultPlan([FaultSpec("raise", scenario=2, times=1)])
        report = resilient_pool("process", plan).solve(scenario_set,
                                                       params=QUICK)
        assert_solutions_identical(report.solutions, reference)
        assert report.retries == 1 and report.respawns == 0
        assert report.replayed_scenarios == (2,)

    def test_stall_past_deadline_recovery_bitwise_identical(self):
        scenario_set = quick_batch(4)
        reference = repro.solve_acopf_admm_batch(scenario_set, params=QUICK)
        plan = FaultPlan([FaultSpec("stall", worker=0, chunk=1, seconds=60)])
        report = resilient_pool("process", plan, chunk_timeout=2.0).solve(
            scenario_set, params=QUICK)
        assert_solutions_identical(report.solutions, reference)
        assert "timeout" in {f.kind for f in report.failures}
        assert report.respawns == 1

    def test_retry_budget_exhaustion_raises_aggregated_error(self):
        scenario_set = quick_batch(3)
        pool = resilient_pool("process", None, max_retries=0,
                              solve_fn=_fail_on_x09)
        with pytest.raises(PoolExecutionError) as excinfo:
            pool.solve(scenario_set, params=QUICK)
        assert excinfo.value.indices == (1,)
        assert "case9@x0.9" in excinfo.value.scenario_names

    def test_non_exception_worker_exit_is_reported_and_recovered(self):
        # SystemExit escapes the worker loop; the worker reports a "fatal"
        # message first, the parent respawns and finishes the healthy rest
        scenario_set = quick_batch(2)
        pool = resilient_pool("process", None, max_retries=0,
                              solve_fn=_system_exit_on_x09)
        with pytest.raises(PoolExecutionError) as excinfo:
            pool.solve(scenario_set, params=QUICK)
        error = excinfo.value
        assert "case9@x0.9" in error.scenario_names
        assert any("SystemExit" in f.detail for f in error.failures)


# --------------------------------------------------------------------- #
# Late-arriving-result race + worker-loop protocol                        #
# --------------------------------------------------------------------- #
class _FakeProcess:
    """Stand-in for a multiprocessing.Process that is never started."""

    exitcode = -9

    def __init__(self, alive: bool) -> None:
        self.alive = alive

    def is_alive(self) -> bool:
        return self.alive

    def terminate(self) -> None:
        pass

    def join(self, timeout=None) -> None:
        pass


class TestLateResultRace:
    def _make_run(self, scenario_set, shards=([0], [1]), alive=(False, True),
                  **options) -> _PoolRun:
        """A process-executor run whose workers are this test's pipe ends."""
        pool = DevicePool(n_workers=2, executor="process",
                          chunk_scenarios=1, on_failure="retry", **options)
        scheduler = _StealScheduler(shards, scenario_set.costs("cost"),
                                    chunk_scenarios=1, steal_threshold=1)
        run = _PoolRun(pool, scenario_set, QUICK, None, scheduler, 2)
        pipes = [multiprocessing.Pipe(duplex=True) for _ in range(2)]
        run.transport.conns = [parent for parent, _ in pipes]
        self.worker_conns = [child for _, child in pipes]
        run.transport.processes = [_FakeProcess(a) for a in alive]
        return run

    def test_stale_result_is_dropped(self):
        scenario_set = quick_batch(2)
        run = self._make_run(scenario_set)
        run.outstanding[0] = _Dispatch(tag=7, indices=(0,), origin=0,
                                       stolen=False, attempt=0)
        run._handle(0, 3, "ok", object())  # tag mismatch: stale
        assert run.outstanding[0].tag == 7
        assert run.solutions == [None, None]
        assert run.recovery.failures == []

    def test_dead_workers_buffered_result_is_ignored_and_chunk_replayed(self):
        scenario_set = quick_batch(2)
        run = self._make_run(scenario_set)
        run._dispatch(0)
        dispatch = run.outstanding[0]
        tag, task, fault = self.worker_conns[0].recv()
        assert tag == dispatch.tag and fault is None
        result = solve_scenario_shard(task)  # the result the worker buffered

        # the liveness poll declares worker 0 dead before the result drains
        for event in run.transport._check_liveness():
            run._handle(*event)
        assert 0 not in run.outstanding
        assert run.recovery.failures[0].kind == "death"
        assert run.recovery.retries == 1

        # ... now the buffered result arrives: it must be dropped
        run._handle(0, tag, "ok", result)
        assert run.solutions[0] is None

        # and the replayed chunk is served to a surviving worker, solving
        # to the bitwise-identical solution
        assert run.scheduler.next_chunk(1) == ((0,), 0, False)
        replay = solve_scenario_shard(run._task((0,), 1))
        assert np.array_equal(replay.solutions[0].vm, result.solutions[0].vm)
        assert np.array_equal(replay.solutions[0].pg, result.solutions[0].pg)

    @pytest.mark.parametrize("max_respawns", [2, 0])
    def test_idle_worker_death_is_a_loss(self, max_respawns):
        # worker 1 dies while parked and worker 0 is busy; replay work that
        # appears later must not be sent down the dead worker's retired pipe
        scenario_set = quick_batch(2)
        run = self._make_run(scenario_set, shards=([0], []), alive=(True, True),
                             max_respawns=max_respawns)
        run._dispatch(0)
        run._dispatch(1)
        assert run.parked == {1} and set(run.outstanding) == {0}
        self.worker_conns[1].close()
        for event in run.transport.events():
            run._handle(*event)
        run.scheduler.requeue((1,), 0)
        run._feed_parked()

        assert not run.parked and set(run.outstanding) == {0}
        assert run.recovery.failures == []  # an idle worker loses no chunk
        assert run.recovery.respawns == min(1, max_respawns)
        assert (1 in run.restarting) == (max_respawns > 0)
        assert run.scheduler.next_chunk(0) == ((1,), 0, False)

    def test_pool_worker_reports_non_exception_exit_cleanly(self):
        parent, child = multiprocessing.Pipe(duplex=True)
        task = ShardTask(indices=(1,), scenarios=quick_batch(2).subset([1]),
                         params=QUICK)
        parent.send((5, task, None))
        _pool_worker(0, _system_exit_on_x09, child)  # returns, no raise
        worker, tag, kind, payload = parent.recv()
        assert (worker, tag, kind) == (0, 5, "fatal")
        assert "SystemExit" in payload

    def test_pool_worker_survives_plain_exceptions(self):
        parent, child = multiprocessing.Pipe(duplex=True)
        batch = quick_batch(2)
        parent.send((1, ShardTask(indices=(1,), scenarios=batch.subset([1]),
                                  params=QUICK), None))
        parent.send((2, ShardTask(indices=(0,), scenarios=batch.subset([0]),
                                  params=QUICK), None))
        parent.send(None)
        _pool_worker(0, _fail_on_x09, child)
        first = parent.recv()
        second = parent.recv()
        assert first[1:3] == (1, "error")  # the failure did not kill the loop
        assert second[1:3] == (2, "ok")

    def test_pool_worker_exits_on_closed_pipe(self):
        # the parent vanishing (its end closed) must end the loop, not hang
        parent, child = multiprocessing.Pipe(duplex=True)
        parent.close()
        _pool_worker(0, solve_scenario_shard, child)  # returns immediately

    def test_pool_worker_executes_injected_stall_then_solves(self):
        parent, child = multiprocessing.Pipe(duplex=True)
        task = ShardTask(indices=(0,), scenarios=quick_batch(1),
                         params=QUICK)
        parent.send((1, task, FaultCommand(kind="stall", seconds=0.05)))
        parent.send(None)
        _pool_worker(0, solve_scenario_shard, child)
        worker, tag, kind, payload = parent.recv()
        assert kind == "ok" and payload.indices == (0,)


# --------------------------------------------------------------------- #
# Crash-resumable tracking horizons                                       #
# --------------------------------------------------------------------- #
class TestTrackingRecovery:
    def _horizon_pieces(self, case9):
        params = parameters_for_case(case9, max_outer=2, max_inner=25)
        profile = make_load_profile(n_periods=4, seed=1)
        fleet = tracking_fleet(case9, "load", 4, spread=0.05)
        return params, profile, fleet

    def _assert_horizons_identical(self, reference, periods):
        for ref_period, period in zip(reference.periods, periods):
            for ref_solution, solution in zip(ref_period.solutions,
                                              period.solutions):
                assert ref_solution.inner_iterations == solution.inner_iterations
                assert np.array_equal(ref_solution.pg, solution.pg)
                assert np.array_equal(ref_solution.vm, solution.vm)
                assert np.array_equal(ref_solution.va, solution.va)
                assert ref_solution.objective == solution.objective

    @pytest.mark.parametrize("executor", ["sequential", "process"])
    def test_mid_horizon_crash_recovers_bitwise(self, case9, executor):
        """A worker death after warm states exist replays only the affected
        scenarios — the warm states re-ship with the replayed chunk, and the
        recovered horizon equals the failure-free single-device run."""
        params, profile, fleet = self._horizon_pieces(case9)
        reference = track_horizon_batch(fleet, profile, params=params)

        cache = WarmStartCache()
        clean_pool = resilient_pool(executor)
        first = track_horizon_batch(
            fleet, LoadProfile(profile.multipliers[:2]), params=params,
            pool=clean_pool, cache=cache)
        assert first.total_retries == 0 and first.total_respawns == 0

        # the crash lands on the third period's solve, mid-horizon: every
        # scenario is warm-started from the cache at that point
        plan = FaultPlan([FaultSpec("crash", worker=1, chunk=1)])
        faulty_pool = resilient_pool(executor, plan)
        second = track_horizon_batch(
            fleet, LoadProfile(profile.multipliers[2:]), params=params,
            pool=faulty_pool, cache=cache)
        assert second.total_respawns == 1
        assert second.total_retries >= 1
        assert second.periods[0].replayed

        self._assert_horizons_identical(reference,
                                        first.periods + second.periods)

    def test_mid_horizon_transient_exception_recovers_bitwise(self, case9):
        params, profile, fleet = self._horizon_pieces(case9)
        reference = track_horizon_batch(fleet, profile, params=params)
        # one transient failure somewhere mid-horizon: the plan is shared by
        # every period's solve and fires exactly once across the horizon
        plan = FaultPlan([FaultSpec("raise", scenario=1, times=1)])
        pooled = track_horizon_batch(fleet, profile, params=params,
                                     pool=resilient_pool("sequential", plan),
                                     cache=WarmStartCache())
        assert pooled.total_retries == 1
        self._assert_horizons_identical(reference, pooled.periods)

    def test_partial_pool_failure_stops_the_horizon_clearly(self, case9):
        params, profile, fleet = self._horizon_pieces(case9)
        plan = FaultPlan([FaultSpec("raise", times=1000)])  # every chunk fails
        pool = resilient_pool("sequential", plan, on_failure="partial",
                              max_retries=0)
        with pytest.raises(PoolExecutionError) as excinfo:
            track_horizon_batch(fleet, profile, params=params, pool=pool)
        assert "tracking horizon" in str(excinfo.value)


# --------------------------------------------------------------------- #
# Failure-injection helpers (module level so they pickle across fork)     #
# --------------------------------------------------------------------- #
def _fail_on_x09(task):
    if any(s.name.endswith("x0.9") for s in task.scenarios):
        raise RuntimeError("poison scenario")
    return solve_scenario_shard(task)


def _fail_on_x08_x09(task):
    if any(s.name.endswith(("x0.8", "x0.9")) for s in task.scenarios):
        raise RuntimeError("poison scenario")
    return solve_scenario_shard(task)


def _system_exit_on_x09(task):
    if any(s.name.endswith("x0.9") for s in task.scenarios):
        raise SystemExit(5)
    return solve_scenario_shard(task)
