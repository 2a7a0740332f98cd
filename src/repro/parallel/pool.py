"""Multi-device scenario sharding: a pool of simulated devices.

The paper's decomposition turns one ACOPF into millions of tiny independent
subproblems precisely so they can saturate *wide* hardware; scenario
batching (PR 1) and stream compaction (PR 2) fill one simulated device.
This module adds the next axis — many devices.  A :class:`DevicePool`
shards a :class:`~repro.scenarios.ScenarioSet` into cost-balanced
sub-batches, runs every shard through a
:class:`~repro.admm.batch_solver.BatchAdmmSolver` on its own
:class:`~repro.parallel.device.SimulatedDevice`, and merges per-scenario
results and device metrics back into one :class:`PoolReport` in the
original batch order.

**One loop, two transports.**  Every solve runs the same
scheduler/recovery loop (:class:`_PoolRun`): it owns dispatch, the retry
and respawn budgets, replay, and the merge.  Only the way a chunk reaches
a worker differs.  The process transport (``executor="process"``, the
default) runs one ``multiprocessing`` worker per device on a private
pipe.  The inline transport (``executor="sequential"``) runs each chunk
in-process the moment it is sent and plays injected faults as simulated
events, for determinism and debugging.

**Placement** is cost-aware: scenarios are partitioned by estimated element
count (:meth:`~repro.scenarios.ScenarioSet.split`), not scenario count, so
one huge network weighs as much as many small ones.  **Rebalance** is
dynamic: the parent process keeps every shard as a queue of not-yet-
dispatched scenarios and hands them to its worker a chunk at a time; a
worker whose shard freezes early (cheap scenarios converge first — exactly
the heterogeneity stream compaction exposes) *steals* pending scenarios
from the most-loaded shard instead of going dark.

**Fault tolerance.**  A long-lived fleet must survive its own workers.
With ``on_failure="retry"`` (or ``"partial"``), a chunk lost to a worker
exception, a worker death, or a stalled worker blowing its
``chunk_timeout`` is *replayed*: the loop requeues the lost scenario
indices into the scheduler (split in half when the chunk carried more than
one scenario, so a poison scenario isolates itself on replay), bounded by a
per-scenario ``max_retries`` budget; a lost worker — busy or idle — is
respawned on the same queues up to a pool-wide ``max_respawns`` budget,
and past it its pending shard goes to the survivors.  Because scenarios
never couple and warm states live with the parent (they ship inside every
dispatched :class:`~repro.admm.batch_solver.ShardTask`), a replayed
scenario's trajectory is bit-for-bit the one a failure-free run produces —
recovery changes *where and when* a scenario runs, never its arithmetic.
The default ``on_failure="raise"`` keeps the fail-fast semantics: any chunk
failure aborts the solve and surfaces every failed chunk in one aggregated
:class:`PoolExecutionError`.  Deterministic fault injection for tests and
CI lives in :mod:`repro.parallel.faults` (``REPRO_FAULT_PLAN``).

Because scenarios never couple, every per-scenario trajectory is bit-for-bit
the one the single-device batched solve (and the standalone sequential
solve) produces — sharding only changes *where* a scenario runs.

**Makespan accounting.**  Each chunk's solve time is measured inside the
worker; an injected stall shorter than the deadline is added to it on both
transports.  A worker's busy time is the sum of its chunks and the pool's
*makespan* is the largest per-worker busy time — the wall-clock a fleet of
real devices would need, independent of how many CPU cores this host can
actually dedicate to the worker processes.  ``wall_seconds`` records the
observed host wall-clock as well (on a single-core host the processes
timeshare, so only the makespan shows the multi-device scaling; this is the
same simulated-hardware viewpoint as ``SimulatedDevice`` itself).
"""

from __future__ import annotations

import heapq
import os
import time
from collections import deque
from dataclasses import dataclass, field
from typing import Any, Callable, Sequence

from repro.exceptions import ConfigurationError, ReproError
from repro.logging_utils import get_logger
from repro.parallel.device import merge_device_dicts
from repro.parallel.faults import FaultCommand, FaultPlan
from repro.scenarios import ScenarioSet, as_scenario_set, partition_costs

LOGGER = get_logger("parallel.pool")

#: Executors a :class:`DevicePool` can run shards on.
EXECUTORS = ("process", "sequential")

#: Placement policies for the initial shard partition.
PLACEMENTS = ("cost", "count")

#: Failure policies: fail fast, replay lost chunks, or return what solved.
ON_FAILURE = ("raise", "retry", "partial")


class PoolExecutionError(ReproError):
    """One or more workers failed while solving their shards.

    Carries the global indices and names of every failed scenario plus the
    per-chunk :class:`ChunkFailure` records (worker-side traceback, failure
    kind, attempt number), so the offending scenarios are identifiable
    without digging through worker logs.  With ``on_failure="retry"`` the
    failures listed are the ones whose retry budget was exhausted.
    """

    def __init__(self, message: str, *, worker: int | None = None,
                 indices: tuple[int, ...] = (),
                 scenario_names: tuple[str, ...] = (),
                 failures: tuple["ChunkFailure", ...] = ()) -> None:
        super().__init__(message)
        self.worker = worker
        self.indices = indices
        self.scenario_names = scenario_names
        self.failures = failures


@dataclass(frozen=True)
class ChunkFailure:
    """One failed chunk dispatch: who lost what, how, on which attempt.

    ``kind`` is ``"error"`` (the worker raised), ``"death"`` (the worker
    process died without reporting), ``"timeout"`` (the worker stalled past
    the chunk deadline and was terminated), or ``"lost"`` (no worker was
    left alive to run the chunk).  ``attempt`` is how many failures the
    chunk's scenarios had already suffered when this dispatch went out
    (0 = first try).
    """

    worker: int
    indices: tuple[int, ...]
    scenario_names: tuple[str, ...]
    kind: str
    detail: str
    attempt: int = 0

    def describe(self) -> str:
        listing = ", ".join(f"{i}:{name}"
                            for i, name in zip(self.indices, self.scenario_names))
        return (f"worker {self.worker} failed on scenarios [{listing}] "
                f"({self.kind}, attempt {self.attempt}): {self.detail}")

    def as_dict(self) -> dict[str, Any]:
        return {"worker": self.worker, "indices": list(self.indices),
                "scenario_names": list(self.scenario_names), "kind": self.kind,
                "attempt": self.attempt, "detail": self.detail}


@dataclass(frozen=True)
class ChunkRecord:
    """One dispatched chunk: which worker solved which scenarios.

    ``attempt`` counts prior failures of the chunk's scenarios — a non-zero
    value marks a successful *replay* of work a failure lost.
    """

    worker: int
    indices: tuple[int, ...]
    origin: int
    stolen: bool
    seconds: float
    attempt: int = 0


@dataclass
class WorkerStats:
    """Per-worker aggregate of the pool run."""

    worker: int
    chunks: int = 0
    scenarios: int = 0
    steals: int = 0
    busy_seconds: float = 0.0
    device: dict[str, Any] = field(default_factory=dict)

    def as_dict(self) -> dict[str, Any]:
        return {"worker": self.worker, "chunks": self.chunks,
                "scenarios": self.scenarios, "steals": self.steals,
                "busy_seconds": self.busy_seconds, "device": self.device}


@dataclass
class _RecoveryState:
    """The scheduler loop's accounting of the fault-tolerance machinery."""

    retries: int = 0                 # replayed chunk dispatches enqueued
    respawns: int = 0                # lost workers respawned
    replayed: set[int] = field(default_factory=set)   # scenarios replayed
    failures: list[ChunkFailure] = field(default_factory=list)
    failed: dict[int, ChunkFailure] = field(default_factory=dict)  # terminal


@dataclass
class PoolReport:
    """Merged result of one pooled solve.

    ``solutions`` are in the original batch order regardless of which worker
    solved what; ``makespan_seconds`` is the simulated multi-device
    wall-clock (max per-worker busy time), ``total_busy_seconds`` the
    serial-equivalent work, and ``device`` the fleet-wide merged kernel
    metrics.  The recovery counters (``retries``, ``respawns``,
    ``replayed_scenarios``, ``failures``) stay zero / empty on a
    failure-free run; ``failed_scenarios`` is only ever non-empty with
    ``on_failure="partial"``, where the corresponding ``solutions`` entries
    are ``None``.
    """

    solutions: list
    n_workers: int
    executor: str
    placement: str
    wall_seconds: float
    makespan_seconds: float
    total_busy_seconds: float
    chunks: list[ChunkRecord] = field(default_factory=list)
    workers: list[WorkerStats] = field(default_factory=list)
    device: dict[str, Any] = field(default_factory=dict)
    retries: int = 0
    respawns: int = 0
    replayed_scenarios: tuple[int, ...] = ()
    failed_scenarios: tuple[int, ...] = ()
    failures: list[ChunkFailure] = field(default_factory=list)

    @property
    def n_steals(self) -> int:
        return sum(1 for chunk in self.chunks if chunk.stolen)

    @property
    def n_replayed(self) -> int:
        return len(self.replayed_scenarios)

    @property
    def scenario_workers(self) -> dict[int, int]:
        """Which worker solved each scenario (global index → worker id).

        This is the *observed* placement — the input of the next period's
        shard affinity in warm-started tracking: a scenario that was stolen
        reports its thief, so its warm state follows it on the next solve.
        """
        return {index: chunk.worker
                for chunk in self.chunks for index in chunk.indices}

    @property
    def parallel_speedup(self) -> float:
        """Serial-equivalent work over makespan — the scheduling speedup."""
        if self.makespan_seconds <= 0.0:
            return 1.0
        return self.total_busy_seconds / self.makespan_seconds

    def as_dict(self) -> dict[str, Any]:
        """Machine-readable snapshot for the benchmark harness."""
        return {
            "n_workers": self.n_workers,
            "executor": self.executor,
            "placement": self.placement,
            "wall_seconds": self.wall_seconds,
            "makespan_seconds": self.makespan_seconds,
            "total_busy_seconds": self.total_busy_seconds,
            "parallel_speedup": self.parallel_speedup,
            "n_steals": self.n_steals,
            "retries": self.retries,
            "respawns": self.respawns,
            "replayed_scenarios": list(self.replayed_scenarios),
            "failed_scenarios": list(self.failed_scenarios),
            "failures": [f.as_dict() for f in self.failures],
            "chunks": [{"worker": c.worker, "indices": list(c.indices),
                        "origin": c.origin, "stolen": c.stolen,
                        "seconds": c.seconds, "attempt": c.attempt}
                       for c in self.chunks],
            "workers": [w.as_dict() for w in self.workers],
            "device": self.device,
        }


class _StealScheduler:
    """Parent-side work queue: per-shard pending scenarios plus stealing.

    ``pending[w]`` holds shard ``w``'s not-yet-dispatched scenario ids in
    ascending order.  ``next_chunk(w)`` serves worker ``w`` from the replay
    queue first (chunks a failure handed back — any worker may run them),
    then from its own shard; once that is empty it steals from the tail of
    the shard with the largest remaining cost, provided the victim still
    has at least ``steal_threshold`` pending scenarios (below that, the
    owner finishes its own tail and stealing would only shuffle work
    around).
    """

    def __init__(self, shards: Sequence[Sequence[int]], costs: Sequence[float],
                 chunk_scenarios: int, steal_threshold: int) -> None:
        self.pending = [deque(shard) for shard in shards]
        self.costs = list(costs)
        self.chunk = max(1, int(chunk_scenarios))
        self.steal_threshold = max(1, int(steal_threshold))
        #: chunks a failure requeued, servable by any worker before shard work
        self.replay: deque[tuple[tuple[int, ...], int]] = deque()

    def remaining_cost(self, shard: int) -> float:
        return sum(self.costs[i] for i in self.pending[shard])

    @property
    def n_pending(self) -> int:
        return sum(len(p) for p in self.pending)

    @property
    def has_work(self) -> bool:
        return bool(self.replay) or self.n_pending > 0

    def requeue(self, indices: Sequence[int], origin: int,
                split: bool = True) -> None:
        """Hand a lost chunk's scenarios back for replay.

        With ``split`` (default), a multi-scenario chunk is replayed as two
        halves so a poison scenario bisects itself out of healthy company
        within ``O(log chunk)`` retries.
        """
        indices = tuple(indices)
        if split and len(indices) > 1:
            mid = (len(indices) + 1) // 2
            self.replay.append((indices[:mid], origin))
            self.replay.append((indices[mid:], origin))
        elif indices:
            self.replay.append((indices, origin))

    def orphan(self, shard: int) -> None:
        """Move a permanently dead owner's pending work to the replay queue.

        Idle workers only steal from shards above ``steal_threshold``; a
        shard whose worker is gone for good must not strand its tail behind
        that rule, so its chunks become replay work any survivor may take.
        """
        queue = self.pending[shard]
        while queue:
            take = tuple(queue.popleft()
                         for _ in range(min(self.chunk, len(queue))))
            self.replay.append((take, shard))

    def drain(self) -> list[tuple[tuple[int, ...], int]]:
        """Pop every unserved chunk — the run is over, account them lost."""
        items = list(self.replay)
        self.replay.clear()
        for shard, queue in enumerate(self.pending):
            while queue:
                take = tuple(queue.popleft()
                             for _ in range(min(self.chunk, len(queue))))
                items.append((take, shard))
        return items

    def next_chunk(self, worker: int) -> tuple[tuple[int, ...], int, bool] | None:
        """``(indices, origin_shard, stolen)`` for ``worker``, or ``None``."""
        if self.replay:
            indices, origin = self.replay.popleft()
            return indices, origin, False
        own = self.pending[worker]
        if own:
            take = tuple(own.popleft() for _ in range(min(self.chunk, len(own))))
            return take, worker, False
        victims = [w for w, p in enumerate(self.pending)
                   if w != worker and len(p) >= self.steal_threshold]
        if not victims:
            return None
        victim = max(victims, key=self.remaining_cost)
        queue = self.pending[victim]
        take = tuple(reversed([queue.pop()
                               for _ in range(min(self.chunk, len(queue)))]))
        return take, victim, True


class DevicePool:
    """Shard a scenario batch across a pool of simulated devices.

    Parameters
    ----------
    n_workers:
        Devices in the pool (default: the host CPU count).  A solve never
        uses more workers than it has scenarios.
    executor:
        The transport under the one scheduler loop.  ``"process"``
        (default) runs each device in its own ``multiprocessing`` worker
        on a private pipe.  ``"sequential"`` runs each chunk in-process
        the moment it is dispatched and serves the least-busy simulated
        worker next, for determinism and debugging.  Results are
        identical either way; only wall-clock and the busy-time
        measurements differ.
    placement:
        ``"cost"`` (default) balances the initial shards by estimated
        element count; ``"count"`` by scenario count.
    chunk_scenarios:
        Scenarios dispatched to a worker per task — the stealing
        granularity.  Default: about a quarter shard,
        ``ceil(S / (4 * workers))``, so every worker returns to the
        scheduler a few times and can steal or be stolen from.
    steal_threshold:
        Minimum pending scenarios a victim shard must have before an idle
        worker may steal from it (default 1: steal whatever is left).
    start_method:
        ``multiprocessing`` start method (default: ``fork`` where
        available, else the platform default).
    solve_fn:
        The shard entry point, a picklable callable mapping
        :class:`~repro.admm.batch_solver.ShardTask` to
        :class:`~repro.admm.batch_solver.ShardResult`.  Defaults to
        :func:`~repro.admm.batch_solver.solve_scenario_shard`; tests inject
        failing stand-ins here.
    on_failure:
        ``"raise"`` (default) keeps fail-fast semantics: any chunk failure
        aborts the solve and raises one :class:`PoolExecutionError`
        aggregating *every* failed chunk.  ``"retry"`` replays lost chunks
        within the retry/respawn budgets and raises only once a scenario's
        budget is exhausted.  ``"partial"`` is ``"retry"`` that never
        raises: budget-exhausted scenarios come back as ``None`` solutions,
        marked in :attr:`PoolReport.failed_scenarios`.
    max_retries:
        Per-scenario failure budget under ``"retry"``/``"partial"``: a
        scenario may fail this many times and still be replayed; one more
        failure makes it terminal (default 2).
    max_respawns:
        Pool-wide budget of worker-process respawns after deaths/timeouts
        (default 2).  A worker lost beyond the budget stays dead and its
        pending shard is redistributed to the survivors.
    chunk_timeout:
        Seconds a dispatched chunk may run before its worker is declared
        lost, terminated, and the chunk replayed (default ``None``: no
        deadline).  The process transport enforces it on the wall clock;
        the in-process transport cannot interrupt a running chunk and
        applies it to injected stalls only.  A stall within the deadline
        is a delay on both: it counts as busy time.
    respawn_backoff:
        Base seconds of the exponential backoff before respawning a lost
        worker (``backoff · 2^k`` for that worker's ``k``-th respawn;
        default 0.1).
    fault_plan:
        A :class:`~repro.parallel.faults.FaultPlan` of scripted failures,
        consulted at every dispatch (default: the plan scripted by the
        ``REPRO_FAULT_PLAN`` environment variable, or none).  Injection is
        parent-side deterministic, so both transports replay identical
        fault schedules.
    """

    def __init__(self, n_workers: int | None = None, executor: str = "process",
                 placement: str = "cost", chunk_scenarios: int | None = None,
                 steal_threshold: int = 1, start_method: str | None = None,
                 solve_fn: Callable | None = None, on_failure: str = "raise",
                 max_retries: int = 2, max_respawns: int = 2,
                 chunk_timeout: float | None = None,
                 respawn_backoff: float = 0.1,
                 fault_plan: FaultPlan | None = None) -> None:
        if executor not in EXECUTORS:
            raise ConfigurationError(
                f"unknown executor {executor!r}; choose from {EXECUTORS}")
        if placement not in PLACEMENTS:
            raise ConfigurationError(
                f"unknown placement {placement!r}; choose from {PLACEMENTS}")
        if on_failure not in ON_FAILURE:
            raise ConfigurationError(
                f"unknown on_failure {on_failure!r}; choose from {ON_FAILURE}")
        if n_workers is not None and n_workers < 1:
            raise ConfigurationError("n_workers must be at least 1")
        if chunk_scenarios is not None and chunk_scenarios < 1:
            raise ConfigurationError("chunk_scenarios must be at least 1")
        if max_retries < 0:
            raise ConfigurationError("max_retries must be non-negative")
        if max_respawns < 0:
            raise ConfigurationError("max_respawns must be non-negative")
        if chunk_timeout is not None and chunk_timeout <= 0:
            raise ConfigurationError("chunk_timeout must be positive")
        if respawn_backoff < 0:
            raise ConfigurationError("respawn_backoff must be non-negative")
        self.n_workers = n_workers if n_workers is not None else (os.cpu_count() or 1)
        self.executor = executor
        self.placement = placement
        self.chunk_scenarios = chunk_scenarios
        self.steal_threshold = steal_threshold
        self.start_method = start_method
        self.on_failure = on_failure
        self.max_retries = max_retries
        self.max_respawns = max_respawns
        self.chunk_timeout = chunk_timeout
        self.respawn_backoff = respawn_backoff
        self.fault_plan = fault_plan if fault_plan is not None else FaultPlan.from_env()
        self._solve_fn = solve_fn

    # ------------------------------------------------------------------ #
    def solve(self, scenarios, params=None, time_limit: float | None = None,
              warm_states=None, affinity=None, penalties=None) -> PoolReport:
        """Solve the batch across the pool; results in batch order.

        ``time_limit`` is a *per-scenario* budget: each dispatched chunk
        receives ``time_limit * len(chunk)`` as its aggregate shard budget
        (the pool analogue of the batched solver's aggregate limit).

        ``warm_states`` optionally supplies one per-scenario
        :class:`~repro.admm.state.AdmmState` (or ``None`` for a cold start
        of that scenario), in global batch order; each dispatched chunk
        ships its scenarios' states inside the
        :class:`~repro.admm.batch_solver.ShardTask`, so warm starts survive
        process boundaries — and travel with a *stolen* scenario to the
        thief.  Because the states live with the parent, they also survive
        a worker death: a replayed chunk re-ships them, which is what makes
        a recovered solve bitwise identical to a failure-free one.

        ``penalties`` optionally supplies one per-scenario
        ``(rho_pq, rho_va)`` seed (or ``None``), in global batch order —
        the tracking pipeline's ρ-cache values.  Like warm states they live
        with the parent and ship inside every dispatched
        :class:`~repro.admm.batch_solver.ShardTask` (surviving steals,
        replays, and respawns), so a pooled adaptive-ρ solve runs the same
        arithmetic as the single-device one.

        ``affinity`` switches the initial partition to **persistent
        placement**: a sequence (or ``{index: worker}`` mapping) of
        preferred workers, one per scenario, ``None`` meaning "no
        preference".  A preferred scenario goes to its worker (ids wrap
        modulo the pool width, so affinities recorded on a wider pool stay
        usable); unpreferred scenarios fill up the lightest shards by cost.
        This is what keeps a warm-started tracking scenario on the worker
        already holding its state; work stealing still rebalances — the
        state simply ships with the stolen chunk.

        Failure semantics follow ``on_failure`` (see the class docstring):
        fail fast with an aggregated :class:`PoolExecutionError`, replay
        within budgets, or return a partial report with ``None`` solutions
        for the scenarios whose budgets ran out.
        """
        scenario_set = as_scenario_set(scenarios)
        n_scenarios = len(scenario_set)
        workers = max(1, min(self.n_workers, n_scenarios))
        costs = scenario_set.costs(self.placement)
        if warm_states is not None:
            warm_states = list(warm_states)
            if len(warm_states) != n_scenarios:
                raise ConfigurationError(
                    f"warm_states has {len(warm_states)} entries for "
                    f"{n_scenarios} scenarios")
        if penalties is not None:
            penalties = list(penalties)
            if len(penalties) != n_scenarios:
                raise ConfigurationError(
                    f"penalties has {len(penalties)} entries for "
                    f"{n_scenarios} scenarios")
        if affinity is not None:
            shards = self._affinity_partition(affinity, costs, workers)
            placement = "affinity"
        else:
            shards = partition_costs(costs, workers)
            placement = self.placement
        chunk = self.chunk_scenarios
        if chunk is None:
            chunk = max(1, -(-n_scenarios // (4 * workers)))
        scheduler = _StealScheduler(shards, costs, chunk, self.steal_threshold)
        LOGGER.debug("pool: %d scenarios over %d %s workers, shards=%s, chunk=%d",
                     n_scenarios, workers, self.executor, shards, chunk)

        start = time.perf_counter()
        solutions, chunks, worker_devices, recovery = _PoolRun(
            self, scenario_set, params, time_limit, scheduler, workers,
            warm_states, penalties).run()
        wall = time.perf_counter() - start

        if recovery.failed and self.on_failure != "partial":
            raise self._failure_error(recovery)
        missing = [s for s, solution in enumerate(solutions)
                   if solution is None and s not in recovery.failed]
        if missing:
            raise PoolExecutionError(
                f"pool finished without solutions for scenarios {missing}",
                indices=tuple(missing),
                scenario_names=tuple(scenario_set[s].name for s in missing))

        stats = [WorkerStats(worker=w) for w in range(workers)]
        for record in chunks:
            worker_stats = stats[record.worker]
            worker_stats.chunks += 1
            worker_stats.scenarios += len(record.indices)
            worker_stats.steals += int(record.stolen)
            worker_stats.busy_seconds += record.seconds
        for w, devices in worker_devices.items():
            stats[w].device = merge_device_dicts(devices, name=f"worker{w}")
        busy = [s.busy_seconds for s in stats]
        return PoolReport(
            solutions=solutions,
            n_workers=workers,
            executor=self.executor,
            placement=placement,
            wall_seconds=wall,
            makespan_seconds=max(busy) if busy else 0.0,
            total_busy_seconds=sum(busy),
            chunks=chunks,
            workers=stats,
            device=merge_device_dicts((s.device for s in stats if s.device),
                                      name=f"pool[{workers}]"),
            retries=recovery.retries,
            respawns=recovery.respawns,
            replayed_scenarios=tuple(sorted(recovery.replayed)),
            failed_scenarios=tuple(sorted(recovery.failed)),
            failures=list(recovery.failures),
        )

    # ------------------------------------------------------------------ #
    @staticmethod
    def _affinity_partition(affinity, costs: Sequence[float],
                            workers: int) -> list[list[int]]:
        """Persistent-placement partition: preferences first, LPT fill-in.

        ``affinity`` is a per-scenario preferred worker (sequence or
        ``{index: worker}`` mapping; ``None``/missing = no preference).
        Preferred scenarios land on their worker (mod the pool width);
        the rest go greedily to the lightest shard by cost, and every
        shard's ids stay ascending for the stable re-merge.
        """
        n_scenarios = len(costs)
        if isinstance(affinity, dict):
            preferred = [affinity.get(s) for s in range(n_scenarios)]
        else:
            preferred = list(affinity)
            if len(preferred) != n_scenarios:
                raise ConfigurationError(
                    f"affinity has {len(preferred)} entries for "
                    f"{n_scenarios} scenarios")
        shards: list[list[int]] = [[] for _ in range(workers)]
        loads = [0.0] * workers
        unplaced = []
        for s, pref in enumerate(preferred):
            if pref is None:
                unplaced.append(s)
                continue
            worker = int(pref) % workers
            shards[worker].append(s)
            loads[worker] += costs[s]
        for s in sorted(unplaced, key=lambda s: -costs[s]):
            lightest = min(range(workers), key=lambda w: (loads[w], w))
            shards[lightest].append(s)
            loads[lightest] += costs[s]
        return [sorted(shard) for shard in shards]

    # ------------------------------------------------------------------ #
    @staticmethod
    def _failure_error(recovery: _RecoveryState) -> PoolExecutionError:
        """Aggregate *every* failed chunk into one raisable error."""
        failed = tuple(sorted(recovery.failed))
        names = tuple(
            recovery.failed[i].scenario_names[recovery.failed[i].indices.index(i)]
            for i in failed)
        lines = "\n".join(f.describe() for f in recovery.failures)
        workers = {f.worker for f in recovery.failures}
        message = (f"{len(failed)} scenario(s) failed across "
                   f"{len(recovery.failures)} chunk failure(s):\n{lines}")
        return PoolExecutionError(
            message,
            worker=workers.pop() if len(workers) == 1 else None,
            indices=failed, scenario_names=names,
            failures=tuple(recovery.failures))


# --------------------------------------------------------------------- #
# The scheduler/recovery loop                                            #
# --------------------------------------------------------------------- #
@dataclass
class _Dispatch:
    """One in-flight chunk: what a worker is (supposedly) solving."""

    tag: int                  # unique per dispatch; stale results are dropped
    indices: tuple[int, ...]
    origin: int
    stolen: bool
    attempt: int
    stall: float = 0.0        # injected sub-deadline stall: busy time too


class _PoolRun:
    """One pooled solve: the scheduler/recovery loop over a transport.

    The loop hands every idle worker its next chunk (replay queue first,
    own shard next, then stealing), stamps each dispatch with a unique
    *tag*, and consumes the transport's events, each a ``(worker, tag,
    kind, payload)`` tuple:

    * ``"ok"`` / ``"error"`` / ``"fatal"`` — the worker reported on
      dispatch ``tag`` (a :class:`ShardResult`, or a traceback; ``"fatal"``
      means the worker also left its loop).  A tag that does not match the
      worker's current dispatch is a late arrival from a worker already
      declared lost and is dropped — its chunk was replayed or recorded
      failed, so dropping it cannot lose work.
    * ``"death"`` / ``"timeout"`` — the worker is lost, busy or idle; a
      chunk it was running fails with that kind.
    * ``"up"`` — a respawned worker is ready for work.

    Everything else is the loop's: retry budgets and chunk splitting, the
    pool-wide respawn budget, orphaning a dead worker's shard, the
    fail-fast abort, and the merge into solutions and chunk records.  The
    transport only moves tasks and reports what happened to them.
    """

    def __init__(self, pool: DevicePool, scenario_set: ScenarioSet, params,
                 time_limit: float | None, scheduler: _StealScheduler,
                 workers: int, warm_states=None, penalties=None) -> None:
        self.pool = pool
        self.scenario_set = scenario_set
        self.params = params
        self.time_limit = time_limit
        self.scheduler = scheduler
        self.workers = workers
        self.warm_states = warm_states
        self.penalties = penalties
        solve_fn = pool._solve_fn
        if solve_fn is None:
            from repro.admm.batch_solver import solve_scenario_shard as solve_fn
        transport = (_InlineTransport if pool.executor == "sequential"
                     else _ProcessTransport)
        self.transport = transport(pool, workers, solve_fn)

        self.solutions: list = [None] * len(scenario_set)
        self.records: dict[int, ChunkRecord] = {}   # by dispatch tag
        self.worker_devices: dict[int, list[dict]] = {w: [] for w in range(workers)}
        self.recovery = _RecoveryState()
        self.outstanding: dict[int, _Dispatch] = {}
        self.parked: set[int] = set()        # idle workers, alive
        self.restarting: set[int] = set()    # lost workers awaiting "up"
        self.dispatch_count = [0] * workers
        self.attempts: dict[int, int] = {}
        self.abort = False
        self.next_tag = 0

    def run(self):
        self.transport.open()
        try:
            for worker in range(self.workers):
                self._dispatch(worker)
            while True:
                self._feed_parked()
                if not self.outstanding and not self.restarting:
                    break
                for event in self.transport.events():
                    self._handle(*event)
        finally:
            self.transport.close()
        if not self.abort and self.scheduler.has_work:
            self._drain_lost()
        chunks = [self.records[tag] for tag in sorted(self.records)]
        return self.solutions, chunks, self.worker_devices, self.recovery

    # -------------------------------------------------------------- #
    def _dispatch(self, worker: int) -> None:
        """Hand ``worker`` its next chunk, or park it until work appears."""
        assignment = None if self.abort else self.scheduler.next_chunk(worker)
        if assignment is None:
            self.parked.add(worker)
            return
        self.parked.discard(worker)
        indices, origin, stolen = assignment
        attempt = max((self.attempts.get(i, 0) for i in indices), default=0)
        self.dispatch_count[worker] += 1
        command = None
        if self.pool.fault_plan is not None:
            command = self.pool.fault_plan.draw(
                worker, self.dispatch_count[worker], indices)
        stalled = command is not None and command.kind == "stall"
        self.next_tag += 1
        self.outstanding[worker] = _Dispatch(
            tag=self.next_tag, indices=indices, origin=origin, stolen=stolen,
            attempt=attempt, stall=command.seconds if stalled else 0.0)
        self.transport.send(worker, self.next_tag, self._task(indices, worker),
                            command)

    def _task(self, indices: tuple[int, ...], worker: int):
        from repro.admm.batch_solver import ShardTask
        return ShardTask(
            indices=indices,
            scenarios=self.scenario_set.subset(indices),
            params=self.params,
            time_limit=(None if self.time_limit is None
                        else self.time_limit * len(indices)),
            warm_states=(None if self.warm_states is None
                         else tuple(self.warm_states[i] for i in indices)),
            device_name=f"worker{worker}",
            penalties=(None if self.penalties is None
                       else tuple(self.penalties[i] for i in indices)))

    def _feed_parked(self) -> None:
        if self.abort:
            return
        for worker in sorted(self.parked):
            if not self.scheduler.has_work:
                return
            self._dispatch(worker)

    # -------------------------------------------------------------- #
    def _handle(self, worker: int, tag: int | None, kind: str, payload) -> None:
        if kind == "up":
            self.restarting.discard(worker)
            self._dispatch(worker)
            return
        if kind in ("death", "timeout"):
            dispatch = self.outstanding.pop(worker, None)
            if dispatch is not None:
                self._fail(worker, dispatch, kind, payload)
            self._lose(worker)
            return
        dispatch = self.outstanding.get(worker)
        if dispatch is None or dispatch.tag != tag:
            LOGGER.debug("pool: dropping stale result tag=%s from worker %d",
                         tag, worker)
            return
        del self.outstanding[worker]
        if kind == "ok":
            for index, solution in zip(payload.indices, payload.solutions):
                self.solutions[index] = solution
            self.worker_devices[worker].append(payload.device)
            self.records[tag] = ChunkRecord(
                worker=worker, indices=dispatch.indices, origin=dispatch.origin,
                stolen=dispatch.stolen, seconds=payload.seconds + dispatch.stall,
                attempt=dispatch.attempt)
            self._dispatch(worker)
            return
        self._fail(worker, dispatch, "error", str(payload))
        if kind == "fatal":
            self._lose(worker)
        else:
            self._dispatch(worker)

    def _failure(self, worker: int, indices: tuple[int, ...], kind: str,
                 detail: str, attempt: int) -> ChunkFailure:
        return ChunkFailure(
            worker=worker, indices=tuple(indices),
            scenario_names=tuple(self.scenario_set[i].name for i in indices),
            kind=kind, detail=detail, attempt=attempt)

    def _fail(self, worker: int, dispatch: _Dispatch, kind: str,
              detail: str) -> None:
        """Account one failed chunk: requeue survivors, or abort the run."""
        failure = self._failure(worker, dispatch.indices, kind, detail,
                                dispatch.attempt)
        self.recovery.failures.append(failure)
        LOGGER.warning("pool: %s", failure.describe())
        if self.pool.on_failure == "raise":
            for i in failure.indices:
                self.recovery.failed[i] = failure
            self.abort = True
            return
        survivors = []
        for i in failure.indices:
            self.attempts[i] = self.attempts.get(i, 0) + 1
            if self.attempts[i] <= self.pool.max_retries:
                survivors.append(i)
            else:
                self.recovery.failed[i] = failure
        if survivors:
            self.scheduler.requeue(tuple(survivors), dispatch.origin)
            self.recovery.retries += 1
            self.recovery.replayed.update(survivors)
            LOGGER.info("pool: replaying scenarios %s (attempt %d)",
                        survivors, max(self.attempts[i] for i in survivors))

    def _lose(self, worker: int) -> None:
        """Retire a lost worker; respawn it within budget, else orphan its shard."""
        self.transport.retire(worker)
        self.parked.discard(worker)
        if self.abort or self.recovery.respawns >= self.pool.max_respawns:
            if not self.abort:
                self.scheduler.orphan(worker)
            return
        self.recovery.respawns += 1
        self.restarting.add(worker)
        self.transport.respawn(worker)
        LOGGER.info("pool: respawning worker %d (respawn %d/%d)", worker,
                    self.recovery.respawns, self.pool.max_respawns)

    def _drain_lost(self) -> None:
        """No runnable worker left: everything unserved is terminally lost."""
        for indices, origin in self.scheduler.drain():
            failure = self._failure(
                origin, indices, "lost",
                "no workers left alive to run the chunk "
                "(respawn budget exhausted)",
                max((self.attempts.get(i, 0) for i in indices), default=0))
            self.recovery.failures.append(failure)
            for i in indices:
                self.recovery.failed[i] = failure


# --------------------------------------------------------------------- #
# Transports                                                             #
# --------------------------------------------------------------------- #
class _InlineTransport:
    """In-process transport (``executor="sequential"``): simulated workers.

    A chunk runs the moment it is sent, one at a time, so its measured
    seconds are contention-free.  The parent-drawn :class:`FaultCommand`
    plays as a simulated event: a crash as a worker death, a stall longer
    than ``chunk_timeout`` as a timeout, a shorter stall as a delay on the
    worker's busy clock, a raise as an error.  Events come back one at a
    time in the order of each worker's simulated busy clock, ties to the
    lowest worker id — the least-busy worker is served next — so the
    process transport's scheduling is reproduced deterministically.  A
    respawn is immediate.
    """

    def __init__(self, pool: DevicePool, workers: int, solve_fn: Callable) -> None:
        self.solve_fn = solve_fn
        self.chunk_timeout = pool.chunk_timeout
        self.clocks = [0.0] * workers
        self.done: list = []   # heap of (busy clock, worker, tag, kind, payload)

    def open(self) -> None:
        pass

    def close(self) -> None:
        pass

    def retire(self, worker: int) -> None:
        pass

    def respawn(self, worker: int) -> None:
        self._deliver(worker, None, "up", None)

    def send(self, worker: int, tag: int, task, fault: FaultCommand | None) -> None:
        fault_kind = fault.kind if fault is not None else None
        if fault_kind == "crash":
            self._deliver(worker, tag, "death",
                          "worker process died without reporting a result "
                          "(injected crash, simulated in-process)")
            return
        if (fault_kind == "stall" and self.chunk_timeout is not None
                and fault.seconds > self.chunk_timeout):
            self._deliver(worker, tag, "timeout",
                          f"worker stalled {fault.seconds:.1f}s past the "
                          f"{self.chunk_timeout:.1f}s chunk deadline "
                          "(injected stall, simulated in-process)")
            return
        try:
            if fault_kind == "raise":
                raise RuntimeError("injected fault: raise")
            result = self.solve_fn(task)
        except Exception as exc:
            self._deliver(worker, tag, "error", repr(exc))
            return
        stall = fault.seconds if fault_kind == "stall" else 0.0
        self.clocks[worker] += result.seconds + stall
        self._deliver(worker, tag, "ok", result)

    def _deliver(self, worker: int, tag, kind: str, payload) -> None:
        # one entry per worker at a time, so (clock, worker) never ties
        heapq.heappush(self.done, (self.clocks[worker], worker, tag, kind, payload))

    def events(self):
        _, worker, tag, kind, payload = heapq.heappop(self.done)
        return ((worker, tag, kind, payload),)


class _ProcessTransport:
    """Multiprocessing transport (``executor="process"``): real workers.

    Each worker is a ``multiprocessing`` process running
    :func:`_pool_worker` on **one private duplex pipe**; every envelope
    carries the dispatch tag, which the worker echoes back.  A worker
    whose process dies or whose pipe reaches EOF is reported lost, whether
    it was busy or idle; one that stalls past ``chunk_timeout`` is
    reported timed out.  The loop then retires it (terminate, close the
    pipe) and may respawn it: a fresh ``Process`` on a fresh pipe after an
    exponential backoff (``respawn_backoff · 2^k`` for that slot's
    ``k``-th respawn).

    Pipes, not ``multiprocessing.Queue``s, are load-bearing for fault
    tolerance: a shared queue multiplexes writers through one shared write
    lock held by a background feeder thread, so a worker killed mid-``put``
    (``os._exit``, ``SIGKILL``, a terminated stall) can exit holding the
    lock and silently wedge every *surviving* writer — the failure then
    cascades as spurious chunk timeouts until the respawn budget dies.  A
    pipe has exactly one writer on each end and no helper threads, so
    corruption is confined to the dead worker's pipe, which is closed and
    replaced on respawn.
    """

    #: result poll granularity (also bounds deadline/respawn latency)
    POLL_SECONDS = 0.25
    #: shared wall-clock budget of the shutdown join across *all* workers
    JOIN_SECONDS = 30.0

    def __init__(self, pool: DevicePool, workers: int, solve_fn: Callable) -> None:
        self.pool = pool
        self.workers = workers
        self.solve_fn = solve_fn
        self.processes: list = [None] * workers
        self.conns: list = [None] * workers
        self.retired: list = []     # replaced/terminated processes to join
        self.deadlines: dict[int, float] = {}
        self.respawn_at: dict[int, float] = {}
        self.worker_respawns = [0] * workers

    def open(self) -> None:
        import multiprocessing as mp

        method = self.pool.start_method
        if method is None:
            method = "fork" if "fork" in mp.get_all_start_methods() else None
        self.context = mp.get_context(method)
        for worker in range(self.workers):
            self._start_worker(worker)

    def _start_worker(self, worker: int) -> None:
        """(Re)start ``worker`` on a fresh process and a fresh private pipe."""
        parent_conn, child_conn = self.context.Pipe(duplex=True)
        process = self.context.Process(
            target=_pool_worker, name=f"device-pool-{worker}",
            args=(worker, self.solve_fn, child_conn),
            daemon=True)
        self.processes[worker] = process
        self.conns[worker] = parent_conn
        process.start()
        # drop the parent's copy of the worker end so the pipe reports EOF
        # the moment the worker process is gone
        child_conn.close()

    def send(self, worker: int, tag: int, task, fault: FaultCommand | None) -> None:
        if self.pool.chunk_timeout is not None:
            self.deadlines[worker] = time.monotonic() + self.pool.chunk_timeout
        conn = self.conns[worker]
        if conn is None:
            return  # pipe already down: the liveness poll reports the loss
        try:
            conn.send((tag, task, fault))
        except (BrokenPipeError, OSError):
            # the worker died between scheduling and send: the liveness
            # poll turns it into a death and the chunk replays
            self._retire_conn(worker)

    def retire(self, worker: int) -> None:
        """Terminate ``worker`` if still running; corruption dies with the pipe."""
        process = self.processes[worker]
        if process is not None:
            if process.is_alive():
                process.terminate()
            self.retired.append(process)
            self.processes[worker] = None
        self.deadlines.pop(worker, None)
        self._retire_conn(worker)

    def respawn(self, worker: int) -> None:
        backoff = self.pool.respawn_backoff * (2 ** self.worker_respawns[worker])
        self.worker_respawns[worker] += 1
        self.respawn_at[worker] = time.monotonic() + backoff

    def _retire_conn(self, worker: int) -> None:
        conn = self.conns[worker]
        if conn is not None:
            try:
                conn.close()
            except OSError:
                pass
            self.conns[worker] = None

    # -------------------------------------------------------------- #
    def events(self):
        """Yield the events of one poll round.

        A generator on purpose: the loop handles each event before the
        next check runs, so a worker it has just retired (after a
        ``"fatal"`` report, say) is not reported lost a second time.
        """
        yield from self._pump_results(self._poll_timeout())
        yield from self._check_liveness()
        yield from self._check_deadlines()
        yield from self._do_respawns()

    def _poll_timeout(self) -> float:
        now = time.monotonic()
        return max(0.01, min([self.POLL_SECONDS,
                              *(when - now for when in self.deadlines.values()),
                              *(when - now for when in self.respawn_at.values())]))

    def _pump_results(self, timeout: float):
        """Wait on every live worker pipe; drain all buffered results.

        Results already buffered on a pipe are always consumed before the
        liveness poll runs, so a result that *did* arrive is never raced by
        a death verdict.  A pipe that reports EOF is retired here and the
        liveness poll reports its worker lost.
        """
        from multiprocessing import connection as mp_connection

        watched = {conn: worker for worker, conn in enumerate(self.conns)
                   if conn is not None}
        if not watched:
            time.sleep(timeout)
            return
        for conn in mp_connection.wait(list(watched), timeout=timeout):
            worker = watched[conn]
            while self.conns[worker] is conn:
                try:
                    if not conn.poll():
                        break
                    message = conn.recv()
                except (EOFError, OSError):
                    self._retire_conn(worker)
                    break
                self.deadlines.pop(worker, None)
                yield message

    def _check_liveness(self):
        for worker, process in enumerate(self.processes):
            if process is None:
                continue
            if self.conns[worker] is None or not process.is_alive():
                process.join(timeout=0.1)  # a pipe can hit EOF just before exit
                yield (worker, None, "death",
                       "worker process died without reporting a result "
                       f"(exit code {process.exitcode})")

    def _check_deadlines(self):
        now = time.monotonic()
        for worker, deadline in list(self.deadlines.items()):
            if now > deadline:
                del self.deadlines[worker]
                yield (worker, None, "timeout",
                       f"worker stalled past the {self.pool.chunk_timeout:.1f}s "
                       "chunk deadline and was terminated")

    def _do_respawns(self):
        now = time.monotonic()
        for worker, when in list(self.respawn_at.items()):
            if when <= now:
                del self.respawn_at[worker]
                self._start_worker(worker)
                yield worker, None, "up", None

    # -------------------------------------------------------------- #
    def close(self) -> None:
        """Bounded teardown: one shared join deadline, pipes can't hang it.

        A failed solve must not stall the caller for 30 s × workers: every
        process joins against the *same* wall-clock budget and stragglers
        are terminated.  Pipes have no feeder threads, so closing the
        parent ends afterwards is all the cleanup there is — a worker still
        blocked reading its pipe sees EOF and exits on its own.
        """
        for conn in self.conns:
            if conn is None:
                continue
            try:
                conn.send(None)
            except (BrokenPipeError, OSError, ValueError):
                pass  # best effort; the join deadline still bounds teardown
        deadline = time.monotonic() + self.JOIN_SECONDS
        everyone = [p for p in [*self.processes, *self.retired]
                    if p is not None]
        for process in everyone:
            process.join(timeout=max(0.1, deadline - time.monotonic()))
        for process in everyone:
            if process.is_alive():  # last resort; never expected
                process.terminate()
        for process in everyone:
            if process.is_alive():
                process.join(timeout=max(0.1, min(5.0, deadline + 5.0
                                                  - time.monotonic())))
        for worker in range(self.workers):
            self._retire_conn(worker)


def _execute_fault(fault: FaultCommand) -> None:
    """Perform an injected fault inside a worker process (for real)."""
    if fault.kind == "crash":
        os._exit(43)  # hard death: no exception, no cleanup — a segfault proxy
    elif fault.kind == "stall":
        time.sleep(fault.seconds)  # then solve normally; the parent's
        # deadline decides whether this chunk was already declared lost
    elif fault.kind == "raise":
        raise RuntimeError("injected fault: raise")


def _pool_worker(worker_id: int, solve_fn: Callable, conn) -> None:
    """Worker-process loop: solve dispatched shards until told to stop.

    ``conn`` is the worker end of a duplex pipe private to this worker.
    Every envelope is ``(tag, task, fault)``; the tag is echoed back so the
    parent can discard results from dispatches it has given up on.  A
    ``None`` envelope — or the pipe reporting EOF because the parent closed
    its end — is the shutdown signal.  A non-``Exception`` escape
    (``SystemExit``, ``KeyboardInterrupt``) is reported as ``"fatal"``
    before the loop exits, so the parent learns of the loss immediately
    instead of via the liveness poll.
    """
    import traceback

    while True:
        try:
            envelope = conn.recv()
        except (EOFError, OSError):
            return
        if envelope is None:
            return
        tag, task, fault = envelope
        try:
            if fault is not None:
                _execute_fault(fault)
            conn.send((worker_id, tag, "ok", solve_fn(task)))
        except Exception:
            conn.send((worker_id, tag, "error", traceback.format_exc()))
        except BaseException:
            try:
                conn.send((worker_id, tag, "fatal", traceback.format_exc()))
            finally:
                return


def solve_acopf_admm_pool(scenarios, params=None, n_workers: int | None = None,
                          time_limit: float | None = None, warm_states=None,
                          affinity=None, penalties=None,
                          **pool_options) -> PoolReport:
    """One-shot pooled solve (module-level convenience wrapper)."""
    pool = DevicePool(n_workers=n_workers, **pool_options)
    return pool.solve(scenarios, params=params, time_limit=time_limit,
                      warm_states=warm_states, affinity=affinity,
                      penalties=penalties)
