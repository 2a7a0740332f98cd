"""Tests of the benchmark's own logic: percentiles, span arithmetic, patching."""

from __future__ import annotations

import types

import numpy as np
import pytest

from perfbench import layers
from perfbench.run import counter_drift, percentile, samples_beyond
from perfbench.tracer import Patcher, Tracer
from perfbench.workloads import Store


class FakeClock:
    """A clock that advances by one second on every read."""

    def __init__(self):
        self.now = 0.0

    def __call__(self) -> float:
        self.now += 1.0
        return self.now


# --------------------------------------------------------------------- #
# Percentile rule                                                         #
# --------------------------------------------------------------------- #
def test_nearest_rank_percentile():
    samples = list(range(100, 0, -1))        # 1..100, unsorted
    assert percentile(samples, 50) == 50
    assert percentile(samples, 90) == 90
    assert percentile([3.0], 90) == 3.0
    assert percentile([4, 1, 3, 2], 50) == 2
    with pytest.raises(ValueError):
        percentile([], 50)


def test_p90_needs_a_hundred_samples_for_ten_beyond_it():
    assert samples_beyond(100, 90) == 10
    assert samples_beyond(99, 90) == 9
    assert samples_beyond(150, 90) == 15
    assert samples_beyond(8, 90) == 0
    # exactly the samples strictly above the reported percentile
    for n in (8, 99, 100, 101, 250):
        samples = list(range(n))
        assert sum(x > percentile(samples, 90) for x in samples) == samples_beyond(n, 90)


# --------------------------------------------------------------------- #
# Span arithmetic                                                         #
# --------------------------------------------------------------------- #
def test_self_time_is_span_minus_children():
    # each span reads the clock once when it opens and once when it closes
    tracer = Tracer(keep_spans=True, clock=FakeClock())
    with tracer.span("round"):            # opens at 1, closes at 10
        with tracer.span("solve"):        # 2 .. 7
            with tracer.span("kernel"):   # 3 .. 4
                pass
            with tracer.span("kernel"):   # 5 .. 6
                pass
        with tracer.span("check"):        # 8 .. 9
            pass

    spans = tracer.spans
    assert [s[0] for s in spans] == ["round", "solve", "kernel", "kernel", "check"]
    for span_id, (name, start, end, parent) in enumerate(spans):
        children = [s for s in spans if s[3] == span_id]
        self_time = (end - start) - sum(e - s for _, s, e, _ in children)
        path = [name]
        while parent is not None:
            path.insert(0, spans[parent][0])
            parent = spans[parent][3]
        node = tracer.nodes[tuple(path)]
        assert node.self_s == pytest.approx(self_time * node.calls)
    assert tracer.nodes[("round",)].total_s == 9.0
    assert tracer.nodes[("round",)].self_s == 3.0
    assert tracer.nodes[("round", "solve")].self_s == 3.0
    assert tracer.nodes[("round", "solve", "kernel")].calls == 2
    assert tracer.total("kernel", under="solve") == 2.0
    assert tracer.calls("kernel", under="check") == 0
    assert tracer.tree_errors() == []

    tracer.nodes[("round", "solve")].self_s += 0.5
    assert len(tracer.tree_errors()) == 1


def test_span_closes_when_the_call_raises():
    tracer = Tracer()

    def boom():
        raise RuntimeError("boom")

    traced = tracer.wrap(boom, "boom")
    with tracer.span("outer"):
        with pytest.raises(RuntimeError):
            traced()
    assert tracer.nodes[("outer", "boom")].calls == 1
    assert tracer.tree_errors() == []


# --------------------------------------------------------------------- #
# Wrapper installation and restoration                                    #
# --------------------------------------------------------------------- #
class Target:
    def method(self, x):
        return ("method", x)

    @classmethod
    def build(cls, x):
        return (cls.__name__, x)

    @staticmethod
    def plain(x):
        return ("plain", x)


def test_patcher_rebinds_like_the_original_and_restores_it():
    module = types.ModuleType("fake")
    module.function = lambda x: ("function", x)
    originals = {name: vars(Target)[name] for name in ("method", "build", "plain")}
    original_function = module.function
    tracer = Tracer()

    with Patcher() as patcher:
        for name in originals:
            patcher.replace(Target, name, lambda fn, name=name: tracer.wrap(fn, name))
        patcher.replace(module, "function", lambda fn: tracer.wrap(fn, "function"))
        assert Target().method(1) == ("method", 1)
        assert Target.build(2) == ("Target", 2)
        assert Target().plain(3) == ("plain", 3)
        assert module.function(4) == ("function", 4)
        assert all(vars(Target)[name] is not fn for name, fn in originals.items())
    assert {name: tracer.calls(name) for name in ("method", "build", "plain", "function")} \
        == {"method": 1, "build": 1, "plain": 1, "function": 1}
    assert all(vars(Target)[name] is fn for name, fn in originals.items())
    assert module.function is original_function


def test_instrument_wraps_every_layer_and_restores_the_program():
    originals = {}
    targets = [(module, path) for module, path, _, _ in layers.SPANS]
    for module, path in targets + [("repro.parallel.device", "SimulatedDevice.launch")]:
        owner, attr = layers._resolve(module, path)
        originals[(module, path)] = (owner, attr, vars(owner)[attr])
    with layers.instrument(Tracer()):
        for owner, attr, original in originals.values():
            assert vars(owner)[attr] is not original
            assert type(vars(owner)[attr]) is type(original)
    for owner, attr, original in originals.values():
        assert vars(owner)[attr] is original


def test_traced_solve_matches_untraced_and_fills_the_tree():
    import repro

    scenarios = repro.load_scaling_scenarios(repro.load_case("case9"), [0.9, 1.0])
    params = repro.AdmmParameters(max_outer=2, max_inner=20)
    plain = repro.solve_acopf_admm_batch(scenarios, params=params)
    tracer = Tracer()
    with layers.instrument(tracer):
        with tracer.span("round"):
            traced = repro.solve_acopf_admm_batch(scenarios, params=params)
    for a, b in zip(plain, traced):
        assert np.array_equal(a.vm, b.vm) and a.inner_iterations == b.inner_iterations
    metrics = layers.layer_metrics(tracer, [layers.snapshot(tracer)],
                                   setup_reps=1, period_wall_s=0.0)
    assert metrics["admm.solve_s"] > metrics["admm.branch_update_s"] > metrics["tron.s"] > 0
    assert metrics["tron.calls"] == tracer.calls("admm.branch_update") > 0
    assert metrics["tron.rows"] > 0 and metrics["tron.hess_evals"] > 0
    assert 0 < metrics["admm.unlaunched_frac"] < 1
    assert 0 < metrics["admm.branch_occupancy"] <= 1
    assert metrics["pool.chunks"] == 0 and metrics["tracking.views_s"] == 0
    assert tracer.tree_errors() == []
    mapped = [name for names, _, _ in layers.LAYER_MAP for name in names]
    assert sorted(mapped) == sorted({*metrics, "trace.solve_s"})


# --------------------------------------------------------------------- #
# Determinism ledger                                                      #
# --------------------------------------------------------------------- #
def test_counter_drift_between_rounds_and_runs(tmp_path):
    store = Store(tmp_path)
    assert counter_drift([{"tron.calls": 5}, {"tron.calls": 5}], store, "c") == []
    assert counter_drift([{"tron.calls": 5}], store, "c") == []
    assert len(counter_drift([{"tron.calls": 5}, {"tron.calls": 6}], store, "c")) == 1
    assert len(counter_drift([{"tron.calls": 7}], store, "c")) == 1
    assert counter_drift([{"tron.calls": 7}], store, "other") == []
