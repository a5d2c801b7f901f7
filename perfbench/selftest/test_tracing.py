"""Self-tests of the benchmark's tracing and metric naming."""

import json
import re
import threading
import time

import numpy as np
import pytest

import child
import tracing
from tracing import Patcher, Span, Tracer, program_modules, self_times, summarize

from mpkrbm import cli, sampler, trainer
from mpkrbm.params import ModelShape, init_params

NAME = re.compile(r"[A-Za-z0-9_.-]+")
SPEC = json.loads((child.ROOT / "BENCHMARK.json").read_text())


def snapshot():
    return {(mod.__name__, attr): value
            for mod in program_modules() for attr, value in vars(mod).items()}


def test_traced_run_restores_every_wrapped_name():
    before = snapshot()
    patcher = Patcher(program_modules())
    tracer = Tracer()
    child.install_tracer(patcher, tracer, child.Probe())
    try:
        # call sites that imported a name see the wrapper, not the original
        original = before[("mpkrbm.grad", "grad_free_energy_v")]
        assert sampler.grad_free_energy_v is not original
        assert sampler.grad_free_energy_v.__wrapped__ is original
        assert trainer.free_energy.__wrapped__ is before[("mpkrbm.energy", "free_energy")]
        assert cli.extract_patches.__wrapped__ is before[("mpkrbm.preprocess",
                                                          "extract_patches")]
        assert cli.ThreadPoolExecutor is not before[("mpkrbm.cli", "ThreadPoolExecutor")]

        params = init_params(ModelShape(4, 2, 2, 2, 2, 2, 2), seed=0)
        v = np.random.default_rng(0).standard_normal((3, 4))
        sampler.hmc_chain(v, params, sampler.HmcConfig(n_leapfrog=3), 1)
    finally:
        patcher.restore()
    assert snapshot() == before
    names = {s.name for s in tracer.spans}
    assert {"sampler.hmc_chain", "sampler.leapfrog", "grad.grad_free_energy_v",
            "energy.free_energy"} <= names
    assert summarize(tracer.spans)["grad.grad_free_energy_v"]["calls"] == 4


def test_probe_restores_every_name():
    before = snapshot()
    patcher = Patcher(program_modules())
    child.Probe().install(patcher, child.WORKLOADS["train-paper"])
    assert trainer.cd1_step is not before[("mpkrbm.trainer", "cd1_step")]
    patcher.restore()
    assert snapshot() == before


def test_self_time_is_span_time_minus_child_spans():
    spans = [
        Span(1, None, "root", 0.0, 10.0, 1),
        Span(2, 1, "a", 1.0, 3.0, 1),
        Span(3, 1, "b", 2.0, 4.0, 1),          # overlaps a: counted once
        Span(4, 1, "c", 5.0, 6.0, 1),
        Span(5, 4, "d", 5.2, 5.5, 1),          # grandchild: only c loses it
        Span(6, None, "other", 0.0, 1.0, 2),
    ]
    own = self_times(spans)
    assert own[1] == pytest.approx(10.0 - 3.0 - 1.0)
    assert own[2] == pytest.approx(2.0)
    assert own[4] == pytest.approx(1.0 - 0.3)
    assert own[5] == pytest.approx(0.3)
    assert own[6] == pytest.approx(1.0)


def test_self_time_of_recorded_nest():
    ticks = iter([0.0, 1.0, 2.0, 4.0, 7.0, 10.0])
    tracer = Tracer(clock=lambda: next(ticks))
    outer = tracer.begin("outer")           # 0
    first = tracer.begin("inner")           # 1
    tracer.end(first)                       # 2
    second = tracer.begin("inner")          # 4
    tracer.end(second)                      # 7
    tracer.end(outer)                       # 10
    rows = summarize(tracer.spans)
    assert rows["outer"] == {"calls": 1, "total_s": 10.0, "self_s": 6.0}
    assert rows["inner"] == {"calls": 2, "total_s": 4.0, "self_s": 4.0}


def test_hook_cost_is_not_the_callers_self_time():
    ticks = iter([0.0, 1.0, 2.0, 3.0, 5.0, 6.0])
    tracer = Tracer(clock=lambda: next(ticks))
    seen = []
    inner = tracer.wrap(lambda x: x, "inner", lambda *args: seen.append(args[1]))
    outer = tracer.begin("outer")           # 0
    inner(1)                                # call 1..2, hook 3..5
    tracer.end(outer)                       # 6
    rows = summarize(tracer.spans)
    assert seen == ["inner"]
    assert rows["inner"] == {"calls": 1, "total_s": 1.0, "self_s": 1.0}
    assert rows[tracing.HOOK_SPAN]["total_s"] == 2.0
    assert rows["outer"]["self_s"] == 6.0 - 1.0 - 2.0


def test_suspended_patcher_records_nothing():
    before = snapshot()
    patcher = Patcher(program_modules())
    tracer = Tracer()
    child.install_tracer(patcher, tracer, child.Probe())
    params = init_params(ModelShape(4, 2, 2, 2, 2, 2, 2), seed=0)
    v = np.random.default_rng(0).standard_normal((3, 4))
    try:
        with patcher.suspended():
            assert snapshot() == before
            sampler.grad_free_energy_v(v, params)
        assert not tracer.spans
        sampler.grad_free_energy_v(v, params)
    finally:
        patcher.restore()
    assert snapshot() == before
    assert summarize(tracer.spans)["grad.grad_free_energy_v"]["calls"] == 1


def test_pool_worker_spans_carry_their_thread():
    tracer = Tracer()
    workers = set()

    def work(x):
        workers.add(threading.get_ident())
        time.sleep(0.01)
        return x

    traced = tracer.wrap(work, "work")
    with tracer.pool_class("pool")(max_workers=2) as pool:
        assert list(pool.map(traced, range(8))) == list(range(8))

    main = threading.get_ident()
    (pool_span,) = [s for s in tracer.spans if s.name == "pool"]
    work_spans = [s for s in tracer.spans if s.name == "work"]
    assert pool_span.thread == main
    assert len(work_spans) == 8
    assert {s.thread for s in work_spans} == workers
    assert main not in workers
    busy, wall = tracing.worker_busy(tracer.spans, "pool")
    assert busy == pytest.approx(sum(s.duration for s in work_spans))
    assert wall == pytest.approx(pool_span.duration)


def test_every_metric_name_is_well_formed():
    names = [m["name"] for key in ("workloads", "end_to_end", "per_layer") for m in SPEC[key]]
    assert len(names) == len(set(names))
    assert all(NAME.fullmatch(n) and len(n) <= 64 for n in names), names


def test_child_emits_exactly_the_declared_per_layer_metrics():
    window = {"hmc": []}
    emitted = set(child.layer_metrics(Tracer(), window, 1)) | set(child.POOL_VERDICT_NAMES)
    emitted |= {"trace.units", "trace.overhead"}
    assert emitted == {m["name"] for m in SPEC["per_layer"]}
    assert all(NAME.fullmatch(n) for n in emitted)


def test_tail_leaves_ten_samples_beyond():
    value, pct, n = child.tail(list(range(100)))
    assert (value, pct, n) == (89, 90, 100)
    assert sum(x > value for x in range(100)) == 10
    assert child.tail([3.0, 1.0]) == (3.0, 100, 2)
    for n in (11, 36, 99, 1800, 2000):
        value, pct, _ = child.tail(list(range(n)))
        assert sum(x > value for x in range(n)) >= 10
        assert sum(x <= value for x in range(n)) >= pct * n / 100
    assert child.tail(list(range(2000)))[:2] == (1979, 99)


def test_kernel_counts_scale_with_batch():
    params = init_params(ModelShape(6, 3, 2, 4, 5, 3, 2), seed=1)
    for kernel in child.kernels.KERNELS:
        f1, b1 = child.kernels.counts(kernel, 1, params)
        f8, b8 = child.kernels.counts(kernel, 8, params)
        assert 0 < f1 < f8 <= 8 * f1
        assert 0 < b1 < b8
