"""Runs one workload in its own process and prints its results as one JSON
line. run.py starts it with the thread settings already in its
environment, so they hold before numpy loads.

An untraced run repeats the workload's fixed run until `--seconds` of run
time are used. It times only unit boundaries and keeps the sampler's
statistics. It sets up once before the first fixed run and again, timed
and thrown away, at even steps of run time between fixed runs; the median
of those set-up times is `setup_s`. A traced run spends half its time
untraced and half traced, and reports the per-layer numbers and the ratio
of the two wall times.
"""

import argparse
import hashlib
import importlib
import json
import math
import os
import platform
import resource
import shutil
import statistics
import sys
import tempfile
import time
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path

import numpy as np

import kernels
from tracing import Patcher, Tracer, program_modules, summarize, worker_busy
from workloads import WORKLOADS

from mpkrbm import sampler

ROOT = Path(__file__).resolve().parent.parent
SETUP_REPEATS = 7
POOL_VERDICT_ROUNDS = 3
POOL_SPAN = "cli.preprocess_pool"
THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS", "MPK_THREADS")
PER_UNIT_SELF = ("params.project_constraints", "trainer.cd1_step", "sampler.leapfrog",
                 "params.save_checkpoint", "pnm.read_pnm", "preprocess.extract_patches",
                 "preprocess.fit_whitening")


def ratio(num, den):
    return num / den if den else 0.0


def tail(values):
    """The highest whole percentile with at least ten samples beyond it,
    by nearest rank: (value, percentile, sample count). With ten samples
    or fewer there is no such percentile and the maximum is given as the
    100th."""
    xs = sorted(values)
    n = len(xs)
    if n <= 10:
        return xs[-1], 100, n
    pct = 100 * (n - 10) // n
    return xs[math.ceil(pct * n / 100) - 1], pct, n


# --- instrumentation -----------------------------------------------------

class Probe:
    """What an untraced run observes: when each unit starts and the
    statistics every HMC call returns. One clock read per unit."""

    def __init__(self):
        self.starts = []
        self.hmc = []

    def install(self, patcher, workload):
        if workload.unit_boundary is not None:
            module, attr = workload.unit_boundary
            original = getattr(module, attr)

            def stamped(*args, **kwargs):
                self.starts.append(time.perf_counter())
                return original(*args, **kwargs)

            patcher.replace(original, stamped)
        original_hmc = sampler.hmc_chain

        def collected(*args, **kwargs):
            out = original_hmc(*args, **kwargs)
            self.hmc.append(out[1])
            return out

        patcher.replace(original_hmc, collected)


def kernel_hook(tracer, name, args, kwargs, result):
    v = args[0]
    batch = np.shape(v)[0] if np.ndim(v) > 1 else 1
    phase = kwargs.get("with_phase", args[2] if len(args) > 2 else True)
    flops, nbytes = kernels.counts(name, batch, args[1], phase)
    tracer.count(name, flops=flops, bytes=nbytes)


def file_bytes_hook(position, keyword):
    def hook(tracer, name, args, kwargs, result):
        path = args[position] if len(args) > position else kwargs[keyword]
        tracer.count(name, bytes=os.path.getsize(path))
    return hook


# (module, function, hook) for every traced layer function
TRACED = (
    ("energy", "free_energy", kernel_hook),
    ("grad", "grad_free_energy_v", kernel_hook),
    ("grad", "grad_free_energy_params", kernel_hook),
    ("params", "project_constraints", None),
    ("params", "save_checkpoint", file_bytes_hook(2, "path")),
    ("container", "write_container", file_bytes_hook(0, "path")),
    ("container", "read_container", file_bytes_hook(0, "path")),
    ("pnm", "read_pnm", None),
    ("preprocess", "extract_patches", None),
    ("preprocess", "fit_whitening", None),
    ("sampler", "hmc_chain", None),
    ("sampler", "leapfrog", None),
    ("trainer", "cd1_step", None),
)


def install_tracer(patcher, tracer, probe):
    def hmc_hook(tracer, name, args, kwargs, result):
        probe.hmc.append(result[1])

    for module_name, attr, hook in TRACED:
        func = getattr(importlib.import_module(f"mpkrbm.{module_name}"), attr)
        hook = hmc_hook if func is sampler.hmc_chain else hook
        patcher.replace(func, tracer.wrap(func, f"{module_name}.{attr}", hook))
    patcher.replace(ThreadPoolExecutor, tracer.pool_class(POOL_SPAN))


# --- measurement ---------------------------------------------------------

def measure(workload, state, budget, tracer=None, between=None):
    """Fixed runs back to back until `budget` seconds of run time are used
    (at least one). Output checks, and `between(run time used)` if given,
    run between fixed runs, untimed and with the program's own functions
    back in place, so that neither is recorded."""
    patcher = Patcher(program_modules())
    probe = Probe()
    if tracer is None:
        probe.install(patcher, workload)
    else:
        install_tracer(patcher, tracer, probe)
    walls, unit_times, checks = [], [], []
    units = skipped = 0
    try:
        while True:
            mark = len(probe.starts)
            t0 = time.perf_counter()
            outcome = workload.run(state)
            t1 = time.perf_counter()
            walls.append(t1 - t0)
            # a unit lasts from its start to the next one's, the last to the run's end
            bounds = probe.starts[mark:] + [t1] if workload.unit_boundary else [t0, t1]
            unit_times += [b - a for a, b in zip(bounds, bounds[1:])]
            units += outcome["units"]
            skipped += outcome["skipped"]
            with patcher.suspended():
                checks.append(workload.check(state, outcome))
                if between is not None:
                    between(sum(walls))
            if sum(walls) + walls[-1] > budget:
                break
    finally:
        patcher.restore()
    return {"walls": walls, "unit_times": unit_times, "units": units, "skipped": skipped,
            "checks": checks, "hmc": probe.hmc}


def operations(*windows):
    """(attempted, failed, names of failed checks) over measured windows:
    CD-1 iterations or commands, HMC proposals and output checks."""
    attempted = failed = 0
    failed_checks = set()
    for w in windows:
        results = [(name, ok) for run in w["checks"] for name, ok in run.items()]
        attempted += w["units"] + sum(s.proposed for s in w["hmc"]) + len(results)
        failed += w["skipped"] + sum(s.divergences for s in w["hmc"])
        failed += sum(not ok for _, ok in results)
        failed_checks.update(name for name, ok in results if not ok)
    return attempted, failed, sorted(failed_checks)


def end_to_end(workload, setup_times, window, attempted, failed):
    tail_value, tail_pct, n = tail(window["unit_times"])
    run_time = sum(window["walls"])
    metrics = {
        "setup_s": statistics.median(setup_times),
        "wall_s": statistics.median(window["walls"]),
        "unit_ms.p50": 1000 * statistics.median(window["unit_times"]),
        "unit_ms.tail": 1000 * tail_value,
        "patches_per_s": workload.rows_per_unit * window["units"] / run_time,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        "ok_frac": 1.0 - failed / attempted,
    }
    details = {"unit": workload.unit, "tail_percentile": tail_pct, "unit_samples": n,
               "fixed_runs": len(window["walls"]), "setup_times_s": setup_times}
    return metrics, details


def sampler_health(hmc):
    proposed = sum(s.proposed for s in hmc)
    delta_h = [dh for s in hmc for _, _, dh in s.trace if math.isfinite(dh)]
    return {
        "sampler.acceptance": ratio(sum(s.accepted for s in hmc), proposed),
        "sampler.divergences": sum(s.divergences for s in hmc),
        "sampler.mean_delta_h": statistics.fmean(delta_h) if delta_h else 0.0,
        "sampler.step_size": hmc[-1].current_step_size if hmc else 0.0,
    }


def layer_metrics(tracer, window, units):
    """Per-layer numbers of one traced window. Self times are per unit of
    work; a layer the workload never calls reads 0."""
    rows = summarize(tracer.spans)
    empty = {"calls": 0, "total_s": 0.0, "self_s": 0.0}
    row = lambda name: rows.get(name, empty)                      # noqa: E731
    counter = lambda name, key: tracer.counters.get(name, {}).get(key, 0)  # noqa: E731
    m = {}
    for k in kernels.KERNELS:
        r = row(k)
        m[f"{k}.calls"] = r["calls"]
        m[f"{k}.calls_per_unit"] = ratio(r["calls"], units)
        m[f"{k}.self_ms"] = ratio(1000 * r["self_s"], units)
        m[f"{k}.ms_per_call"] = ratio(1000 * r["total_s"], r["calls"])
        m[f"{k}.gflop_per_s_computed"] = ratio(counter(k, "flops") / 1e9, r["total_s"])
        m[f"{k}.mflop_per_call_computed"] = ratio(counter(k, "flops") / 1e6, r["calls"])
        m[f"{k}.mb_per_call_computed"] = ratio(counter(k, "bytes") / 1e6, r["calls"])
    for name in PER_UNIT_SELF:
        m[f"{name}.self_ms"] = ratio(1000 * row(name)["self_s"], units)
    sims = sum(len(s.trace) for s in window["hmc"])
    m["sampler.hmc_chain.ms_per_sim"] = ratio(1000 * row("sampler.hmc_chain")["total_s"], sims)
    m.update(sampler_health(window["hmc"]))
    m["params.save_checkpoint.bytes"] = ratio(counter("params.save_checkpoint", "bytes"),
                                              row("params.save_checkpoint")["calls"])
    for name in ("container.write_container", "container.read_container"):
        m[f"{name}.mb_per_s"] = ratio(counter(name, "bytes") / 1e6, row(name)["total_s"])
    busy, wall = worker_busy(tracer.spans, POOL_SPAN)
    m["cli.preprocess_pool.speedup"] = ratio(busy, wall)
    return m


def pool_verdict(workload, state):
    """Traced preprocess commands at MPK_THREADS=1 and 2, alternating."""
    saved = os.environ.get("MPK_THREADS")
    seen = {1: [], 2: []}
    try:
        for _ in range(POOL_VERDICT_ROUNDS):
            for threads in (1, 2):
                os.environ["MPK_THREADS"] = str(threads)
                tracer = Tracer()
                window = measure(workload, state, 0.0, tracer)
                rows = summarize(tracer.spans)
                busy, wall = worker_busy(tracer.spans, POOL_SPAN)
                seen[threads].append((1000 * rows["preprocess.extract_patches"]["self_s"],
                                      ratio(busy, wall), 1000 * wall, window))
    finally:
        if saved is None:
            os.environ.pop("MPK_THREADS", None)
        else:
            os.environ["MPK_THREADS"] = saved
    m, windows = {}, []
    for threads, runs in seen.items():
        m[f"preprocess.extract_patches.self_ms_mpk{threads}"] = statistics.median(
            r[0] for r in runs)
        m[f"cli.preprocess_pool.speedup_mpk{threads}"] = statistics.median(r[1] for r in runs)
        m[f"cli.preprocess_pool.wall_ms_mpk{threads}"] = statistics.median(r[2] for r in runs)
        windows += [r[3] for r in runs]
    return m, windows


POOL_VERDICT_NAMES = tuple(f"{stem}_mpk{t}" for t in (1, 2) for stem in (
    "preprocess.extract_patches.self_ms", "cli.preprocess_pool.speedup",
    "cli.preprocess_pool.wall_ms"))


# --- environment ---------------------------------------------------------

def cpu_model():
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def git_commit():
    head = ROOT / ".git" / "HEAD"
    if not head.is_file():
        return None
    ref = head.read_text().strip()
    if ref.startswith("ref: "):
        target = ROOT / ".git" / ref[5:]
        return target.read_text().strip() if target.is_file() else ref
    return ref


def environment():
    digest = hashlib.sha256()
    for path in sorted((ROOT / "src").rglob("*.py")):
        digest.update(path.relative_to(ROOT).as_posix().encode())
        digest.update(path.read_bytes())
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "nproc": os.cpu_count(),
        "threads": {var: os.environ.get(var) for var in THREAD_VARS},
        "numpy": np.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "cpu": cpu_model(),
        "python": platform.python_version(),
        "commit": git_commit(),
        "src_sha256": digest.hexdigest(),
    }


# --- entry point ---------------------------------------------------------

def run(workload, seed, seconds, traced, work):
    setup_times = []

    def set_up():
        where = work / f"setup{len(setup_times)}"
        where.mkdir()
        t0 = time.perf_counter()
        state = workload.setup(where, seed)
        setup_times.append(time.perf_counter() - t0)
        return state, where

    state, _ = set_up()         # the only set-up the fixed runs use
    if not traced:
        def spare_setups(used, finished=False):
            # spread over the run, so their median sees the machine as it does
            due = SETUP_REPEATS if finished else 1 + int((SETUP_REPEATS - 1) * used / seconds)
            while len(setup_times) < min(due, SETUP_REPEATS):
                shutil.rmtree(set_up()[1])

        window = measure(workload, state, seconds, between=spare_setups)
        spare_setups(seconds, finished=True)
        attempted, failed, failed_checks = operations(window)
        metrics, details = end_to_end(workload, setup_times, window, attempted, failed)
        return metrics, details, attempted, failed, failed_checks

    plain = measure(workload, state, seconds / 2)
    tracer = Tracer()
    window = measure(workload, state, seconds / 2, tracer)
    metrics = layer_metrics(tracer, window, window["units"])
    metrics["trace.units"] = window["units"]
    metrics["trace.overhead"] = (statistics.median(window["walls"])
                                 / statistics.median(plain["walls"]))
    windows = [plain, window]
    verdict = dict.fromkeys(POOL_VERDICT_NAMES, 0.0)
    if workload.name == "preprocess":
        found, extra = pool_verdict(workload, state)
        verdict.update(found)
        windows += extra
    metrics.update(verdict)
    attempted, failed, failed_checks = operations(*windows)
    details = {"unit": workload.unit, "fixed_runs_untraced": len(plain["walls"]),
               "fixed_runs_traced": len(window["walls"]), "spans": len(tracer.spans)}
    return metrics, details, attempted, failed, failed_checks


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--work", required=True, help="scratch directory for this run")
    args = parser.parse_args(argv)

    work = Path(tempfile.mkdtemp(prefix=f"{args.workload}-", dir=args.work))
    try:
        metrics, details, attempted, failed, failed_checks = run(
            WORKLOADS[args.workload], args.seed, args.seconds, bool(args.trace), work)
    finally:
        shutil.rmtree(work, ignore_errors=True)
    print(json.dumps({"workload": args.workload, "correct": not failed_checks,
                      "failed_checks": failed_checks, "attempted": attempted,
                      "failed": failed, "metrics": metrics, "details": details,
                      "environment": environment()}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
