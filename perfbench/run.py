"""Benchmark for mpkrbm: one command, three workloads, each in its own process.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

NAME is one of the workloads in BENCHMARK.json, or `all` to run every one
in turn. With `--trace 0` the last line of standard output is one JSON
object holding every end-to-end metric of BENCHMARK.json; with `--trace 1`
it holds every per-layer metric instead. Lines before it print each
metric by name, with its unit. Every run also checks the program's
outputs; a failed check sets "correct" to false and the exit code to 1.
Full results, with the environment of the run, go to .bench_out/.

This file imports no numpy: it pins the BLAS and worker thread counts in
the child's environment, so they hold before numpy loads there.
"""

import argparse
import json
import os
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = ROOT / ".bench_out"
CHILD_TIMEOUT_S = 170

# workload -> (BLAS threads, MPK_THREADS), chosen for a 2-core machine
THREADS = {
    "train-paper": (2, 2),
    "sample-paper": (1, 1),
    "preprocess": (2, 2),
}


def child_env(workload):
    blas, mpk = THREADS[workload]
    env = dict(os.environ)
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = str(blas)
    env["MPK_THREADS"] = str(mpk)
    src = str(ROOT / "src")
    env["PYTHONPATH"] = src + os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else src
    return env


def run_child(workload, seed, seconds, trace):
    OUT.mkdir(exist_ok=True)
    cmd = [sys.executable, str(HERE / "child.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace),
           "--work", str(OUT)]
    proc = subprocess.run(cmd, cwd=ROOT, env=child_env(workload), stdout=subprocess.PIPE,
                          text=True, timeout=CHILD_TIMEOUT_S)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise RuntimeError(f"{workload}: child exited with code {proc.returncode}")
    return json.loads(lines[-1])


def report(result, spec, trace):
    """Print each metric with its unit; return {name: {"value", "unit"}}."""
    wanted = spec["per_layer"] if trace else spec["end_to_end"]
    got = result["metrics"]
    missing = [m["name"] for m in wanted if m["name"] not in got]
    if missing:
        raise RuntimeError(f"{result['workload']}: no value for {missing}")
    out = {}
    for m in wanted:
        value = got[m["name"]]
        out[m["name"]] = {"value": value, "unit": m["unit"]}
        note = ""
        if m["name"] == "unit_ms.tail":
            d = result["details"]
            note = f"  (p{d['tail_percentile']} of {d['unit_samples']} {d['unit']}s)"
        print(f"{result['workload']}  {m['name']} = {value:.6g} {m['unit']}{note}")
    env = result["environment"]
    verdict = "pass" if result["correct"] else "FAIL " + ",".join(result["failed_checks"])
    print(f"{result['workload']}  checks {verdict}; "
          f"threads {env['threads']}; nproc {env['nproc']}; numpy {env['numpy']}; "
          f"{env['blas']}; {env['cpu']}; src sha256 {env['src_sha256'][:12]}")
    return out


def main(argv=None):
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    names = [w["name"] for w in spec["workloads"]]
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=names + ["all"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "mpkrbm" / "__init__.py").is_file():
        print(f"error: no mpkrbm sources under {ROOT / 'src'}", file=sys.stderr)
        return 2

    workloads = names if args.workload == "all" else [args.workload]
    final = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for workload in workloads:
        try:
            result = run_child(workload, args.seed, args.seconds, args.trace)
            metrics = report(result, spec, args.trace)
        except (RuntimeError, subprocess.TimeoutExpired, ValueError) as exc:
            print(f"error: {exc}", file=sys.stderr)
            return 2
        path = OUT / f"{workload}-seed{args.seed}-trace{args.trace}.json"
        path.write_text(json.dumps(result, indent=1) + "\n")
        final["correct"] = final["correct"] and result["correct"]
        final["attempted"] += result["attempted"]
        final["failed"] += result["failed"]
        prefix = "" if len(workloads) == 1 else workload + "."
        final["metrics"].update({prefix + k: v for k, v in metrics.items()})
    print(json.dumps(final))
    return 0 if final["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
