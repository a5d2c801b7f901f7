"""Command-line entry points.

Commands: preprocess, train, check, sample, synth, export. Exit codes:
0 ok, 1 check failure, 2 data error, 3 shape error, 4 missing dependency
file. MPK_THREADS caps only the patch-extraction pool of `preprocess`.
BLAS threads follow OPENBLAS_NUM_THREADS / OMP_NUM_THREADS, which must be
set before the process starts: numpy loads its BLAS when `mpkrbm` is
imported, and later changes to them have no effect.
"""

import argparse
import json
import os
import sys
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path

import numpy as np

from . import container, pnm, synth, viz
from .config import RunConfig, load_run_config
from .energy import free_energy, total_energy
from .errors import DataError, MissingFileError, MpkError, ParameterError, ShapeError
from .grad import check_gradients, random_tiny_params
from .params import init_params, load_checkpoint
from .preprocess import WhiteningTransform, extract_patches, fit_whitening
from .sampler import HmcConfig, HmcStats, gaussian_moment_probe, hmc_chain
from .trainer import default_stages, train


def max_workers():
    """Patch-extraction pool size: the CPU count, capped by MPK_THREADS."""
    cap = os.environ.get("MPK_THREADS")
    n = os.cpu_count() or 1
    if not cap:
        return n
    try:
        value = int(cap)
    except ValueError:
        value = 0
    if value < 1:
        raise ParameterError(f"MPK_THREADS must be an integer >= 1, got {cap!r}")
    return min(n, value)


def _load_config(args, required=True):
    if args.config:
        return load_run_config(args.config)
    if required:
        raise MissingFileError("this command needs --config PATH")
    return RunConfig()


def cmd_preprocess(args):
    config = _load_config(args)
    seed = config.data.seed if args.seed is None else args.seed
    data_dir = Path(config.paths.data_dir)
    images = sorted(p for p in data_dir.glob("*") if p.suffix.lower() in (".ppm", ".pgm"))
    if not images:
        raise DataError(f"no PPM/PGM images found in {data_dir}")

    per_image = int(np.ceil(config.data.n_patches / len(images)))

    def pull(pair):
        idx, path = pair
        return extract_patches(pnm.read_pnm(path), config.data.patch_size,
                               per_image, seed + idx)

    with ThreadPoolExecutor(max_workers=max_workers()) as pool:
        chunks = list(pool.map(pull, enumerate(images)))
    area = config.data.patch_size ** 2
    by_channels = {chunk.shape[1] // area: path.name for chunk, path in zip(chunks, images)}
    if len(by_channels) > 1:
        raise DataError(f"images in {data_dir} mix channel counts: " + ", ".join(
            f"{name} has {ch}" for ch, name in sorted(by_channels.items())))
    (channels,) = by_channels
    patches = np.concatenate(chunks, axis=0)[:config.data.n_patches]
    whitening = fit_whitening(patches, config.data.variance_fraction,
                              patch_size=config.data.patch_size, channels=channels)

    out_dir = Path(args.out or config.paths.out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    patches_path = config.paths.patches or str(out_dir / "patches.mpk")
    whitening_path = config.paths.whitening or str(out_dir / "whitening.mpk")
    container.write_container(patches_path, {"patches": patches})
    whitening.save(whitening_path)
    print(f"patches: {patches.shape[0]} x {patches.shape[1]} -> {patches_path}")
    print(f"whitened dimensionality D = {whitening.n_components}")
    print(f"retained variance fraction = {whitening.variance_fraction:.6f}")
    return 0


def _load_patch_matrix(config):
    patches_path = config.paths.patches or str(Path(config.paths.out_dir) / "patches.mpk")
    if not Path(patches_path).exists():
        raise MissingFileError(f"patch file not found: {patches_path}")
    patches = container.read_container(patches_path)["patches"]
    whitening_path = config.paths.whitening or str(Path(config.paths.out_dir) / "whitening.mpk")
    if Path(whitening_path).exists():
        whitening = WhiteningTransform.load(whitening_path)
        patches = whitening.apply(patches)
    return patches


def cmd_train(args):
    config = _load_config(args)
    if args.seed is not None:
        config.trainer.seed = args.seed
    patches = _load_patch_matrix(config)
    n_visible = patches.shape[1]
    if config.model.n_visible and config.model.n_visible != n_visible:
        raise ShapeError(
            f"config says n_visible={config.model.n_visible} but patches have D={n_visible}")

    stages = default_stages(config.trainer.stage_iterations)
    if args.resume:
        if not Path(args.resume).exists():
            raise MissingFileError(f"checkpoint not found: {args.resume}")
        params, opt = load_checkpoint(args.resume)
        start_iteration = int(opt.get("iteration", 0))
        step_size = opt.get("step_size", config.hmc.step_size)
        if params.C.shape[0] != n_visible:
            raise ShapeError(
                f"checkpoint D={params.C.shape[0]} does not match patches D={n_visible}")
    else:
        shape = config.model.shape_for(n_visible)
        params = init_params(shape, config.trainer.seed, alpha=config.model.alpha)
        start_iteration = 0
        step_size = None

    out_dir = Path(args.out or config.paths.out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    checkpoint_path = config.paths.checkpoint or str(out_dir / "checkpoint.mpk")
    params, history = train(
        patches, config.trainer, stages, hmc_config=config.hmc,
        checkpoint_path=checkpoint_path, metrics_path=str(out_dir / "metrics.csv"),
        start_iteration=start_iteration, initial_params=params,
        initial_step_size=step_size, max_iterations=args.iterations,
        log_fn=print,
    )
    final = history[-1].iteration + 1 if history else start_iteration
    print(f"trained through iteration {final}; checkpoint -> {checkpoint_path}")
    return 0


def cmd_check(args):
    report = {"checks": {}, "passed": True}

    grad_report = check_gradients(seed=0 if args.seed is None else args.seed)
    report["checks"]["gradients"] = {
        "passed": grad_report.passed,
        "max_rel_err": grad_report.max_rel_err,
        "tolerance": grad_report.tolerance,
    }

    # free energy against exhaustive enumeration on a tiny model
    rng = np.random.default_rng(1234 if args.seed is None else args.seed)
    worst = 0.0
    for trial in range(20):
        params = random_tiny_params(trial + 1)
        v = rng.standard_normal(params.C.shape[0])
        worst = max(worst, _enumeration_gap(v, params))
    report["checks"]["free_energy_enumeration"] = {
        "passed": bool(worst < 1e-10), "max_abs_err": worst, "tolerance": 1e-10,
    }

    # HMC on the standard Gaussian reached when every parameter is zero
    probe = gaussian_moment_probe(n_chains=200, burn=350, keep=60,
                                  seed=0 if args.seed is None else args.seed)
    ok = (np.all(probe["mean_abs"] <= probe["mean_4se"])
          and np.all(probe["var_abs_err"] <= probe["var_4se"])
          and 0.0 <= probe["rejection_rate"] <= 0.35)
    report["checks"]["hmc_gaussian"] = {
        "passed": bool(ok),
        "max_mean_err": float(probe["mean_abs"].max()),
        "max_var_err": float(probe["var_abs_err"].max()),
        "rejection_rate": probe["rejection_rate"],
    }

    report["passed"] = all(c["passed"] for c in report["checks"].values())
    if args.json:
        print(json.dumps(report, indent=2))
    else:
        for line in grad_report.lines():
            print(line)
        for name, result in report["checks"].items():
            print(f"{name}: {'ok' if result['passed'] else 'FAIL'}")
    return 0 if report["passed"] else 1


def _enumeration_gap(v, params):
    shape = params.shape
    n_bits = shape.n_pool_hidden + shape.n_mean_hidden + shape.n_phase_hidden
    states = np.array(np.meshgrid(*[[0.0, 1.0]] * n_bits, indexing="ij"))
    states = states.reshape(n_bits, -1).T
    h_p = states[:, :shape.n_pool_hidden]
    h_m = states[:, shape.n_pool_hidden:shape.n_pool_hidden + shape.n_mean_hidden]
    h_k = states[:, shape.n_pool_hidden + shape.n_mean_hidden:]
    energies = total_energy(v, h_p, h_m, h_k, params)
    emin = energies.min()
    brute = emin - np.log(np.sum(np.exp(-(energies - emin))))
    return abs(float(free_energy(v, params)) - float(brute))


def cmd_sample(args):
    if not args.resume:
        raise MissingFileError("sample needs --resume CHECKPOINT")
    if not Path(args.resume).exists():
        raise MissingFileError(f"checkpoint not found: {args.resume}")
    config = _load_config(args, required=False)
    params, opt = load_checkpoint(args.resume)
    hmc_config = config.hmc
    if args.seed is not None:
        hmc_config.seed = args.seed
    n_sims = args.iterations or 100
    rng = np.random.default_rng(hmc_config.seed)
    v = rng.standard_normal((64, params.C.shape[0])) * 0.1
    step = opt.get("step_size", hmc_config.step_size)

    print(HmcStats.csv_header())
    v, stats = hmc_chain(v, params, hmc_config, n_sims, rng=rng, step_size=step)
    for line in stats.csv_lines():
        print(line)

    out_dir = Path(args.out or config.paths.out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    out_path = out_dir / "samples.mpk"
    container.write_container(out_path, {"samples": v})
    print(f"samples -> {out_path}")
    return 0


def cmd_synth(args):
    config = _load_config(args)
    seed = config.synth.seed if args.seed is None else args.seed
    out_dir = Path(args.out or config.paths.out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    out_path = out_dir / "synthetic.mpk"
    synth.write_coupled_dataset(
        out_path,
        patch_size=config.synth.patch_size,
        n_subspaces=config.synth.n_subspaces,
        pairs=config.synth.parse_pairs(),
        count=config.synth.n_patches,
        amplitude=config.synth.amplitude,
        noise_sigma=config.synth.noise_sigma,
        seed=seed,
    )
    print(f"synthetic dataset -> {out_path}")
    return 0


def cmd_export(args):
    config = _load_config(args)
    checkpoint_path = args.resume or config.paths.checkpoint \
        or str(Path(config.paths.out_dir) / "checkpoint.mpk")
    if not Path(checkpoint_path).exists():
        raise MissingFileError(f"checkpoint not found: {checkpoint_path}")
    whitening_path = config.paths.whitening or str(Path(config.paths.out_dir) / "whitening.mpk")
    if not Path(whitening_path).exists():
        raise MissingFileError(f"whitening file required for export: {whitening_path}")
    params, _ = load_checkpoint(checkpoint_path)
    whitening = WhiteningTransform.load(whitening_path)
    if whitening.patch_size == 0:
        raise DataError("whitening file carries no patch geometry")

    out_dir = Path(args.out or config.paths.out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    what = args.what or config.export.what
    wanted = ("C0", "C1", "W", "amplitude", "phase", "P", "Q", "R") if what == "all" else (what,)
    color = whitening.channels == 3
    max_cols = config.export.max_columns

    for item in wanted:
        if item in ("C0", "C1", "amplitude", "phase"):
            kind = {"C0": "component0", "C1": "component1"}.get(item, item)
            img = viz.mosaic(viz.subspace_tiles(params, whitening, kind=kind))
        elif item == "W":
            img = viz.mosaic(viz.pixel_tiles(params.W[:, :max_cols ** 2].T, whitening))
        elif item in ("P", "Q", "R"):
            rows = viz.group_tiles(params, whitening, item, max_columns=max_cols)
            img = viz.rows_to_mosaic(rows)
        else:
            raise DataError(f"unknown export target {item!r}")
        path = out_dir / f"filters_{item}.{'ppm' if color else 'pgm'}"
        pnm.write_pnm(path, img)
        print(f"{item} -> {path}")
    return 0


def build_parser():
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--config", default=None, help="run configuration file")
    common.add_argument("--seed", type=int, default=None, help="override the config seed")
    common.add_argument("--resume", default=None, help="checkpoint to resume/sample from")
    common.add_argument("--iterations", type=int, default=None,
                        help="cap or count of iterations/simulations")
    common.add_argument("--out", default=None, help="output directory")
    common.add_argument("--json", action="store_true", help="machine-readable output")

    parser = argparse.ArgumentParser(prog="mpkrbm",
                                     description="Factorized third-order Boltzmann machines "
                                                 "with subspace pooling and phase coupling")
    sub = parser.add_subparsers(dest="command", required=True)
    sub.add_parser("preprocess", parents=[common], help="extract patches and fit whitening")
    sub.add_parser("train", parents=[common], help="run the staged CD-1 schedule")
    sub.add_parser("check", parents=[common], help="gradient, enumeration and sampler self-checks")
    sub.add_parser("sample", parents=[common], help="draw HMC samples from a checkpoint")
    sub.add_parser("synth", parents=[common], help="generate a phase-coupled synthetic dataset")
    export = sub.add_parser("export", parents=[common], help="write filter mosaics as PPM/PGM")
    export.add_argument("--what", default=None,
                        choices=["all", "C0", "C1", "W", "amplitude", "phase", "P", "Q", "R"])
    return parser


COMMANDS = {
    "preprocess": cmd_preprocess,
    "train": cmd_train,
    "check": cmd_check,
    "sample": cmd_sample,
    "synth": cmd_synth,
    "export": cmd_export,
}


def main(argv=None):
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return COMMANDS[args.command](args)
    except MpkError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return exc.exit_code
    except FileNotFoundError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 4


if __name__ == "__main__":
    sys.exit(main())
