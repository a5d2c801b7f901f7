"""Command-line entry points. Each command takes only the flags it reads:

  preprocess --config --seed --out: extract patches and fit whitening.
  train --config --seed --resume --iterations --out: the staged CD-1 schedule from the
      --resume checkpoint (default: a new model), for at most --iterations more iterations.
  check --seed --json: gradient, enumeration and sampler self-checks.
  sample --config --seed --resume --iterations --out: --iterations HMC simulations
      (default 100) from the --resume checkpoint, of the model its stage trains.
  synth --config --seed --out: a phase-coupled synthetic dataset.
  export --config --resume --out --what: the --what mosaics of the --resume checkpoint.

A command writes to --out (default: [paths] out_dir) and reads [paths] or
--resume; the patches, whitening and checkpoint files default to
<out_dir>/<name>.mpk. --seed sets the seed of the command's config section.
A resumed `train` matches an uninterrupted run bit for bit, metrics.csv too,
when it runs with the same BLAS thread count: the checkpoint records the
count (when numpy's BLAS is OpenBLAS) and `train --resume` warns when it
differs. Likewise `preprocess` writes whitening.mpk bit for bit again only
at the same BLAS thread count (`preprocess.fit_whitening`).

`sample` runs the model its checkpoint's stage trains (`cmd_sample`): HMC
keeps the density its Metropolis test evaluates, so phase units that a
stage 0-1 model was not trained with would draw from another model.

`check` prints its records (`CHECKS`) with --json as {"checks": {name:
record}, "passed"}, else one `name: ok|FAIL <record as JSON>` line each.
`export` builds every mosaic before it writes one: an unknown target, one
the checkpoint cannot show (C1, amplitude, phase or P at L = 1) or an
[export] max_columns below 1 writes nothing.

Run files are checked where they are loaded, before anything is written:
`params.load_checkpoint` rejects a non-finite tensor, an alpha, L or opt.*
entry that is not a finite scalar, alpha <= 0, an opt.iteration that is not
a whole number >= 0 and an opt.step_size <= 0; `WhiteningTransform.load` a
non-finite tensor, a scalar entry that is not rank 0 and mean, forward and
inverse shapes that disagree; `train` a patch file whose `patches` tensor
is not a matrix or holds a non-finite value (`container.check_entries`,
which scans it in blocks). Each is a DataError naming the file and the
entry. `preprocess` ends in a ParameterError when its patch matrix cannot be
allocated or is larger than the machine's physical memory (where
`os.sysconf` reports it: numpy would map such a matrix lazily and fail
only while filling it), before the extraction pool starts; `train` when its
[trainer] batch_size asks for a batch matrix larger than that memory.

Memory: `preprocess` holds the patch matrix, plus one centered copy while the
whitening covariance is formed; `train` centers the raw patches in place and
holds them beside the whitened matrix only while it is formed. `sample`
holds one float64 copy of the tensors its chain reads and the float32 copy
`sampler.hmc_chain` takes its gradients from, with a banded P or R as its
diagonal (`energy.Diagonal`) in both: for a stage 0-1 checkpoint, C, P, W
and the biases b_c, b_m and b_v, with no phase family
(`ModelParams.without_phase`), dropped once `load_checkpoint` has checked
it; for a stage 2-4 checkpoint, or one that records no stage, every tensor.

Exit codes: 0 ok, 1 check failure, 2 data error or bad command line, 3 shape
or parameter error, 4 missing dependency file. MPK_THREADS caps only the
patch-extraction pool of `preprocess`; BLAS threads follow OPENBLAS_NUM_THREADS
or OMP_NUM_THREADS as set before the process starts.
"""

import argparse
import json
import os
import sys
import warnings
from collections import namedtuple
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path

import numpy as np

from . import blas, container, pnm, synth, viz
from .config import RunConfig, load_run_config
from .energy import Diagonal
from .errors import DataError, MissingFileError, MpkError, ParameterError, ShapeError
from .grad import check_enumeration, check_gradients
from .params import init_params, load_checkpoint
from .preprocess import WhiteningTransform, extract_patches, fit_whitening
from .sampler import Chain, HmcStats, check_gaussian, hmc_chain
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


def physical_memory():
    """The machine's physical memory in bytes, or None where `os.sysconf`
    does not report it."""
    try:
        pages, page_size = os.sysconf("SC_PHYS_PAGES"), os.sysconf("SC_PAGE_SIZE")
    except (AttributeError, ValueError, OSError):   # no sysconf, or not these names
        return None
    return pages * page_size if pages > 0 and page_size > 0 else None


def _fits_in_memory(shape):
    """Whether a float64 matrix of `shape` fits in physical memory (True
    where it is not reported)."""
    memory = physical_memory()
    return memory is None or 8 * shape[0] * shape[1] <= memory


def _load_config(args, required=True):
    """The run configuration of --config (the defaults where the command may
    run without one), with --seed set in the command's own config section."""
    if not args.config and required:
        raise MissingFileError("this command needs --config PATH")
    config = load_run_config(args.config) if args.config else RunConfig()
    section = COMMANDS[args.command].seed_section
    if section and args.seed is not None:
        getattr(config, section).seed = args.seed
    for name in ("data", "trainer", "hmc", "synth"):
        seed = getattr(config, name).seed
        if seed < 0:
            raise ParameterError(f"[{name}] seed must be >= 0, got {seed}")
    return config


def _out_dir(args, config):
    """Where the command writes: --out, else [paths] out_dir; created."""
    out_dir = Path(args.out or config.paths.out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    return out_dir


def _existing(path, what):
    """`path` if it names a regular file; a directory counts as missing."""
    if not Path(path).is_file():
        raise MissingFileError(f"{what} not found: {path}")
    return path


def _extract_all(data, data_dir):
    """The first data.n_patches patches of the images in `data_dir`, image k's
    in row block k, and their channel count. Each worker writes its image's
    patches straight into the one patch matrix: no per-image copy is made."""
    images = sorted(p for p in data_dir.glob("*") if p.suffix.lower() in (".ppm", ".pgm"))
    if not images:
        raise DataError(f"no PPM/PGM images found in {data_dir}")
    by_channels = {pnm.read_channels(path): path.name for path in images}
    if len(by_channels) > 1:
        raise DataError(f"images in {data_dir} mix channel counts: " + ", ".join(
            f"{name} has {ch}" for ch, name in sorted(by_channels.items())))
    (channels,) = by_channels

    per_image = int(np.ceil(data.n_patches / len(images)))
    shape = (len(images) * per_image, data.patch_size ** 2 * channels)
    try:
        if not _fits_in_memory(shape):
            raise MemoryError   # numpy would map it lazily; the machine could not back it
        patches = np.empty(shape)
    except (MemoryError, ValueError):   # ValueError: past numpy's index range
        raise ParameterError(f"[data] n_patches = {data.n_patches} needs a {shape[0]} x "
                             f"{shape[1]} patch matrix ({8 * shape[0] * shape[1]:.3g} bytes), "
                             "which cannot be allocated") from None

    def pull(idx):
        extract_patches(pnm.read_pnm(images[idx]), data.patch_size, per_image, data.seed + idx,
                        out=patches[idx * per_image:(idx + 1) * per_image])

    with ThreadPoolExecutor(max_workers=max_workers()) as pool:
        list(pool.map(pull, range(len(images))))     # raises the first worker's error
    return patches[:data.n_patches], channels


def cmd_preprocess(args):
    config = _load_config(args)
    config.data.validate()
    data_dir = Path(config.paths.data_dir)
    patches, channels = _extract_all(config.data, data_dir)
    try:
        whitening = fit_whitening(patches, config.data.variance_fraction,
                                  patch_size=config.data.patch_size, channels=channels)
    except DataError as err:
        raise DataError(f"{data_dir}: {err}") from None

    out_dir = _out_dir(args, config)
    patches_path = config.paths.run_file("patches", out_dir)
    container.write_container(patches_path, {"patches": patches})
    whitening.save(config.paths.run_file("whitening", out_dir))
    print(f"patches: {patches.shape[0]} x {patches.shape[1]} -> {patches_path}")
    print(f"whitened dimensionality D = {whitening.n_components}")
    print(f"retained variance fraction = {whitening.variance_fraction:.6f}")
    return 0


def cmd_train(args):
    config = _load_config(args)
    patches_path = _existing(config.paths.run_file("patches"), "patch file")
    # the raw patches are centered in place and die once whitened: only this
    # name refers to them
    patches = container.read_container(patches_path).get("patches")
    if patches is None or patches.ndim != 2:
        raise DataError(f"{patches_path}: patch file holds no 2-D 'patches' tensor")
    container.check_entries(patches_path, {"patches": patches}, arrays=("patches",))
    whitening_path = config.paths.run_file("whitening")
    if Path(whitening_path).exists():     # present but not a regular file: MissingFileError
        whitening = WhiteningTransform.load(_existing(whitening_path, "whitening file"))
        patches = whitening.apply(patches, overwrite=True)
    n_visible = patches.shape[1]
    if config.model.n_visible and config.model.n_visible != n_visible:
        raise ShapeError(
            f"config says n_visible={config.model.n_visible} but patches have D={n_visible}")

    stages = default_stages(config.trainer.stage_iterations)
    if args.resume:
        params, opt = load_checkpoint(_existing(args.resume, "checkpoint"))
        recorded, threads = opt.get("blas_threads"), blas.threads()
        if None not in (recorded, threads) and recorded != threads:
            warnings.warn(f"{args.resume} was written with {recorded:g} BLAS threads, this run "
                          f"has {threads}: it will not match an uninterrupted run bit for bit")
    else:   # a new model, with the state of iteration 0
        params, opt = init_params(config.model.shape_for(n_visible), config.trainer.seed,
                                  alpha=config.model.alpha), {}
    if params.C.shape[0] != n_visible:
        raise ShapeError(
            f"checkpoint D={params.C.shape[0]} does not match patches D={n_visible}")
    batch = config.trainer.batch_size
    if not _fits_in_memory((batch, n_visible)):     # the minibatch stream would hang first
        raise ParameterError(f"[trainer] batch_size = {batch} needs a {batch} x {n_visible} "
                             f"batch matrix ({8 * batch * n_visible:.3g} bytes), which "
                             "cannot be allocated")
    start_iteration = int(opt.get("iteration", 0))

    out_dir = _out_dir(args, config)
    checkpoint_path = config.paths.run_file("checkpoint", out_dir)
    params, history = train(
        patches, config.trainer, stages, hmc_config=config.hmc,
        checkpoint_path=checkpoint_path, metrics_path=str(out_dir / "metrics.csv"),
        start_iteration=start_iteration, initial_params=params,
        initial_step_size=opt.get("step_size", config.hmc.step_size),
        max_iterations=args.iterations, log_fn=print,
    )
    final = history[-1].iteration + 1 if history else start_iteration
    print(f"trained through iteration {final}; checkpoint -> {checkpoint_path}")
    return 0


# the self-checks of `check`, each a function of a seed that returns its record
CHECKS = {"gradients": check_gradients, "free_energy_enumeration": check_enumeration,
          "hmc_gaussian": check_gaussian}


def cmd_check(args):
    seed = {} if args.seed is None else {"seed": args.seed}
    checks = {name: check(**seed) for name, check in CHECKS.items()}
    passed = all(record["passed"] for record in checks.values())
    if args.json:
        print(json.dumps({"checks": checks, "passed": passed}, indent=2))
    else:
        for name, record in checks.items():
            print(f"{name}: {'ok' if record['passed'] else 'FAIL'} {json.dumps(record)}")
    return 0 if passed else 1


def cmd_sample(args):
    """HMC samples of the model the checkpoint's stage trains (its
    `phase_enabled`): `params.without_phase()` in stages 0-1, else every
    hidden family, also for a checkpoint that records no stage."""
    if not args.resume:
        raise MissingFileError("sample needs --resume CHECKPOINT")
    checkpoint_path = _existing(args.resume, "checkpoint")
    config = _load_config(args, required=False)
    params, opt = load_checkpoint(checkpoint_path)
    stages = default_stages()
    stage = opt.get("stage", len(stages) - 1)
    if stage not in range(len(stages)):     # a float: 0.5 and NaN are not in it
        raise DataError(f"{checkpoint_path}: recorded stage {stage:g} is not an integer in "
                        f"0..{len(stages) - 1}")
    if not stages[int(stage)].phase_enabled:    # the chain reads no phase tensor: hold none
        params = params.without_phase()
    params.P, params.R = Diagonal.of(params.P), Diagonal.of(params.R)
    rng = np.random.default_rng(config.hmc.seed)
    v = rng.standard_normal((64, params.C.shape[0])) * 0.1
    step = opt.get("step_size", config.hmc.step_size)

    print(HmcStats.csv_header())
    chain, stats = hmc_chain(Chain.at(v, params), params, config.hmc,
                             args.iterations, rng=rng, step_size=step)
    for line in stats.csv_lines():
        print(line)

    out_path = _out_dir(args, config) / "samples.mpk"
    container.write_container(out_path, {"samples": chain.rows})
    print(f"samples -> {out_path}")
    return 0


def cmd_synth(args):
    config = _load_config(args)
    config.synth.validate()
    pairs = config.synth.parse_pairs()
    out_path = _out_dir(args, config) / "synthetic.mpk"
    synth.write_coupled_dataset(
        out_path,
        patch_size=config.synth.patch_size,
        n_subspaces=config.synth.n_subspaces,
        pairs=pairs,
        count=config.synth.n_patches,
        amplitude=config.synth.amplitude,
        noise_sigma=config.synth.noise_sigma,
        seed=config.synth.seed,
    )
    print(f"synthetic dataset -> {out_path}")
    return 0


def cmd_export(args):
    config = _load_config(args)
    config.export.validate()
    checkpoint_path = _existing(args.resume or config.paths.run_file("checkpoint"), "checkpoint")
    whitening_path = _existing(config.paths.run_file("whitening"), "whitening file")
    params, _ = load_checkpoint(checkpoint_path)
    whitening = WhiteningTransform.load(whitening_path)
    if whitening.patch_size == 0:
        raise DataError("whitening file carries no patch geometry")
    if whitening.n_components != params.C.shape[0]:
        raise ShapeError(f"whitening file has D={whitening.n_components} components but "
                         f"checkpoint has D={params.C.shape[0]}")

    # every mosaic is built before the first is written: a bad target writes nothing
    what = args.what or config.export.what
    mosaics = {target: viz.export_mosaic(target, params, whitening, config.export.max_columns)
               for target in (viz.EXPORT_TARGETS if what == "all" else (what,))}
    out_dir = _out_dir(args, config)
    for target, image in mosaics.items():
        path = out_dir / f"filters_{target}.{'ppm' if whitening.channels == 3 else 'pgm'}"
        pnm.write_pnm(path, image)
        print(f"{target} -> {path}")
    return 0


FLAGS = {
    "--config": dict(help="run configuration file"),
    "--seed": dict(type=int, help="override the seed"),
    "--resume": dict(help="checkpoint to start from"),
    "--iterations": dict(type=int, help="iterations (train) or HMC simulations (sample)"),
    "--out": dict(help="output directory (default: [paths] out_dir)"),
    "--json": dict(action="store_true", help="machine-readable output"),
    "--what": dict(choices=("all",) + viz.EXPORT_TARGETS,
                   help="mosaics to write (default: [export] what)"),
}

# seed_section: the config section whose seed --seed sets
Command = namedtuple("Command", "run help flags seed_section defaults", defaults=(None, {}))
COMMANDS = {
    "preprocess": Command(cmd_preprocess, "extract patches and fit whitening",
                          "--config --seed --out", "data"),
    "train": Command(cmd_train, "run the staged CD-1 schedule",
                     "--config --seed --resume --iterations --out", "trainer"),
    "check": Command(cmd_check, "gradient, enumeration and sampler self-checks",
                     "--seed --json"),
    "sample": Command(cmd_sample, "draw HMC samples from a checkpoint",
                      "--config --seed --resume --iterations --out", "hmc", {"iterations": 100}),
    "synth": Command(cmd_synth, "generate a phase-coupled synthetic dataset",
                     "--config --seed --out", "synth"),
    "export": Command(cmd_export, "write filter mosaics as PPM/PGM",
                      "--config --resume --out --what"),
}


def build_parser():
    parser = argparse.ArgumentParser(prog="mpkrbm",
                                     description="Factorized third-order Boltzmann machines "
                                                 "with subspace pooling and phase coupling")
    sub = parser.add_subparsers(dest="command", required=True)
    for name, command in COMMANDS.items():
        command_parser = sub.add_parser(name, help=command.help)
        for flag in command.flags.split():
            command_parser.add_argument(flag, **FLAGS[flag])
        command_parser.set_defaults(**command.defaults)
    return parser


def main(argv=None):
    args = build_parser().parse_args(argv)
    try:
        if getattr(args, "iterations", None) is not None and args.iterations < 1:
            raise ParameterError(f"--iterations must be at least 1, got {args.iterations}")
        if getattr(args, "seed", None) is not None and args.seed < 0:
            raise ParameterError(f"--seed must be >= 0, got {args.seed}")
        return COMMANDS[args.command].run(args)
    except (MpkError, FileNotFoundError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return getattr(exc, "exit_code", 4)


if __name__ == "__main__":
    sys.exit(main())
