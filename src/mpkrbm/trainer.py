"""CD-1 training: stochastic gradient steps on the free-energy difference
between data and one-simulation HMC samples started at the data, with the
constraint projection applied after every update and a staged schedule
that brings parameter groups online sequentially.
"""

import warnings
from dataclasses import dataclass, field, replace
from functools import lru_cache

import numpy as np

from . import blas
from .errors import DataError, NumericError, ParameterError
from .grad import grad_params_from_forward
from .params import LEARNABLE_TENSORS, banded_pattern, project_constraints, save_checkpoint
from .sampler import Chain, HmcConfig, hmc_chain

ALL_TENSORS = frozenset(LEARNABLE_TENSORS)


@dataclass
class TrainerConfig:
    lr_C: float = 0.15
    lr_P: float = 0.0015
    lr_W: float = 0.015
    lr_Q: float = 0.1
    lr_R: float = 0.0015
    lr_b_c: float = 0.0015
    lr_b_m: float = 0.0075
    lr_b_k: float = 0.0005
    lr_b_v: float = 0.0015
    batch_size: int = 128
    stage_iterations: tuple = (10000, 30000, 20000, 20000, 40000)
    checkpoint_every: int = 1000
    seed: int = 0

    def lr_for(self, name):
        return getattr(self, f"lr_{name}")

    def validate(self):
        for name in LEARNABLE_TENSORS:
            if not 0.0 <= self.lr_for(name) < np.inf:
                raise ParameterError(f"learning rate for {name} must be finite and >= 0")
        for name in ("batch_size", "checkpoint_every"):
            if getattr(self, name) < 1:
                raise ParameterError(f"{name} must be >= 1")


@dataclass(frozen=True)
class StageSpec:
    """One schedule stage: which tensors adapt, whether the phase units
    participate (the one owner of the stage -> model mapping, read by `train`
    and `cli.cmd_sample`), and tensors reset to their banded pattern at entry."""

    name: str
    iterations: int
    trainable: frozenset
    phase_enabled: bool
    overrides: tuple = ()


def default_stages(stage_iterations=TrainerConfig.stage_iterations):
    """Five-stage schedule: subspace model with fixed pooling, full
    subspace model, phase projections with fixed banded coupling,
    coupling weights, then everything jointly."""
    it = list(stage_iterations)
    if len(it) != 5:
        raise ParameterError(f"expected 5 stage iteration counts, got {len(it)}")
    base = frozenset({"C", "W", "b_c", "b_m", "b_v"})
    return [
        StageSpec("subspace-fixed-pool", it[0], base, False, overrides=("P",)),
        StageSpec("subspace-full", it[1], base | {"P"}, False),
        StageSpec("phase-projections", it[2], frozenset({"Q", "b_k"}), True, overrides=("R",)),
        StageSpec("phase-coupling", it[3], frozenset({"R", "b_k"}), True),
        StageSpec("joint", it[4], ALL_TENSORS, True),
    ]


def apply_stage_overrides(params, stage):
    """Reset the named tensors to their banded identity pattern."""
    return replace(params, **{name: banded_pattern(name, getattr(params, name).shape)
                              for name in stage.overrides})


@dataclass
class StepMetrics:
    iteration: int
    stage: int
    f_data: float
    f_model: float
    rejection_rate: float
    step_size: float
    divergences: int
    mean_delta_h: float
    grad_norms: dict = field(default_factory=dict)

    CSV_COLUMNS = ("iteration", "stage", "f_data", "f_model", "rejection_rate",
                   "step_size", "divergences", "mean_delta_h") + tuple(
                       f"grad_norm_{n}" for n in LEARNABLE_TENSORS)

    @classmethod
    def csv_header(cls):
        return ",".join(cls.CSV_COLUMNS)

    def csv_line(self):
        fields = [str(self.iteration), str(self.stage), f"{self.f_data:.8g}",
                  f"{self.f_model:.8g}", f"{self.rejection_rate:.6g}",
                  f"{self.step_size:.8g}", str(self.divergences), f"{self.mean_delta_h:.8g}"]
        fields += [f"{self.grad_norms.get(n, 0.0):.6g}" for n in LEARNABLE_TENSORS]
        return ",".join(fields)


def cd1_step(batch, params, config, hmc_config, step_size, rng,
             trainable=ALL_TENSORS, iteration=0, stage=0):
    """One CD-1 update of the model `params`. Returns (new params, new step size, metrics).

    The data's float64 forward, with F, is run once (`sampler.Chain.at`)
    and serves both HMC, whose simulation starts there, and the data's
    parameter gradient. The simulation returns the model rows' forward:
    the proposal's, with each rejected row taken from the data's, which is
    what a forward of the model rows would compute, bit for bit. Both
    parameter gradients run their backward passes from these two forwards
    (`grad.grad_params_from_forward`, {name: gradient}), and f_data and
    f_model are the means of their F (`fw.f`), taken before each forward
    is freed. The data's Chain carries no dF/dv, so an iteration of K
    leapfrog steps runs K + 1 float32 forwards and 2 float64 ones, 23 at
    the default K = 20.

    A NaN anywhere in the proposed update aborts the step with the
    original params intact.
    """
    batch = np.atleast_2d(np.asarray(batch, dtype=np.float64))
    if batch.shape[0] == 0:
        raise DataError("empty batch")
    data = Chain.at(batch, params)
    model, stats = hmc_chain(data, params, hmc_config, 1, rng=rng, step_size=step_size)

    g_data, f_data = grad_params_from_forward(data.forward, params), data.forward.f
    del data                    # each forward is freed once its pass is done
    g_model, f_model = grad_params_from_forward(model.forward, params), model.forward.f
    del model

    updates, norms = {}, {}
    for name in LEARNABLE_TENSORS:     # in the arrays of the two passes
        diff = g_model[name]
        diff -= g_data[name]
        norms[name] = float(np.sqrt(np.sum(diff * diff)))
        if name in trainable:
            proposed = np.multiply(diff, config.lr_for(name), out=g_data[name])
            proposed += getattr(params, name)
            if not np.all(np.isfinite(proposed)):
                raise NumericError(f"cd1_step: non-finite update for tensor {name}")
            updates[name] = proposed

    new_params = project_constraints(replace(params, **updates))
    metrics = StepMetrics(
        iteration=iteration, stage=stage,
        f_data=float(np.mean(f_data)), f_model=float(np.mean(f_model)),
        rejection_rate=stats.rejection_rate, step_size=stats.current_step_size,
        divergences=stats.divergences, mean_delta_h=stats.mean_delta_h, grad_norms=norms)
    return new_params, stats.current_step_size, metrics


@lru_cache(maxsize=4)
def _epoch_permutation(seed, n, epoch):
    """Row order of one pass over n patches (read-only: the cache shares it)."""
    rng = np.random.default_rng(np.random.SeedSequence([seed, 0x5E4F, epoch]))
    perm = rng.permutation(n)
    perm.flags.writeable = False
    return perm


class PatchCycler:
    """Deterministic minibatch stream: one seeded permutation per pass
    over the data, reshuffled on exhaustion; resumable from a global
    iteration index alone."""

    def __init__(self, patches, batch_size, seed):
        self.patches = np.asarray(patches, dtype=np.float64)
        if self.patches.ndim != 2 or self.patches.shape[0] == 0:
            raise DataError("patch dataset must be a nonempty 2-D matrix")
        self.batch_size = batch_size
        self.seed = seed

    def batch(self, iteration):
        n = self.patches.shape[0]
        start = iteration * self.batch_size
        stop = start + self.batch_size
        rows = [_epoch_permutation(self.seed, n, e)[max(start - e * n, 0):stop - e * n]
                for e in range(start // n, (stop - 1) // n + 1)]
        return self.patches[np.concatenate(rows)]


def train(patches, config, stages, hmc_config=None, checkpoint_path=None,
          metrics_path=None, start_iteration=0, initial_params=None,
          initial_step_size=None, max_iterations=None, log_fn=None):
    """Run the staged schedule over a patch matrix.

    A stage without `phase_enabled` steps `params.without_phase()`; the full
    params take its updates and keep their phase family for later stages.

    Resume by passing the checkpointed params, iteration and step size;
    the minibatch stream and per-iteration RNGs are derived from the
    config seed and the global iteration index, so a resumed run matches
    an uninterrupted one exactly. The whole run is checked before any file
    is written, a resume past the schedule's end included; a run from
    iteration 0 starts a new metrics file, a resumed one appends to it. The
    final checkpoint records the stage of the run's last iteration, or
    stage 0 for an empty schedule, also when no iteration is left to run.
    """
    hmc_config = hmc_config or HmcConfig()
    if initial_params is None:
        raise DataError("train() needs initial params (use init_params)")
    config.validate()
    hmc_config.validate()
    for stage in stages:
        if stage.iterations < 0:
            raise ParameterError(f"stage {stage.name} iterations must be >= 0, "
                                 f"got {stage.iterations}")
    if not 0 < initial_params.alpha < np.inf:
        raise ParameterError(f"alpha must be finite and > 0, got {initial_params.alpha}")
    L = initial_params.subspace_dim
    if L != 2 and any(stage.phase_enabled and stage.iterations > 0 for stage in stages):
        raise ParameterError(f"phase stages need subspace dimension L = 2, got L={L}")
    cycler = PatchCycler(patches, config.batch_size, config.seed)
    boundaries = np.cumsum([s.iterations for s in stages])
    total = int(boundaries[-1])
    if start_iteration > total:     # its checkpoint would be rewritten at `total`
        raise ParameterError(f"the run resumes at iteration {start_iteration}, past the end "
                             f"of its {total}-iteration schedule")
    if max_iterations is not None:
        total = min(total, start_iteration + max_iterations)

    params = initial_params
    step_size = hmc_config.step_size if initial_step_size is None else initial_step_size

    metrics_fh = None if metrics_path is None else _open_metrics(metrics_path, start_iteration)

    history = []
    consecutive_failures = 0
    # the stage a run that stops at `total` ends in: that of iteration total - 1
    stage_idx = int(np.searchsorted(boundaries, total - 1, side="right")) if total else 0
    try:
        for it in range(start_iteration, total):
            stage_idx = int(np.searchsorted(boundaries, it, side="right"))
            stage = stages[stage_idx]
            stage_start = 0 if stage_idx == 0 else int(boundaries[stage_idx - 1])
            if it == stage_start:
                params = apply_stage_overrides(params, stage)
                if log_fn:
                    log_fn(f"stage {stage_idx} ({stage.name}) starting at iteration {it}")

            rng = np.random.default_rng(np.random.SeedSequence([config.seed, 0x4C1D, it]))
            batch = cycler.batch(it)
            model = params if stage.phase_enabled else params.without_phase()
            try:
                new, step_size, metrics = cd1_step(batch, model, config, hmc_config, step_size,
                                                   rng, trainable=stage.trainable,
                                                   iteration=it, stage=stage_idx)
                params = new if model is params else replace(new, Q=params.Q, R=params.R,
                                                             b_k=params.b_k)
                consecutive_failures = 0
            except NumericError as exc:
                consecutive_failures += 1
                warnings.warn(f"iteration {it}: {exc}; parameters unchanged")
                if consecutive_failures > 10:
                    raise
                continue

            history.append(metrics)
            if metrics_fh:
                metrics_fh.write(metrics.csv_line() + "\n")
            if checkpoint_path and (it + 1) % config.checkpoint_every == 0:
                if metrics_fh:
                    metrics_fh.flush()      # a resume from here needs every earlier row
                _write_checkpoint(params, checkpoint_path, it + 1, stage_idx, step_size)
    finally:
        if metrics_fh:
            metrics_fh.close()

    if checkpoint_path:
        _write_checkpoint(params, checkpoint_path, total, stage_idx, step_size)
    return params, history


def _open_metrics(path, start_iteration):
    """The metrics file, open for the rows from `start_iteration` on: a new
    file with its header for a run from 0 or a resumed run whose file is
    missing or empty (one resumed into a new directory); for any other
    resumed run, the existing file cut to its header and the whole rows
    before `start_iteration`, so rows an interrupted run wrote after its
    checkpoint, or a row torn by a kill, are not kept. An existing file
    whose header is not `StepMetrics.csv_header()` (one written with other
    columns) is a DataError, and is left as it was."""
    lines = []
    if start_iteration > 0:
        try:
            with open(path) as fh:
                lines = fh.readlines()
        except FileNotFoundError:
            pass
    header = StepMetrics.csv_header()
    if not lines:
        kept = [header + "\n"]
    elif lines[0].rstrip("\n") != header:
        raise DataError(f"{path}: header is not {header!r}; resume into a new output "
                        "directory")
    else:
        try:
            kept = lines[:1] + [line for line in lines[1:]
                                if line.endswith("\n")
                                and int(line.split(",", 1)[0]) < start_iteration]
        except ValueError as exc:
            raise DataError(f"{path}: a row does not start with an iteration number") from exc
    fh = open(path, "w")
    fh.writelines(kept)
    return fh


def _write_checkpoint(params, path, iteration, stage, step_size):
    state = {"iteration": float(iteration), "stage": float(stage), "step_size": float(step_size)}
    threads = blas.threads()
    if threads is not None:     # exact resume needs the same count (`blas`)
        state["blas_threads"] = float(threads)
    save_checkpoint(params, state, path)
