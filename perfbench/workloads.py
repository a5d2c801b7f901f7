"""The three benchmark workloads: set-up, one fixed run, and output checks.

Each workload is a closed loop with one client: the child process repeats
the fixed run back to back. Inputs come from the seed given on the
command line.
"""

import contextlib
import hashlib
import io
import itertools
import shutil
from dataclasses import replace

import numpy as np

from mpkrbm import cli, container, params, pnm, preprocess, sampler, trainer
from mpkrbm.config import RunConfig, save_run_config
from mpkrbm.errors import FormatError
from mpkrbm.synth import (
    VonMisesPair,
    quadrature_gabor_basis,
    render_quadrature_patches,
    sample_coupled_phases,
)

PAPER_SHAPE = params.ModelShape(200, 256, 2, 256, 100, 256, 256)
COLUMN_TOL = 1e-9


def quiet(fn, *args, **kwargs):
    """Call a CLI entry point with its progress lines discarded."""
    with contextlib.redirect_stdout(io.StringIO()):
        return fn(*args, **kwargs)


class Workload:
    name = ""
    unit = ""                 # what one unit of work is
    unit_boundary = None      # (module, attribute) whose call starts a unit
    rows_per_unit = 1

    def setup(self, work, seed):
        """Build inputs and warm up; return the state the fixed run uses."""
        raise NotImplementedError

    def run(self, state):
        """One fixed run. Returns a dict with "units" (units attempted),
        "skipped" (units the program gave up on) and what `check` needs."""
        raise NotImplementedError

    def check(self, state, outcome):
        """name -> passed for every output check of one fixed run."""
        raise NotImplementedError


# --- training ------------------------------------------------------------

def whitened_synthetic(seed, count, dim):
    """Quadrature-pair patches on a 16x16 grid, PCA-whitened to `dim` dims.

    fit_whitening orders components by variance, so keeping the first
    `dim` columns is PCA whitening to exactly that dimension.
    """
    n_pairs = 64
    basis = quadrature_gabor_basis(16, n_pairs, seed)
    coupled = [(2 * k, 2 * k + 1, VonMisesPair(3.0, 0.5 * k)) for k in range(8)]
    phases = sample_coupled_phases(coupled, n_pairs, count, seed + 1)
    amps = np.random.default_rng(seed + 2).lognormal(0.0, 0.4, size=(count, n_pairs))
    raw = render_quadrature_patches(phases, amps, basis, 0.05, seed + 3)
    return preprocess.fit_whitening(raw, 1.0).apply(raw)[:, :dim]


class TrainPaper(Workload):
    """One joint stage at the paper-default shape."""

    name = "train-paper"
    unit = "CD-1 iteration"
    unit_boundary = (trainer, "cd1_step")
    rows_per_unit = 128       # the batch size
    iterations = 4

    def setup(self, work, seed):
        patches = whitened_synthetic(seed, 4096, PAPER_SHAPE.n_visible)
        init = params.init_params(PAPER_SHAPE, seed)
        config = trainer.TrainerConfig(batch_size=self.rows_per_unit, seed=seed,
                                       checkpoint_every=10 ** 9)
        joint = trainer.default_stages()[-1]
        state = {
            "patches": patches, "init": init, "config": config,
            "hmc": sampler.HmcConfig(seed=seed),
            "stages": [replace(joint, iterations=self.iterations)],
            "checkpoint": str(work / "checkpoint.mpk"),
        }
        trainer.train(patches, config, [replace(joint, iterations=1)],
                      hmc_config=state["hmc"], initial_params=init)
        return state

    def run(self, state):
        final, history = trainer.train(
            state["patches"], state["config"], state["stages"],
            hmc_config=state["hmc"], checkpoint_path=state["checkpoint"],
            initial_params=state["init"])
        # train() skips an iteration whose update is non-finite (NumericError)
        return {"units": self.iterations, "skipped": self.iterations - len(history),
                "params": final, "history": history}

    def check(self, state, outcome):
        p, history, expected = outcome["params"], outcome["history"], outcome["units"]
        p_norms = np.linalg.norm(p.P, axis=0)
        lengths = np.linalg.norm(p.C, axis=0)
        saved, opt = params.load_checkpoint(state["checkpoint"])
        same = all(np.array_equal(getattr(saved, n), getattr(p, n))
                   for n in params.LEARNABLE_TENSORS) and saved.alpha == p.alpha
        return {
            "params_finite": bool(p.all_finite()),
            "P_nonpositive": bool(np.all(p.P <= 0)),
            "P_unit_columns": bool(np.all(np.abs(p_norms[p_norms > 0] - 1.0) < COLUMN_TOL)),
            "R_unit_columns": bool(np.all(np.abs(np.linalg.norm(p.R, axis=0) - 1.0)
                                          < COLUMN_TOL)),
            "C_common_length": bool(np.max(np.abs(lengths - lengths.mean())) < COLUMN_TOL),
            "history_length": len(history) == expected,
            "checkpoint_roundtrip": same and opt.get("iteration") == expected,
        }


# --- sampling ------------------------------------------------------------

class SamplePaper(Workload):
    """`mpkrbm sample` on a paper-shape checkpoint, 64 chains."""

    name = "sample-paper"
    unit = "HMC simulation"
    unit_boundary = (sampler, "leapfrog")
    rows_per_unit = 64        # the chains, fixed by cmd_sample
    simulations = 10

    def setup(self, work, seed):
        checkpoint = work / "checkpoint.mpk"
        params.save_checkpoint(params.init_params(PAPER_SHAPE, seed), {
            "iteration": 0.0, "stage": 0.0, "step_size": sampler.HmcConfig().step_size,
        }, checkpoint)
        state = {"argv": ["sample", "--resume", str(checkpoint), "--seed", str(seed),
                          "--out", str(work / "out")],
                 "samples": work / "out" / "samples.mpk"}
        quiet(cli.main, state["argv"] + ["--iterations", "1"])
        return state

    def run(self, state):
        code = quiet(cli.main, state["argv"] + ["--iterations", str(self.simulations)])
        return {"units": self.simulations, "skipped": 0, "code": code}

    def check(self, state, outcome):
        samples = container.read_container(state["samples"])["samples"]
        return {
            "exit_code": outcome["code"] == 0,
            "samples_shape": samples.shape == (self.rows_per_unit, PAPER_SHAPE.n_visible),
            "samples_finite": bool(np.all(np.isfinite(samples))),
        }


# --- preprocessing -------------------------------------------------------

def pink_noise_image(rng, size):
    """A colour image with a 1/f amplitude spectrum, scaled to 0..255."""
    spectrum = np.fft.fft2(rng.standard_normal((size, size, 3)), axes=(0, 1))
    fy = np.fft.fftfreq(size)[:, None]
    fx = np.fft.fftfreq(size)[None, :]
    radius = np.hypot(fx, fy)
    radius[0, 0] = 1.0
    img = np.real(np.fft.ifft2(spectrum / radius[..., None], axes=(0, 1)))
    return (img - img.min()) / (img.max() - img.min()) * 255.0


def output_digest(directory):
    """SHA-256 over the names and bytes of every file in `directory`."""
    digest = hashlib.sha256()
    for path in sorted(directory.iterdir()):
        digest.update(path.name.encode())
        digest.update(path.read_bytes())
    return digest.hexdigest()


class Preprocess(Workload):
    """`mpkrbm preprocess` on colour PPM images, 16x16x3 patches."""

    name = "preprocess"
    unit = "preprocess command"
    images = 8
    image_size = 160
    rows_per_unit = 8000      # patches per command

    def setup(self, work, seed):
        rng = np.random.default_rng(seed)
        (work / "images").mkdir()
        for i in range(self.images):
            pnm.write_pnm(work / "images" / f"img{i:02d}.ppm",
                          pink_noise_image(rng, self.image_size))
        config = RunConfig()
        config.paths.data_dir = str(work / "images")
        config.data.patch_size = 16
        config.data.n_patches = self.rows_per_unit
        config.data.variance_fraction = 0.99
        save_run_config(config, work / "run.cfg")
        state = {"argv": ["preprocess", "--config", str(work / "run.cfg"),
                          "--seed", str(seed)],
                 "work": work, "runs": itertools.count()}
        shutil.rmtree(self.run(state)["out"])
        return state

    def run(self, state):
        # A fresh output directory per command, removed once checked: ext4
        # starts writeback when a truncated file is closed, and the next
        # truncate of the same file waits for it, so rewriting one file in
        # a loop would time the disk, not the command.
        out = state["work"] / f"out{next(state['runs'])}"
        code = quiet(cli.main, state["argv"] + ["--out", str(out)])
        return {"units": 1, "skipped": 0, "code": code, "out": out}

    def check(self, state, outcome):
        try:
            out = {"exit_code": outcome["code"] == 0}
            digest = output_digest(outcome["out"])
            # The first command of a set-up is checked in full. The command
            # is deterministic for fixed inputs and seed, whatever
            # MPK_THREADS says, so later ones must match it byte for byte.
            if "verified" not in state:
                out.update(self._check(outcome))
                if all(out.values()):
                    state["verified"] = digest
            else:
                out["same_as_verified"] = digest == state["verified"]
            return out
        finally:
            shutil.rmtree(outcome["out"], ignore_errors=True)

    def _check(self, outcome):
        out = {}
        try:
            patches = container.read_container(outcome["out"] / "patches.mpk")["patches"]
            out["patches_crc"] = True
        except (FormatError, OSError):
            out["patches_crc"] = False
            return out
        whitening = preprocess.WhiteningTransform.load(outcome["out"] / "whitening.mpk")
        white = whitening.apply(patches)
        centered = white - white.mean(axis=0)
        cov = centered.T @ centered / (len(white) - 1)
        out["patch_count"] = patches.shape == (self.rows_per_unit, 16 * 16 * 3)
        out["whitened_identity"] = bool(
            np.linalg.norm(cov - np.eye(whitening.n_components)) < 1e-6)
        return out


WORKLOADS = {w.name: w for w in (TrainPaper(), SamplePaper(), Preprocess())}
