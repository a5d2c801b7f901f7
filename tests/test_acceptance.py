"""Acceptance criteria, one test per criterion, each printing a PASS/FAIL
line with the measured quantity next to its required tolerance."""

import itertools
import time

import numpy as np
import pytest

from mpkrbm.energy import (
    free_energy,
    hidden_conditionals,
    phase_coupling_matrix,
    pool_drive,
    softplus,
    total_energy,
)
from mpkrbm.grad import (
    LEARNABLE_TENSORS,
    finite_diff_param,
    finite_diff_v,
    grad_free_energy_params,
    grad_free_energy_v,
    random_tiny_params,
)
from mpkrbm.params import ModelShape, init_params
from mpkrbm.preprocess import fit_whitening, normalize_visible
from mpkrbm.sampler import HmcConfig, gaussian_moment_probe, leapfrog
from mpkrbm.synth import (
    VonMisesPair,
    quadrature_gabor_basis,
    render_quadrature_patches,
    sample_coupled_phases,
)
from mpkrbm.trainer import StageSpec, TrainerConfig, default_stages, train
from mpkrbm.viz import ranked_offblock_pairs


def report(criterion, passed, detail):
    line = f"ACCEPTANCE {criterion}: {'PASS' if passed else 'FAIL'} ({detail})"
    print(line)
    assert passed, line


def random_tiny_shape(rng):
    return ModelShape(
        n_visible=int(rng.integers(2, 5)),
        n_subspaces=int(rng.integers(1, 3)),
        subspace_dim=2,
        n_pool_hidden=int(rng.integers(1, 4)),
        n_mean_hidden=int(rng.integers(1, 4)),
        n_phase_factors=int(rng.integers(1, 4)),
        n_phase_hidden=int(rng.integers(1, 4)),
    )


def test_c01_free_energy_enumeration_oracle():
    t0 = time.time()
    rng = np.random.default_rng(101)
    worst = 0.0
    for trial in range(100):
        shape = random_tiny_shape(rng)
        params = random_tiny_params(int(rng.integers(0, 2**31)), shape=shape)
        v = rng.standard_normal(shape.n_visible)

        bits = shape.n_pool_hidden + shape.n_mean_hidden + shape.n_phase_hidden
        states = np.array(list(itertools.product((0.0, 1.0), repeat=bits)))
        h_p = states[:, :shape.n_pool_hidden]
        h_m = states[:, shape.n_pool_hidden:shape.n_pool_hidden + shape.n_mean_hidden]
        h_k = states[:, shape.n_pool_hidden + shape.n_mean_hidden:]
        energies = total_energy(v, h_p, h_m, h_k, params)
        low = energies.min()
        brute = low - np.log(np.sum(np.exp(-(energies - low))))
        worst = max(worst, abs(float(free_energy(v, params)) - float(brute)))
    elapsed = time.time() - t0
    report("criterion 1 (free-energy oracle)",
           worst < 1e-10 and elapsed < 10.0,
           f"max |gap| = {worst:.3e} < 1e-10 over 100 models, {elapsed:.1f}s")


def test_c02_gradient_correctness():
    t0 = time.time()
    worst = {}
    rng = np.random.default_rng(202)
    for seed in range(10):
        params = random_tiny_params(seed)
        D = params.C.shape[0]
        for _ in range(5):
            v = rng.standard_normal(D)
            a, fd = grad_free_energy_v(v, params), finite_diff_v(v, params)
            denom = np.maximum(np.maximum(np.abs(a), np.abs(fd)), 1e-8)
            worst["v"] = max(worst.get("v", 0.0), float(np.max(np.abs(a - fd) / denom)))
        batch = rng.standard_normal((3, D))
        analytic = grad_free_energy_params(batch, params)
        for name in LEARNABLE_TENSORS:
            fd = finite_diff_param(batch, params, name)
            a = analytic[name]
            denom = np.maximum(np.maximum(np.abs(a), np.abs(fd)), 1e-8)
            worst[name] = max(worst.get(name, 0.0), float(np.max(np.abs(a - fd) / denom)))
    elapsed = time.time() - t0
    bad = {k: v for k, v in worst.items() if v >= 1e-5}
    report("criterion 2 (gradient correctness)",
           not bad and elapsed < 60.0,
           f"max rel err = {max(worst.values()):.3e} < 1e-5 over 10 models, {elapsed:.1f}s")


def test_c03_hmc_exactness_on_gaussian():
    t0 = time.time()
    probe = gaussian_moment_probe(n_chains=500, burn=400, keep=100, seed=303, dim=10)
    elapsed = time.time() - t0
    mean_ok = bool(np.all(probe["mean_abs"] <= probe["mean_4se"]))
    var_ok = bool(np.all(probe["var_abs_err"] <= probe["var_4se"]))
    rej_ok = abs(probe["rejection_rate"] - 0.10) <= 0.05
    report("criterion 3 (HMC exactness, 50k samples)",
           mean_ok and var_ok and rej_ok and probe["n_samples"] >= 50000 and elapsed < 120,
           f"max|mean| {probe['mean_abs'].max():.4f} <= 4SE {probe['mean_4se'].max():.4f}, "
           f"max|var-1| {probe['var_abs_err'].max():.4f} <= 4SE {probe['var_4se'].max():.4f}, "
           f"rejection {probe['rejection_rate']:.3f} in 0.10+-0.05, {elapsed:.1f}s")


def test_c04_leapfrog_reversibility():
    t0 = time.time()
    rng = np.random.default_rng(404)
    worst = 0.0
    for seed in range(10):
        params = random_tiny_params(seed + 50)
        grad_fn = lambda x: grad_free_energy_v(x, params)
        v0 = rng.standard_normal((4, 4))
        p0 = rng.standard_normal((4, 4))
        v1, p1, g1 = leapfrog(v0, p0, grad_fn(v0), grad_fn, 0.01, 20)
        v2, p2, _ = leapfrog(v1, -p1, g1, grad_fn, 0.01, 20)
        worst = max(worst, float(np.max(np.abs(v2 - v0))),
                    float(np.max(np.abs(-p2 - p0))))
    elapsed = time.time() - t0
    report("criterion 4 (leapfrog reversibility)",
           worst < 1e-8 and elapsed < 5.0,
           f"max return error = {worst:.3e} < 1e-8, {elapsed:.1f}s")


def make_synthetic(ps, F, pairs, count, seed, amplitude=1.0, noise=0.02,
                   random_amps=False):
    basis = quadrature_gabor_basis(ps, F, seed=seed)
    phases = sample_coupled_phases(pairs, F, count, seed=seed + 1)
    amps = amplitude
    if random_amps:
        amps = np.random.default_rng(seed + 5).lognormal(0.0, 0.4, size=(count, F))
    patches = render_quadrature_patches(phases, amps, basis, noise, seed=seed + 2)
    return basis, patches


def test_c05_constraint_conformance_after_training():
    t0 = time.time()
    pairs = [(0, 3, VonMisesPair(3.0, 0.0))]
    _, patches = make_synthetic(6, 4, pairs, 4000, seed=55, random_amps=True)
    shape = ModelShape(36, 4, 2, 4, 3, 6, 3)
    params = init_params(shape, seed=55)
    config = TrainerConfig(batch_size=32, seed=55, checkpoint_every=10**9,
                           stage_iterations=(100, 100, 100, 100, 100))
    params, history = train(patches, config, default_stages(config.stage_iterations),
                            hmc_config=HmcConfig(seed=55), initial_params=params)
    assert len(history) == 500
    elapsed = time.time() - t0

    p_ok = bool(np.all(params.P <= 0))
    p_norms = np.linalg.norm(params.P, axis=0)
    p_unit = bool(np.all(np.abs(p_norms[p_norms > 0] - 1.0) < 1e-9))
    r_unit = bool(np.all(np.abs(np.linalg.norm(params.R, axis=0) - 1.0) < 1e-9))
    lengths = np.linalg.norm(params.C, axis=0)
    c_common = float(np.max(np.abs(lengths - lengths.mean())))
    report("criterion 5 (constraints after 500 CD-1 steps)",
           p_ok and p_unit and r_unit and c_common < 1e-9 and elapsed < 300,
           f"P<=0 {p_ok}, unit P/R columns {p_unit}/{r_unit}, "
           f"C length spread {c_common:.2e} < 1e-9, {elapsed:.0f}s")


TRUE_PAIRS = [(1, 2, VonMisesPair(3.0, 0.0)), (4, 7, VonMisesPair(3.0, np.pi / 2))]


@pytest.fixture(scope="module")
def phase_recovery_run():
    ps, F = 8, 8
    basis, patches = make_synthetic(ps, F, TRUE_PAIRS, 22000, seed=66)
    train_set, held = patches[:20000], patches[20000:]

    shape = ModelShape(ps * ps, F, 2, 8, 4, 16, 4)
    params = init_params(shape, seed=66)
    params.C = basis.transpose(2, 0, 1).copy()     # fixed to the generating basis

    config = TrainerConfig(batch_size=128, seed=66, checkpoint_every=10**9)
    stage = StageSpec("phase-layer", 2500, frozenset({"Q", "R", "b_k"}), True)
    t0 = time.time()
    trained, history = train(train_set, config, [stage],
                             hmc_config=HmcConfig(seed=66), initial_params=params)
    return {"params": trained, "held": held, "elapsed": time.time() - t0,
            "history": history}


def test_c06_phase_coupling_recovery(phase_recovery_run):
    run = phase_recovery_run
    probs = hidden_conditionals(run["held"], run["params"]).p_hk
    h_map = (probs.mean(axis=0) > 0.5).astype(float)
    K = phase_coupling_matrix(h_map, run["params"])
    ranked = ranked_offblock_pairs(K, 2)
    top2 = {ranked[0][0], ranked[1][0]}
    truth = {(min(i, j), max(i, j)) for i, j, _ in TRUE_PAIRS}
    report("criterion 6 (phase-coupling recovery)",
           top2 == truth and run["elapsed"] < 600,
           f"top-2 off-block pairs {sorted(top2)} == true {sorted(truth)}, "
           f"|K| margin {ranked[1][1]:.2f} vs next {ranked[2][1]:.2f}, "
           f"{run['elapsed']:.0f}s for 2500 iterations")


def test_c07_model_vs_shuffled_separation(phase_recovery_run):
    run = phase_recovery_run
    held = run["held"]
    rng = np.random.default_rng(77)
    perm = np.array([rng.permutation(held.shape[1]) for _ in range(held.shape[0])])
    shuffled = np.take_along_axis(held, perm, axis=1)
    f_structured = free_energy(held, run["params"])
    f_shuffled = free_energy(shuffled, run["params"])
    gap = float(f_shuffled.mean() - f_structured.mean())
    se = float(np.sqrt(f_structured.var(ddof=1) / len(f_structured)
                       + f_shuffled.var(ddof=1) / len(f_shuffled)))
    report("criterion 7 (structured vs pixel-permuted separation)",
           gap >= 3 * se,
           f"gap {gap:.3f} = {gap / se:.1f} SE >= 3 SE")


def log_partition_phase_off(params, n_draws, seed):
    """log Z of the model with its phase units off, and the estimate's SE.

    Without the pooling family, exp(-F) is a mixture of 2^M Gaussians
    N(b_v + W h, I) with log weights b_m.h + 1/2 ||b_v + W h||^2 (plus the
    common log (2 pi)^(D/2)), so that part of log Z is exact. The pooling
    factor exp(sum softplus(pool_drive(u))) sees only u = v/||v||, so it is
    bounded; its mean under the mixture is estimated from `n_draws` draws.
    """
    D, M = params.W.shape
    h = np.array(list(itertools.product((0.0, 1.0), repeat=M)))
    mu = params.b_v + h @ params.W.T
    log_w = h @ params.b_m + 0.5 * np.sum(mu * mu, axis=1)
    log_mix = np.logaddexp.reduce(log_w)
    rng = np.random.default_rng(seed)
    comp = rng.choice(len(log_w), size=n_draws, p=np.exp(log_w - log_mix))
    v = mu[comp] + rng.standard_normal((n_draws, D))
    g = softplus(pool_drive(normalize_visible(v), params)).sum(axis=1)
    w = np.exp(g - g.max())
    log_z = 0.5 * D * np.log(2 * np.pi) + log_mix + g.max() + np.log(w.mean())
    return float(log_z), float(w.std(ddof=1) / (w.mean() * np.sqrt(n_draws)))


def test_log_partition_phase_off_matches_quadrature():
    rng = np.random.default_rng(808)
    for trial in range(5):
        shape = ModelShape(2, int(rng.integers(1, 3)), 2, int(rng.integers(1, 4)),
                           int(rng.integers(1, 4)), 1, 1)
        params = random_tiny_params(int(rng.integers(0, 2**31)), shape=shape)
        estimate, se = log_partition_phase_off(params, 200_000, seed=trial)

        # polar grid: u depends on the angle alone, so the integrand is smooth
        # in (r, theta); Gauss-Legendre in r, trapezoid in the periodic angle
        x, wx = np.polynomial.legendre.leggauss(200)
        r, wr = 10.0 * (x + 1.0), 10.0 * wx      # r in [0, 20]
        theta = np.arange(512) * 2 * np.pi / 512
        v = np.stack([np.outer(r, np.cos(theta)), np.outer(r, np.sin(theta))], axis=-1)
        log_f = -free_energy(v.reshape(-1, 2), params.without_phase()).reshape(200, 512)
        exact = np.logaddexp.reduce(
            (log_f + np.log(r * wr)[:, None]).ravel()) + np.log(2 * np.pi / 512)

        assert abs(estimate - exact) <= 4 * se, (trial, estimate, exact, se)


def test_c08_five_stage_training_smoke():
    t0 = time.time()
    pairs = [(0, 3, VonMisesPair(3.0, 0.0))]
    _, patches = make_synthetic(8, 8, pairs, 6000, seed=88, random_amps=True,
                                noise=0.05)
    shape = ModelShape(64, 8, 2, 8, 6, 12, 4)
    params = init_params(shape, seed=88)
    config = TrainerConfig(batch_size=64, seed=88, checkpoint_every=10**9,
                           stage_iterations=(50, 150, 100, 100, 200))
    stages = default_stages(config.stage_iterations)
    # three resumed legs (exact on resume) give the parameters at 50 and 200
    history, snapshots = [], {}
    for start, stop in ((0, 50), (50, 200), (200, 600)):
        params, leg = train(patches, config, stages, hmc_config=HmcConfig(seed=88),
                            initial_params=params, start_iteration=start,
                            max_iterations=stop - start,
                            initial_step_size=history[-1].step_size if history else None)
        history += leg
        snapshots[stop] = params
    elapsed = time.time() - t0

    f_data = np.array([m.f_data for m in history])
    finite = bool(np.all(np.isfinite(f_data))) and params.all_finite()
    # CD ascends log p(v) = -F(v) - log Z, not -F(v): F(data) alone may rise
    # while the model improves, so stage 2 is judged by the log-likelihood.
    f50 = free_energy(patches, snapshots[50].without_phase())
    f200 = free_energy(patches, snapshots[200].without_phase())
    log_z50, se50 = log_partition_phase_off(snapshots[50], 20_000, seed=88)
    log_z200, se200 = log_partition_phase_off(snapshots[200], 20_000, seed=89)
    log_p50, log_p200 = -f50.mean() - log_z50, -f200.mean() - log_z200
    gain = log_p200 - log_p50
    se = float(np.sqrt((f200 - f50).var(ddof=1) / len(patches) + se50**2 + se200**2))
    learns = gain > 0 and gain >= 3 * se
    stage2 = np.array([m.f_data for m in history if m.stage == 1])
    w = len(stage2) // 5
    windows = [stage2[i * w:(i + 1) * w].mean() for i in range(5)]
    boundaries = [min(m.iteration for m in history if m.stage == s) for s in range(5)]
    report("criterion 8 (five-stage pipeline smoke)",
           finite and learns and boundaries == [0, 50, 200, 300, 400]
           and len(history) == 600 and elapsed < 600,
           f"NaN-free {finite}, stage-2 log p(data) {log_p50:.2f} -> {log_p200:.2f}, "
           f"gain {gain:.2f} = {gain / se:.1f} SE >= 3 SE (stage-2 F windows "
           f"{windows[0]:.2f} -> {windows[-1]:.2f}, information only), "
           f"boundaries {boundaries}, {elapsed:.0f}s")


def test_c09_whitening_criteria():
    t0 = time.time()
    rng = np.random.default_rng(99)
    # correlated synthetic patches: mixed Gaussian factors
    mixing = rng.standard_normal((24, 48)) * np.linspace(2.0, 0.05, 24)[:, None]
    raw = rng.standard_normal((5000, 24)) @ mixing + rng.uniform(-1, 1, 48)
    wt = fit_whitening(raw, 0.99)
    white = wt.apply(raw)
    centered = white - white.mean(axis=0)
    cov = centered.T @ centered / (len(white) - 1)
    frob = float(np.linalg.norm(cov - np.eye(wt.n_components)))
    elapsed = time.time() - t0
    report("criterion 9 (whitening)",
           wt.variance_fraction >= 0.99 and frob < 1e-6 and elapsed < 30,
           f"retained {wt.variance_fraction:.4f} >= 0.99, "
           f"||cov - I||_F = {frob:.2e} < 1e-6, {elapsed:.1f}s")


def test_c10_command_determinism(tmp_path):
    import hashlib

    from mpkrbm.cli import main
    from mpkrbm.config import RunConfig, save_run_config
    from mpkrbm import pnm

    def digest(path):
        return hashlib.sha256(path.read_bytes()).hexdigest()

    config = RunConfig()
    config.paths.data_dir = str(tmp_path / "images")
    config.paths.out_dir = str(tmp_path / "out")
    config.data.patch_size = 6
    config.data.n_patches = 500
    config.data.variance_fraction = 0.95
    config.model.n_subspaces = 3
    config.model.n_pool_hidden = 3
    config.model.n_mean_hidden = 2
    config.model.n_phase_factors = 4
    config.model.n_phase_hidden = 2
    config.trainer.batch_size = 16
    config.trainer.stage_iterations = (3, 3, 3, 3, 3)
    config.synth.patch_size = 6
    config.synth.n_subspaces = 3
    config.synth.n_patches = 200
    config.synth.coupled_pairs = "0:2:3.0:0.0"
    cfg = tmp_path / "run.cfg"
    save_run_config(config, cfg)

    (tmp_path / "images").mkdir()
    rng = np.random.default_rng(5)
    for i in range(2):
        img = rng.uniform(0, 255, size=(30, 30, 3))
        for _ in range(5):
            img = (img + np.roll(img, 1, 0) + np.roll(img, 1, 1)) / 3.0
        pnm.write_pnm(tmp_path / "images" / f"i{i}.ppm", img * 255 / img.max())

    digests = {}
    for name, argv in {
        "patches": ["preprocess", "--config", str(cfg)],
        "synthetic": ["synth", "--config", str(cfg)],
        "checkpoint": ["train", "--config", str(cfg)],
    }.items():
        assert main(argv) == 0
        first = digest(tmp_path / "out" / f"{name}.mpk")
        assert main(argv) == 0
        digests[name] = (first, digest(tmp_path / "out" / f"{name}.mpk"))

    identical = all(a == b for a, b in digests.values())
    report("criterion 10 (command determinism)",
           identical,
           "; ".join(f"{k} rerun digest match {a == b}" for k, (a, b) in digests.items()))
