import ctypes
import hashlib
import os
import subprocess
import sys
from collections import Counter
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

from mpkrbm import blas, energy, trainer
from mpkrbm.energy import free_energy
from mpkrbm.errors import DataError, NumericError, ParameterError
from mpkrbm.grad import grad_free_energy_params, random_tiny_params
from mpkrbm.params import (
    LEARNABLE_TENSORS,
    ModelShape,
    banded_identity,
    init_params,
    load_checkpoint,
    project_constraints,
)
from mpkrbm.sampler import Chain, HmcConfig, HmcStats
from mpkrbm.trainer import (
    ALL_TENSORS,
    PatchCycler,
    StageSpec,
    StepMetrics,
    TrainerConfig,
    cd1_step,
    default_stages,
    train,
)


def identity_sampler(data, params, hmc_config, n_simulations, rng=None, step_size=None):
    """Test hook, called as `hmc_chain` is: the 'model' batch is exactly the
    data batch."""
    assert n_simulations == 1
    stats = HmcStats(accepted=data.rows.shape[0], proposed=data.rows.shape[0],
                     current_step_size=step_size or 0.01)
    stats.trace.append((stats.current_step_size, 0.0, 0.0))
    return Chain.at(data.rows.copy(), params), stats


def shift_sampler(offset):
    def sampler(data, params, hmc_config, n_simulations, rng=None, step_size=None):
        stats = HmcStats(accepted=data.rows.shape[0], proposed=data.rows.shape[0],
                         current_step_size=step_size or 0.01)
        stats.trace.append((stats.current_step_size, 0.0, 0.0))
        return Chain.at(data.rows + offset, params), stats
    return sampler


def small_setup(seed=0):
    params = random_tiny_params(seed)
    params = project_constraints(params)
    rng = np.random.default_rng(seed + 100)
    batch = rng.standard_normal((6, 4))
    return params, batch


def test_identity_sampler_changes_nothing_beyond_projection(monkeypatch):
    params, batch = small_setup(1)
    config = TrainerConfig(batch_size=6, seed=0)
    monkeypatch.setattr(trainer, "hmc_chain", identity_sampler)
    out, _, _ = cd1_step(batch, params, config, HmcConfig(), 0.01, np.random.default_rng(0))
    projected = project_constraints(params)
    for name in LEARNABLE_TENSORS:
        assert np.allclose(getattr(out, name), getattr(projected, name), atol=1e-14), name


def test_zero_learning_rates_only_project():
    params, batch = small_setup(2)
    zero = {f"lr_{n}": 0.0 for n in LEARNABLE_TENSORS}
    config = TrainerConfig(batch_size=6, seed=0, **zero)
    out, _, _ = cd1_step(batch, params, config, HmcConfig(seed=1), 0.01,
                         np.random.default_rng(1))
    projected = project_constraints(params)
    for name in LEARNABLE_TENSORS:
        assert np.array_equal(getattr(out, name), getattr(projected, name)), name


def test_frozen_p_bit_identical():
    shape = ModelShape(4, 3, 2, 3, 2, 3, 3)       # N = F: square banded pattern
    params = init_params(shape, seed=3)
    config = TrainerConfig(batch_size=5, seed=0)
    batch = np.random.default_rng(4).standard_normal((5, 4))
    trainable = frozenset({"C", "W", "b_c", "b_m", "b_v"})
    out, _, _ = cd1_step(batch, params.without_phase(), config, HmcConfig(seed=2), 0.01,
                         np.random.default_rng(2), trainable=trainable)
    assert out.P.tobytes() == params.P.tobytes()
    # a phase-off stage of `train` steps that model and gives its update to the full params
    out, _ = train(batch, config, [StageSpec("frozen", 1, trainable, False)],
                   hmc_config=HmcConfig(seed=2), initial_params=params)
    assert out.P.tobytes() == params.P.tobytes()
    assert out.Q.tobytes() == params.Q.tobytes()
    assert out.R.tobytes() == params.R.tobytes()


def test_update_equals_lr_times_gradient_difference(monkeypatch):
    params, batch = small_setup(5)
    offset = 0.3
    config = TrainerConfig(batch_size=6, seed=0)
    monkeypatch.setattr(trainer, "hmc_chain", shift_sampler(offset))
    out, _, _ = cd1_step(batch, params, config, HmcConfig(), 0.01, np.random.default_rng(3))
    # recompute the update independently with the grad module, then apply
    # the same projection the step applies
    g_data = grad_free_energy_params(batch, params)
    g_model = grad_free_energy_params(batch + offset, params)
    expected_params = params.copy()
    for name in LEARNABLE_TENSORS:
        setattr(expected_params, name,
                getattr(params, name) + config.lr_for(name) * (
                    g_model[name] - g_data[name]))
    expected_params = project_constraints(expected_params)
    for name in LEARNABLE_TENSORS:
        assert np.allclose(getattr(out, name), getattr(expected_params, name),
                           atol=1e-12), name


@pytest.mark.parametrize("with_phase", [True, False])
def test_metrics_are_the_free_energies_of_both_batches(with_phase, monkeypatch):
    params, batch = small_setup(13)
    if not with_phase:
        params = params.without_phase()
    before = params.copy()
    offset = 0.3
    monkeypatch.setattr(trainer, "hmc_chain", shift_sampler(offset))
    _, _, metrics = cd1_step(batch, params, TrainerConfig(batch_size=6, seed=0), HmcConfig(),
                             0.01, np.random.default_rng(4))
    f_data = np.mean(free_energy(batch, before))
    f_model = np.mean(free_energy(batch + offset, before))
    assert abs(metrics.f_data - f_data) <= 1e-12
    assert abs(metrics.f_model - f_model) <= 1e-12


def test_metrics_rows_carry_the_sampler_health(monkeypatch):
    params, batch = small_setup(13)

    def unhealthy_sampler(*args, **kwargs):
        model, stats = identity_sampler(*args, **kwargs)
        stats.divergences, stats.mean_delta_h = 2, 0.25
        return model, stats

    monkeypatch.setattr(trainer, "hmc_chain", unhealthy_sampler)
    _, _, metrics = cd1_step(batch, params, TrainerConfig(batch_size=6, seed=0), HmcConfig(),
                             0.01, np.random.default_rng(4))
    assert (metrics.divergences, metrics.mean_delta_h) == (2, 0.25)
    row = dict(zip(StepMetrics.CSV_COLUMNS, metrics.csv_line().split(",")))
    assert (row["divergences"], row["mean_delta_h"]) == ("2", "0.25")


def test_model_pass_leaves_the_data_pass_intact(monkeypatch):
    # the step forms its update in the arrays the two gradient passes return;
    # f_data, f_model and the update must equal those of passes run apart
    params, batch = small_setup(15)
    config = TrainerConfig(batch_size=6, seed=0)
    monkeypatch.setattr(trainer, "hmc_chain", shift_sampler(0.3))
    out, _, metrics = cd1_step(batch, params, config, HmcConfig(), 0.01, np.random.default_rng(4))
    g_data = grad_free_energy_params(batch, params)
    g_model = grad_free_energy_params(batch + 0.3, params)
    assert metrics.f_data == float(np.mean(free_energy(batch, params)))
    assert metrics.f_model == float(np.mean(free_energy(batch + 0.3, params)))
    expected = project_constraints(replace(params, **{
        name: getattr(params, name) + config.lr_for(name) * (
            g_model[name] - g_data[name])
        for name in LEARNABLE_TENSORS}))
    for name in LEARNABLE_TENSORS:
        assert np.array_equal(getattr(out, name), getattr(expected, name)), name


def test_cd1_step_takes_its_metrics_from_the_gradient_passes(count_calls):
    params, batch = small_setup(14)
    forwards = count_calls(energy, "_forward")
    f_calls = count_calls(energy, "free_energy")
    cd1_step(batch, params, TrainerConfig(batch_size=6, seed=0), HmcConfig(n_leapfrog=20),
             0.01, np.random.default_rng(5))
    assert f_calls["n"] == 0
    # 21 float32 gradient evaluations in HMC and 2 float64 forwards with F,
    # at the data and at the proposal, from which both parameter-gradient
    # passes run their backward
    assert forwards["n"] == 23
    assert Counter(args[1].C.dtype.name for args in forwards["args"]) == {
        "float32": 21, "float64": 2}


# One cd1_step at the paper shape on 32 rows of N(0, I) from seed 4, from
# init_params(PAPER_SHAPE, 3), at a step size that accepts some rows and
# rejects others: the first 16 hex digits of the SHA-256 of the new params'
# bytes in LEARNABLE_TENSORS order followed by repr() of f_data, f_model,
# the rejection rate and the new step size; f_data, f_model and the sum of
# the grad norms as exact floats; the rejected count. The digest holds
# where it was recorded, numpy 2.4.6 on OpenBLAS's SkylakeX kernels, at one
# and at two BLAS threads. The grad norms are not in it: their sum was
# recorded from a BLAS sum, whose rounding follows the thread count, and
# holds to rel 1e-6; cd1_step's own sum calls no BLAS, so its bits do not
# follow the thread count (checked below).
CD1_REFERENCE = {
    "phase": (0.01, "bbf669442dfc7311", "-0x1.dd9a00b85830cp+11", "-0x1.218c9a39d91f8p+12",
              "0x1.3d8cd03d14ea5p+11", 22),
    "no-phase": (0.5, "88a9158aeb672d0a", "-0x1.f69327f4a9cecp+8", "-0x1.45453d745aa44p+9",
                 "0x1.e496b142fd916p+7", 4),
}
REFERENCE_PLATFORM = ("2.4.6", b"SkylakeX")
PAPER_SHAPE = ModelShape(200, 256, 2, 256, 100, 256, 256)


@pytest.mark.parametrize("case", CD1_REFERENCE)
def test_cd1_step_keeps_its_bits(case):
    step, digest, f_data, f_model, norm_sum, rejected = CD1_REFERENCE[case]
    batch = np.random.default_rng(4).standard_normal((32, 200))
    params = init_params(PAPER_SHAPE, 3)
    out, new_step, metrics = cd1_step(batch,
                                      params if case == "phase" else params.without_phase(),
                                      TrainerConfig(batch_size=32), HmcConfig(seed=5), step,
                                      np.random.default_rng(6))
    # the full params take a phase-off update and keep their phase family (`train`)
    out = replace(out, Q=params.Q, R=params.R, b_k=params.b_k) if case != "phase" else out
    assert 0 < metrics.rejection_rate < 1
    if (np.__version__, blas.openblas("get_corename", ctypes.c_char_p)) == REFERENCE_PLATFORM:
        summary = (metrics.f_data, metrics.f_model, metrics.rejection_rate, new_step)
        data = b"".join(getattr(out, name).tobytes() for name in LEARNABLE_TENSORS)
        assert hashlib.sha256(data + repr(summary).encode()).hexdigest()[:16] == digest
    # elsewhere float32 kernels round the trajectory differently
    assert round(metrics.rejection_rate * 32) == rejected
    assert metrics.f_data == pytest.approx(float.fromhex(f_data), rel=1e-9)
    assert metrics.f_model == pytest.approx(float.fromhex(f_model), rel=1e-6)
    assert sum(metrics.grad_norms.values()) == pytest.approx(float.fromhex(norm_sum), rel=1e-6)


CD1_NORMS = """
import numpy as np
from mpkrbm.params import ModelShape, init_params
from mpkrbm.sampler import HmcConfig
from mpkrbm.trainer import TrainerConfig, cd1_step
batch = np.random.default_rng(4).standard_normal((32, 200))
_, _, metrics = cd1_step(batch, init_params(ModelShape(200, 256, 2, 256, 100, 256, 256), 3),
                         TrainerConfig(batch_size=32), HmcConfig(seed=5), 0.01,
                         np.random.default_rng(6))
print(" ".join(float(n).hex() for n in metrics.grad_norms.values()))
"""


def test_cd1_grad_norms_do_not_follow_the_blas_thread_count():
    # CD1_REFERENCE's phase case, run in fresh processes because OpenBLAS
    # sizes its pool from OPENBLAS_NUM_THREADS when numpy loads
    norms = []
    for threads in ("1", "2"):
        env = dict(os.environ, OPENBLAS_NUM_THREADS=threads,
                   PYTHONPATH=str(Path(trainer.__file__).parents[1]))
        proc = subprocess.run([sys.executable, "-c", CD1_NORMS], env=env,
                              capture_output=True, text=True, timeout=120)
        assert proc.returncode == 0, proc.stderr
        norms.append(proc.stdout.split())
    assert len(norms[0]) == len(LEARNABLE_TENSORS) and norms[0] == norms[1]


def test_non_finite_model_batch_raises_with_nothing_trainable(monkeypatch):
    # no update to check, so the drive check of the gradient pass must catch it
    params, batch = small_setup(15)
    monkeypatch.setattr(trainer, "hmc_chain", shift_sampler(np.nan))
    with pytest.raises(NumericError):
        cd1_step(batch, params, TrainerConfig(batch_size=6, seed=0), HmcConfig(), 0.01,
                 np.random.default_rng(6), trainable=frozenset())


def test_constraints_hold_after_real_steps():
    params, _ = small_setup(6)
    rng = np.random.default_rng(7)
    batch = rng.standard_normal((8, 4))
    config = TrainerConfig(batch_size=8, seed=0)
    step = None
    for it in range(20):
        params, step, _ = cd1_step(batch, params, config, HmcConfig(seed=it), step,
                                   np.random.default_rng(it))
    assert np.all(params.P <= 0)
    norms = np.linalg.norm(params.P, axis=0)
    assert np.allclose(norms[norms > 0], 1.0, atol=1e-9)
    assert np.allclose(np.linalg.norm(params.R, axis=0), 1.0, atol=1e-9)
    lengths = np.linalg.norm(params.C, axis=0)
    assert np.max(np.abs(lengths - lengths.mean())) < 1e-9


def test_empty_batch_rejected():
    params, _ = small_setup(8)
    with pytest.raises(DataError):
        cd1_step(np.zeros((0, 4)), params, TrainerConfig(), HmcConfig(), 0.01,
                 np.random.default_rng(0))


def test_default_stages_structure():
    stages = default_stages((10, 20, 30, 40, 50))
    assert [s.iterations for s in stages] == [10, 20, 30, 40, 50]
    assert not stages[0].phase_enabled and not stages[1].phase_enabled
    assert all(s.phase_enabled for s in stages[2:])
    assert "P" not in stages[0].trainable and "P" in stages[1].trainable
    assert stages[0].overrides == ("P",)
    assert stages[2].overrides == ("R",)
    assert stages[4].trainable == ALL_TENSORS


def test_patch_cycler_covers_every_row_per_epoch():
    patches = np.arange(12.0).reshape(6, 2)
    cycler = PatchCycler(patches, batch_size=2, seed=0)
    seen = np.concatenate([cycler.batch(i)[:, 0] for i in range(3)])
    assert sorted(seen) == sorted(patches[:, 0])
    # next epoch reshuffles but still covers everything
    seen2 = np.concatenate([cycler.batch(i)[:, 0] for i in range(3, 6)])
    assert sorted(seen2) == sorted(patches[:, 0])
    assert not np.array_equal(seen, seen2)


def test_patch_cycler_deterministic_per_iteration():
    patches = np.random.default_rng(1).standard_normal((10, 3))
    a = PatchCycler(patches, 4, seed=5)
    b = PatchCycler(patches, 4, seed=5)
    # access out of order: batch depends only on the iteration index
    assert np.array_equal(a.batch(7), b.batch(7))
    assert np.array_equal(a.batch(2), b.batch(2))


@pytest.mark.parametrize("n, batch_size", [(10, 4), (6, 2), (3, 8), (5, 5)])
def test_patch_cycler_matches_per_position_reference(n, batch_size):
    patches = np.random.default_rng(2).standard_normal((n, 3))
    cycler = PatchCycler(patches, batch_size, seed=11)

    def reference(iteration):
        rows = []
        for pos in range(iteration * batch_size, (iteration + 1) * batch_size):
            seq = np.random.SeedSequence([11, 0x5E4F, pos // n])
            rows.append(np.random.default_rng(seq).permutation(n)[pos % n])
        return patches[rows]

    # out of order and far apart, so epochs leave and re-enter the cache
    for it in (0, 1, 2, 3, 40, 7, 2, 41, 0, 13, 12, 11, 10, 9, 8, 3):
        assert reference(it).tobytes() == cycler.batch(it).tobytes(), it


def synthetic_patches(n=600, seed=0):
    from mpkrbm.synth import VonMisesPair, quadrature_gabor_basis, \
        render_quadrature_patches, sample_coupled_phases

    basis = quadrature_gabor_basis(4, 3, seed=seed)
    phases = sample_coupled_phases([(0, 2, VonMisesPair(3.0, 0.0))], 3, n, seed + 1)
    amps = np.random.default_rng(seed + 2).lognormal(0.0, 0.3, size=(n, 3))
    return render_quadrature_patches(phases, amps, basis, 0.05, seed + 3)


def test_train_stage_transitions_and_metrics(tmp_path):
    patches = synthetic_patches()
    shape = ModelShape(16, 3, 2, 3, 2, 4, 2)
    params = init_params(shape, seed=1)
    config = TrainerConfig(batch_size=16, seed=1, checkpoint_every=10,
                           stage_iterations=(4, 6, 5, 5, 5))
    metrics_path = tmp_path / "metrics.csv"
    final, history = train(patches, config, default_stages(config.stage_iterations),
                           hmc_config=HmcConfig(seed=1),
                           checkpoint_path=str(tmp_path / "ck.mpk"),
                           metrics_path=str(metrics_path),
                           initial_params=params)
    assert len(history) == 25
    stages_at = {m.iteration: m.stage for m in history}
    assert stages_at[0] == 0 and stages_at[4] == 1 and stages_at[10] == 2
    assert stages_at[15] == 3 and stages_at[20] == 4

    text = metrics_path.read_text().splitlines()
    assert text[0] == StepMetrics.csv_header()
    assert len(text) == 26
    # stage column flips at the configured boundaries
    stage_column = [int(line.split(",")[1]) for line in text[1:]]
    assert stage_column[3] == 0 and stage_column[4] == 1
    assert stage_column[9] == 1 and stage_column[10] == 2

    ck, state = load_checkpoint(tmp_path / "ck.mpk")
    assert state["iteration"] == 25.0
    assert ck.C.shape == final.C.shape


def test_resume_matches_uninterrupted(tmp_path):
    patches = synthetic_patches(seed=4)
    shape = ModelShape(16, 3, 2, 3, 2, 4, 2)
    config = TrainerConfig(batch_size=8, seed=9, checkpoint_every=10,
                           stage_iterations=(4, 4, 4, 4, 4))
    stages = default_stages(config.stage_iterations)

    full, _ = train(patches, config, stages, hmc_config=HmcConfig(seed=9),
                    initial_params=init_params(shape, seed=9))

    part, _ = train(patches, config, stages, hmc_config=HmcConfig(seed=9),
                    initial_params=init_params(shape, seed=9),
                    checkpoint_path=str(tmp_path / "ck.mpk"), max_iterations=10)
    mid, state = load_checkpoint(tmp_path / "ck.mpk")
    resumed, _ = train(patches, config, stages, hmc_config=HmcConfig(seed=9),
                       initial_params=mid, start_iteration=int(state["iteration"]),
                       initial_step_size=state["step_size"])
    for name in LEARNABLE_TENSORS:
        assert getattr(full, name).tobytes() == getattr(resumed, name).tobytes(), name


@pytest.mark.parametrize("iterations, start, stage", [
    ((3, 0, 0, 0, 0), 3, 0), ((0, 0, 0, 0, 0), 0, 0), ((2, 1, 0, 0, 0), 3, 1),
    ((1, 1, 1, 1, 1), 5, 4)])
def test_a_run_with_no_iterations_left_records_its_last_stage(tmp_path, iterations, start,
                                                              stage):
    # the stage of the schedule's last iteration, which `mpkrbm sample` reads
    config = TrainerConfig(batch_size=8, seed=1, stage_iterations=iterations)
    ck = tmp_path / "ck.mpk"
    _, history = train(synthetic_patches(n=40), config, default_stages(iterations),
                       initial_params=init_params(ModelShape(16, 3, 2, 3, 2, 4, 2), seed=1),
                       start_iteration=start, checkpoint_path=str(ck))
    assert history == []
    state = load_checkpoint(ck)[1]
    assert (state["iteration"], state["stage"]) == (start, stage)


def test_a_resume_past_the_schedule_writes_nothing(tmp_path):
    config = TrainerConfig(batch_size=8, seed=1, stage_iterations=(1, 1, 1, 1, 1))
    with pytest.raises(ParameterError, match="iteration 10, past the end of its 5-iteration"):
        train(synthetic_patches(n=40), config, default_stages(config.stage_iterations),
              initial_params=init_params(ModelShape(16, 3, 2, 3, 2, 4, 2), seed=1),
              start_iteration=10, checkpoint_path=str(tmp_path / "ck.mpk"),
              metrics_path=str(tmp_path / "metrics.csv"))
    assert list(tmp_path.iterdir()) == []


def test_training_reduces_data_free_energy():
    patches = synthetic_patches(n=800, seed=11)
    shape = ModelShape(16, 3, 2, 3, 2, 4, 2)
    params = init_params(shape, seed=11)
    config = TrainerConfig(batch_size=32, seed=11, checkpoint_every=10 ** 9)
    stage = StageSpec("smoke", 200, frozenset({"C", "P", "W", "b_c", "b_m", "b_v"}), False)
    _, history = train(patches, config, [stage], hmc_config=HmcConfig(seed=11),
                       initial_params=params)
    start = np.mean([m.f_data for m in history[:20]])
    end = np.mean([m.f_data for m in history[-20:]])
    assert end < start


def test_nan_update_aborts_step(monkeypatch):
    params, batch = small_setup(12)

    def nan_sampler(data, params_, hmc_config, n_simulations, rng=None, step_size=None):
        bad = data.rows.copy()
        bad[0, 0] = np.nan
        stats = HmcStats(accepted=0, proposed=bad.shape[0],
                         current_step_size=step_size or 0.01)
        stats.trace.append((stats.current_step_size, 1.0, np.nan))
        return Chain.at(bad, params_), stats

    from mpkrbm.errors import NumericError
    monkeypatch.setattr(trainer, "hmc_chain", nan_sampler)
    with pytest.raises(NumericError):
        cd1_step(batch, params, TrainerConfig(), HmcConfig(), 0.01, np.random.default_rng(0))
