import argparse
import ctypes
import hashlib
import os
import signal
import struct
import subprocess
import sys
import tracemalloc
import warnings
from pathlib import Path

import numpy as np
import pytest

import mpkrbm
import mpkrbm.trainer as trainer_module
from mpkrbm import blas, cli, pnm
from mpkrbm.cli import build_parser, main, max_workers
from mpkrbm.config import RunConfig, load_run_config, parse_run_config, save_run_config
from mpkrbm.container import read_container, write_container
from mpkrbm.errors import ConfigError, ParameterError
from mpkrbm.params import load_checkpoint
from mpkrbm.preprocess import WhiteningTransform, extract_patches, fit_whitening


def checksum(path):
    return hashlib.sha256(path.read_bytes()).hexdigest()


def smooth_image(shape, seed, channels=3):
    """Low-pass random image so patches carry correlated structure."""
    rng = np.random.default_rng(seed)
    img = rng.standard_normal(shape + (channels,))
    for _ in range(6):
        img = (img + np.roll(img, 1, 0) + np.roll(img, -1, 0)
               + np.roll(img, 1, 1) + np.roll(img, -1, 1)) / 5.0
    img -= img.min()
    img *= 255.0 / max(img.max(), 1e-9)
    return img if channels == 3 else img[:, :, 0]


def write_images(directory, n=3, channels=3):
    directory.mkdir(parents=True, exist_ok=True)
    for i in range(n):
        img = smooth_image((40, 40), seed=i, channels=channels)
        pnm.write_pnm(directory / f"img{i}.{'ppm' if channels == 3 else 'pgm'}", img)


def base_config(tmp_path, **data_overrides):
    config = RunConfig()
    config.paths.data_dir = str(tmp_path / "images")
    config.paths.out_dir = str(tmp_path / "out")
    config.data.patch_size = 6
    config.data.n_patches = 800
    config.data.variance_fraction = 0.95
    for key, value in data_overrides.items():
        setattr(config.data, key, value)
    # tiny model so CLI train runs fast
    config.model.n_subspaces = 3
    config.model.n_pool_hidden = 3
    config.model.n_mean_hidden = 2
    config.model.n_phase_factors = 4
    config.model.n_phase_hidden = 2
    config.trainer.batch_size = 16
    config.trainer.stage_iterations = (3, 3, 3, 3, 3)
    config.trainer.checkpoint_every = 5
    config.synth.patch_size = 6
    config.synth.n_subspaces = 3
    config.synth.n_patches = 300
    config.synth.coupled_pairs = "0:2:3.0:0.0"
    path = tmp_path / "run.cfg"
    save_run_config(config, path)
    return path, config


def test_config_round_trip(tmp_path):
    path, config = base_config(tmp_path)
    back = load_run_config(path)
    assert back.to_text() == config.to_text()
    assert back.trainer.stage_iterations == (3, 3, 3, 3, 3)


def test_config_unknown_key_rejected():
    with pytest.raises(ConfigError):
        parse_run_config("[model]\nn_subspaces = 4\nbogus = 1\n")
    with pytest.raises(ConfigError):
        parse_run_config("[nosuchsection]\nx = 1\n")
    with pytest.raises(ConfigError):
        parse_run_config("orphan = 1\n")


def test_config_comments_and_blanks_ok():
    config = parse_run_config("# comment\n\n[model]\n# another\nn_subspaces = 7\n")
    assert config.model.n_subspaces == 7


def test_preprocess_prints_and_writes(tmp_path, capsys):
    path, config = base_config(tmp_path)
    write_images(tmp_path / "images")
    assert main(["preprocess", "--config", str(path)]) == 0
    out = capsys.readouterr().out
    assert "whitened dimensionality D = " in out
    fraction = float(out.split("retained variance fraction = ")[1].split()[0])
    assert fraction >= 0.95
    assert (tmp_path / "out" / "patches.mpk").exists()
    assert (tmp_path / "out" / "whitening.mpk").exists()


def test_preprocess_empty_dir_exit_2(tmp_path):
    path, _ = base_config(tmp_path)
    (tmp_path / "images").mkdir()
    assert main(["preprocess", "--config", str(path)]) == 2


def test_preprocess_mixed_channel_counts_exit_2(tmp_path, capsys):
    path, _ = base_config(tmp_path)
    write_images(tmp_path / "images", n=2, channels=3)
    pnm.write_pnm(tmp_path / "images" / "zgray.pgm", smooth_image((40, 40), seed=9, channels=1))
    assert main(["preprocess", "--config", str(path)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error:") and "zgray.pgm has 1" in err and "img1.ppm has 3" in err
    assert not (tmp_path / "out" / "patches.mpk").exists()


@pytest.mark.parametrize("cap", ["abc", "-4", "0", "2.5"])
def test_mpk_threads_must_be_a_positive_integer(tmp_path, monkeypatch, capsys, cap):
    monkeypatch.setenv("MPK_THREADS", cap)
    with pytest.raises(ParameterError, match="MPK_THREADS"):
        max_workers()
    path, _ = base_config(tmp_path)
    write_images(tmp_path / "images", n=1)
    assert main(["preprocess", "--config", str(path)]) == 3
    assert f"MPK_THREADS must be an integer >= 1, got {cap!r}" in capsys.readouterr().err


def test_mpk_threads_caps_the_pool(monkeypatch):
    monkeypatch.setenv("MPK_THREADS", "1")
    assert max_workers() == 1
    monkeypatch.setenv("MPK_THREADS", "100000")
    assert max_workers() == (os.cpu_count() or 1)


def test_preprocess_deterministic_checksums(tmp_path):
    path, _ = base_config(tmp_path)
    write_images(tmp_path / "images")
    assert main(["preprocess", "--config", str(path)]) == 0
    first = checksum(tmp_path / "out" / "patches.mpk")
    assert main(["preprocess", "--config", str(path)]) == 0
    assert checksum(tmp_path / "out" / "patches.mpk") == first
    assert main(["preprocess", "--config", str(path), "--seed", "123"]) == 0
    assert checksum(tmp_path / "out" / "patches.mpk") != first


# `mpkrbm preprocess` of four seeded 40x40 colour images into 3000 8x8x3 patches
# at seed 11, recorded before the command freed its intermediates: the SHA-256
# of patches.mpk and of whitening.mpk, and the whitened dimensionality. At 192
# raw dimensions the whitening fit rounds the same at one and at two BLAS
# threads, so both digests hold at either count on REFERENCE_PLATFORM.
PREPROCESS_REFERENCE = ("6dc0adb6c780331742466474cccd40399fd1fd1a8e3317275aac65197c441e9d",
                        "c6c6ceb816b29b1fbb29cac45f079a26eeb0625a88be2e7b791bc515f1c23036", 44)
REFERENCE_PLATFORM = ("2.4.6", b"SkylakeX")


def test_preprocess_keeps_its_bytes(tmp_path):
    path, _ = base_config(tmp_path, patch_size=8, n_patches=3000, variance_fraction=0.99)
    write_images(tmp_path / "images", n=4)
    assert main(["preprocess", "--config", str(path), "--seed", "11"]) == 0
    patches_digest, whitening_digest, n_components = PREPROCESS_REFERENCE
    if (np.__version__, blas.openblas("get_corename", ctypes.c_char_p)) == REFERENCE_PLATFORM:
        assert checksum(tmp_path / "out" / "patches.mpk") == patches_digest
        assert checksum(tmp_path / "out" / "whitening.mpk") == whitening_digest
    assert read_container(tmp_path / "out" / "patches.mpk")["patches"].shape == (3000, 192)
    assert WhiteningTransform.load(tmp_path / "out" / "whitening.mpk").n_components == n_components


def test_preprocess_keeps_only_the_first_n_patches(tmp_path):
    # 2 patches from each of 8 images is 16 rows: the file holds the first 10,
    # image k's patches in row block k, and the last three images add none
    path, config = base_config(tmp_path, n_patches=10)
    write_images(tmp_path / "images", n=8)
    assert main(["preprocess", "--config", str(path)]) == 0
    patches = read_container(tmp_path / "out" / "patches.mpk")["patches"]
    assert patches.shape == (10, 6 * 6 * 3)
    for k in range(5):
        image = pnm.read_pnm(tmp_path / "images" / f"img{k}.ppm")
        expected = extract_patches(image, 6, 2, config.data.seed + k)
        np.testing.assert_array_equal(patches[2 * k:2 * k + 2], expected)


def test_preprocess_peak_memory_is_two_patch_matrices(tmp_path):
    # per-image chunks, their concatenation and the centered copy held at once
    # made 3 patch matrices; the patches are now gathered straight into the
    # matrix, and the centered copy dies once the covariance is formed
    path, _ = base_config(tmp_path, patch_size=8, n_patches=20000)
    write_images(tmp_path / "images", n=4)
    matrix_bytes = 20000 * 192 * 8
    tracemalloc.start()
    try:
        start = tracemalloc.get_traced_memory()[0]
        assert main(["preprocess", "--config", str(path)]) == 0
        peak = tracemalloc.get_traced_memory()[1] - start
    finally:
        tracemalloc.stop()
    assert peak < 2.5 * matrix_bytes, peak / matrix_bytes


def test_train_holds_the_whitened_patches_only(tmp_path, monkeypatch):
    path, _ = base_config(tmp_path)
    (tmp_path / "out").mkdir()
    raw = np.random.default_rng(0).standard_normal((20000, 64))
    write_container(tmp_path / "out" / "patches.mpk", {"patches": raw})
    fit_whitening(raw, 1.0).save(tmp_path / "out" / "whitening.mpk")
    matrix_bytes = raw.nbytes
    del raw
    held = []

    def record(patches, *args, **kwargs):
        assert patches.shape == (20000, 64)
        held.extend(tracemalloc.get_traced_memory())
        return None, []

    monkeypatch.setattr(cli, "train", record)
    tracemalloc.start()
    try:
        start = tracemalloc.get_traced_memory()[0]
        assert main(["train", "--config", str(path)]) == 0
    finally:
        tracemalloc.stop()
    now, peak = (n - start for n in held)
    # the whitened matrix, and no raw one beside it
    assert matrix_bytes <= now < 1.5 * matrix_bytes, now / matrix_bytes
    # the raw matrix is centered in place: it and the whitened one at most
    assert peak < 2.5 * matrix_bytes, peak / matrix_bytes


@pytest.mark.parametrize("command, section, key, value", [
    ("preprocess", "data", "patch_size", 0),
    ("preprocess", "data", "patch_size", -1),
    ("preprocess", "data", "n_patches", -5),
    ("synth", "synth", "n_patches", -1),
])
def test_non_positive_size_or_count_exit_3_and_write_nothing(tmp_path, capsys, command,
                                                               section, key, value):
    cfg_path, config = base_config(tmp_path)
    write_images(tmp_path / "images")
    setattr(getattr(config, section), key, value)
    save_run_config(config, cfg_path)
    assert main([command, "--config", str(cfg_path)]) == 3
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and err[0] == f"error: [{section}] {key} must be >= 1, got {value}"
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("command, setting, message", [
    ("preprocess", "--seed", "--seed must be >= 0, got -1"),
    ("train", "--seed", "--seed must be >= 0, got -1"),
    ("sample", "--seed", "--seed must be >= 0, got -1"),
    ("synth", "--seed", "--seed must be >= 0, got -1"),
    ("check", "--seed", "--seed must be >= 0, got -1"),
    ("preprocess", ("data", "seed", -1), "[data] seed must be >= 0, got -1"),
    ("train", ("trainer", "seed", -1), "[trainer] seed must be >= 0, got -1"),
    ("sample", ("hmc", "seed", -1), "[hmc] seed must be >= 0, got -1"),
    ("synth", ("synth", "seed", -1), "[synth] seed must be >= 0, got -1"),
    ("preprocess", ("data", "variance_fraction", 2.0),
     "[data] variance_fraction must be in (0, 1], got 2.0"),
    ("preprocess", ("data", "variance_fraction", 0.0),
     "[data] variance_fraction must be in (0, 1], got 0.0"),
    ("train", ("paths", "whitening", "w8.mpk"),
     "whitening file has raw dim 8 but patches have D=108"),
    ("export", ("paths", "whitening", "w8.mpk"),
     "whitening file has D=8 components but checkpoint has D=6"),
    ("synth", ("synth", "amplitude", float("inf")), "[synth] amplitude must be finite, got inf"),
    ("synth", ("synth", "noise_sigma", float("nan")),
     "[synth] noise_sigma must be finite and >= 0, got nan"),
    ("synth", ("synth", "noise_sigma", -1.0),
     "[synth] noise_sigma must be finite and >= 0, got -1.0"),
    ("synth", ("synth", "coupled_pairs", "1:2:nan:0"),
     "[synth] coupled_pairs entry '1:2:nan:0': kappa must be finite and >= 0, got nan"),
    ("synth", ("synth", "coupled_pairs", "1:2:3:inf"),
     "[synth] coupled_pairs entry '1:2:3:inf': mu must be finite, got inf"),
])
def test_negative_seed_or_bad_variance_fraction_exit_3_and_write_nothing(tmp_path, capsys,
                                                                         command, setting,
                                                                         message):
    cfg_path, config = base_config(tmp_path)
    write_images(tmp_path / "images")
    assert main(["preprocess", "--config", str(cfg_path)]) == 0
    argv = []
    if command in ("sample", "export"):
        argv += ["--resume", str(save_tiny_checkpoint(tmp_path / "ck.mpk"))]
    if setting == "--seed":
        argv += ["--seed", "-1"]
    else:
        section, key, value = setting
        if section == "paths":      # a whitening file of 8 raw dims and 8 components
            value = str(tmp_path / value)
            fit_whitening(np.random.default_rng(0).standard_normal((50, 8)), 1.0,
                          patch_size=2, channels=2).save(value)
        setattr(getattr(config, section), key, value)
        save_run_config(config, cfg_path)
    if command != "check":
        argv += ["--config", str(cfg_path)]
    out = tmp_path / "out"
    before = {p.name: p.read_bytes() for p in out.iterdir()}
    capsys.readouterr()
    assert main([command] + argv) == 3
    assert capsys.readouterr().err.splitlines() == [f"error: {message}"]
    assert {p.name: p.read_bytes() for p in out.iterdir()} == before


def test_synth_unparseable_pair_exit_2(tmp_path, capsys):
    cfg_path, config = base_config(tmp_path)
    config.synth.coupled_pairs = "a:2:1:0"
    save_run_config(config, cfg_path)
    assert main(["synth", "--config", str(cfg_path)]) == 2
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and "'a:2:1:0' is not i:j:kappa:mu" in err[0], err


def test_synth_writes_dataset_and_is_deterministic(tmp_path):
    path, _ = base_config(tmp_path)
    assert main(["synth", "--config", str(path)]) == 0
    out = tmp_path / "out" / "synthetic.mpk"
    first = checksum(out)
    assert main(["synth", "--config", str(path)]) == 0
    assert checksum(out) == first

    data = read_container(out)
    assert data["patches"].shape == (300, 36)
    assert data["ground_truth.pairs"].shape == (1, 2)


def test_train_then_resume_and_export(tmp_path, capsys):
    cfg_path, config = base_config(tmp_path)
    write_images(tmp_path / "images")
    assert main(["preprocess", "--config", str(cfg_path)]) == 0

    assert main(["train", "--config", str(cfg_path)]) == 0
    out = capsys.readouterr().out
    assert "stage 0" in out and "stage 4" in out
    ck = tmp_path / "out" / "checkpoint.mpk"
    assert ck.exists()
    full_digest = checksum(ck)

    metrics = (tmp_path / "out" / "metrics.csv").read_text().splitlines()
    assert len(metrics) == 16     # header + 15 iterations
    stages = [int(line.split(",")[1]) for line in metrics[1:]]
    assert stages == [0] * 3 + [1] * 3 + [2] * 3 + [3] * 3 + [4] * 3

    # interrupted run + resume reproduces the uninterrupted checkpoint
    half_dir = tmp_path / "half"
    assert main(["train", "--config", str(cfg_path), "--iterations", "5",
                 "--out", str(half_dir)]) == 0
    assert main(["train", "--config", str(cfg_path),
                 "--resume", str(half_dir / "checkpoint.mpk"),
                 "--out", str(half_dir)]) == 0
    assert checksum(half_dir / "checkpoint.mpk") == full_digest

    assert main(["export", "--config", str(cfg_path), "--what", "amplitude"]) == 0
    exported = tmp_path / "out" / "filters_amplitude.ppm"
    assert exported.exists()
    img = pnm.read_pnm(exported)
    assert img.ndim == 3


def test_export_all_writes_every_mosaic(tmp_path):
    cfg_path, _ = base_config(tmp_path)
    write_images(tmp_path / "images")
    assert main(["preprocess", "--config", str(cfg_path)]) == 0
    assert main(["train", "--config", str(cfg_path), "--iterations", "4"]) == 0
    assert main(["export", "--config", str(cfg_path), "--what", "all"]) == 0
    for item in ("C0", "C1", "W", "amplitude", "phase", "P", "Q", "R"):
        img = pnm.read_pnm(tmp_path / "out" / f"filters_{item}.ppm")
        assert img.ndim == 3 and img.shape[2] == 3, item


def test_sample_on_a_corrupt_checkpoint_exit_2(tmp_path, capsys):
    # dims of 2^40 x 3 and no data: a FormatError, not a 24 TiB allocation
    ck = tmp_path / "ck.mpk"
    header = b"MPK1" + struct.pack("<IIH", 1, 1, 1) + b"C"
    ck.write_bytes(header + struct.pack("<B2Q", 2, 2 ** 40, 3))
    assert main(["sample", "--resume", str(ck), "--out", str(tmp_path)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error:") and "ck.mpk" in err and err.count("\n") == 1
    assert not (tmp_path / "samples.mpk").exists()


def test_preprocess_on_a_malformed_ppm_exit_2(tmp_path, capsys):
    path, _ = base_config(tmp_path)
    write_images(tmp_path / "images", n=2)
    (tmp_path / "images" / "zbad.ppm").write_bytes(b"P6\nab 40\n255\n" + b"\x00" * 4800)
    assert main(["preprocess", "--config", str(path)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error:") and "zbad.ppm" in err and err.count("\n") == 1
    assert not (tmp_path / "out" / "patches.mpk").exists()


@pytest.mark.parametrize("command", ["sample", "train", "export"])
def test_resume_on_a_directory_exit_4(tmp_path, capsys, command):
    cfg_path, _ = base_config(tmp_path)
    write_images(tmp_path / "images")
    assert main(["preprocess", "--config", str(cfg_path)]) == 0
    (tmp_path / "adir").mkdir()
    capsys.readouterr()
    assert main([command, "--config", str(cfg_path), "--resume", str(tmp_path / "adir")]) == 4
    err = capsys.readouterr().err
    assert err.startswith("error:") and "adir" in err and err.count("\n") == 1


def save_tiny_checkpoint(path, n_visible=6, state=None, params=None):
    from mpkrbm.params import ModelShape, init_params, save_checkpoint

    if params is None:
        params = init_params(ModelShape(n_visible, 2, 2, 2, 2, 2, 2), seed=0)
    save_checkpoint(params, state, path)
    return path


@pytest.mark.parametrize("entry, tensor", [("patches", "patches"), ("whitening", "mean")])
def test_train_on_a_container_without_its_tensor_exit_2(tmp_path, capsys, entry, tensor):
    # a [paths] entry naming a checkpoint: a well-formed file without the tensor
    cfg_path, config = base_config(tmp_path)
    write_images(tmp_path / "images")
    assert main(["preprocess", "--config", str(cfg_path)]) == 0
    setattr(config.paths, entry, str(save_tiny_checkpoint(tmp_path / "ck.mpk")))
    save_run_config(config, cfg_path)
    capsys.readouterr()
    assert main(["train", "--config", str(cfg_path)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error:") and "ck.mpk" in err and tensor in err
    assert err.count("\n") == 1


@pytest.mark.parametrize("patches", [np.float64(1.0), np.zeros(6)])
def test_train_on_patches_that_are_not_a_matrix_exit_2(tmp_path, capsys, patches):
    cfg_path, config = base_config(tmp_path)
    config.paths.patches = str(tmp_path / "flat.mpk")
    save_run_config(config, cfg_path)
    write_container(config.paths.patches, {"patches": patches})
    assert main(["train", "--config", str(cfg_path)]) == 2
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and "flat.mpk" in err[0] and "2-D 'patches'" in err[0], err


def test_export_with_a_whitening_file_without_its_tensors_exit_2(tmp_path, capsys):
    cfg_path, config = base_config(tmp_path)
    ck = save_tiny_checkpoint(tmp_path / "ck.mpk")
    config.paths.whitening = str(ck)
    save_run_config(config, cfg_path)
    assert main(["export", "--config", str(cfg_path), "--resume", str(ck)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error:") and "ck.mpk" in err and "mean" in err
    assert err.count("\n") == 1


@pytest.mark.parametrize("section, key, value", [
    ("hmc", "n_leapfrog", 0),
    ("trainer", "batch_size", 0),
    ("trainer", "stage_iterations", (3, 3, 3, 3)),
    ("trainer", "checkpoint_every", 0),
    ("hmc", "step_size", float("nan")),
    ("hmc", "adapt_rate", 1.0),
    ("trainer", "lr_C", float("nan")),
])
def test_train_bad_config_value_exit_3(tmp_path, capsys, section, key, value):
    cfg_path, config = base_config(tmp_path)
    write_images(tmp_path / "images")
    assert main(["preprocess", "--config", str(cfg_path)]) == 0
    setattr(getattr(config, section), key, value)
    save_run_config(config, cfg_path)
    capsys.readouterr()
    assert main(["train", "--config", str(cfg_path)]) == 3
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and err[0].startswith("error: "), err


def test_paths_entries_place_the_run_files(tmp_path):
    cfg_path, config = base_config(tmp_path)
    files = tmp_path / "files"
    files.mkdir()
    config.paths.patches = str(files / "p.mpk")
    config.paths.whitening = str(files / "w.mpk")
    config.paths.checkpoint = str(files / "c.mpk")
    save_run_config(config, cfg_path)
    write_images(tmp_path / "images")
    assert main(["preprocess", "--config", str(cfg_path)]) == 0
    assert main(["train", "--config", str(cfg_path), "--iterations", "4"]) == 0
    assert main(["export", "--config", str(cfg_path), "--what", "W"]) == 0
    assert sorted(p.name for p in files.iterdir()) == ["c.mpk", "p.mpk", "w.mpk"]
    assert sorted(p.name for p in (tmp_path / "out").iterdir()) == ["filters_W.ppm",
                                                                     "metrics.csv"]


@pytest.mark.parametrize("kind", ["directory", "not-utf8"])
def test_train_on_an_unreadable_config_exit_2(tmp_path, capsys, kind):
    path = tmp_path / "bad.cfg"
    if kind == "directory":
        path.mkdir()
    else:
        path.write_bytes(b"[paths]\nout_dir = \xff\n")
    assert main(["train", "--config", str(path)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error:") and "bad.cfg" in err and err.count("\n") == 1


def test_train_with_a_whitening_directory_exit_4(tmp_path, capsys):
    cfg_path, config = base_config(tmp_path)
    write_images(tmp_path / "images")
    assert main(["preprocess", "--config", str(cfg_path)]) == 0
    config.paths.whitening = str(tmp_path / "wdir")
    (tmp_path / "wdir").mkdir()
    save_run_config(config, cfg_path)
    capsys.readouterr()
    assert main(["train", "--config", str(cfg_path)]) == 4
    err = capsys.readouterr().err
    assert err.startswith("error:") and "wdir" in err and err.count("\n") == 1


def test_train_without_patches_exit_4(tmp_path):
    path, _ = base_config(tmp_path)
    assert main(["train", "--config", str(path)]) == 4


def test_train_shape_mismatch_exit_3(tmp_path):
    cfg_path, config = base_config(tmp_path)
    write_images(tmp_path / "images")
    assert main(["preprocess", "--config", str(cfg_path)]) == 0
    config.model.n_visible = 9999
    save_run_config(config, cfg_path)
    assert main(["train", "--config", str(cfg_path)]) == 3


def test_export_missing_whitening_exit_4(tmp_path):
    cfg_path, config = base_config(tmp_path)
    assert main(["synth", "--config", str(cfg_path)]) == 0
    # fabricate a checkpoint but no whitening file
    from mpkrbm.params import init_params, save_checkpoint
    params = init_params(config.model.shape_for(36), seed=0)
    ck = tmp_path / "out" / "checkpoint.mpk"
    save_checkpoint(params, {}, ck)
    assert main(["export", "--config", str(cfg_path)]) == 4


def test_check_json(tmp_path, capsys):
    import json

    assert main(["check", "--json"]) == 0
    report = json.loads(capsys.readouterr().out)
    assert report["passed"] is True
    assert set(report["checks"]) == {"gradients", "free_energy_enumeration", "hmc_gaussian"}


def test_check_text_prints_one_line_per_record(monkeypatch, capsys):
    records = {"gradients": {"passed": True, "max_rel_err": {"v": 1e-9}, "tolerance": 1e-5},
               "hmc_gaussian": {"passed": False, "rejection_rate": 0.5}}
    monkeypatch.setattr(cli, "CHECKS", {name: lambda seed=0, record=record: record
                                        for name, record in records.items()})
    assert main(["check"]) == 1
    assert capsys.readouterr().out.splitlines() == [
        'gradients: ok {"passed": true, "max_rel_err": {"v": 1e-09}, "tolerance": 1e-05}',
        'hmc_gaussian: FAIL {"passed": false, "rejection_rate": 0.5}']


def test_check_detects_injected_bug(monkeypatch, capsys):
    import mpkrbm.grad as grad_module

    original = grad_module.grad_free_energy_v

    def broken(v, params):
        return original(v, params) * 1.001

    monkeypatch.setattr(grad_module, "grad_free_energy_v", broken)
    assert main(["check"]) == 1
    assert "FAIL" in capsys.readouterr().out


def test_sample_command(tmp_path, capsys):
    from mpkrbm.params import init_params, save_checkpoint

    params = init_params(
        __import__("mpkrbm.params", fromlist=["ModelShape"]).ModelShape(6, 2, 2, 2, 2, 2, 2),
        seed=0)
    ck = tmp_path / "ck.mpk"
    save_checkpoint(params, {"step_size": 0.05}, ck)
    assert main(["sample", "--resume", str(ck), "--iterations", "10",
                 "--out", str(tmp_path)]) == 0
    out = capsys.readouterr().out
    assert out.startswith("step_size,rejection_rate,mean_delta_h")
    assert (tmp_path / "samples.mpk").exists()
    assert main(["sample", "--resume", str(tmp_path / "missing.mpk")]) == 4


@pytest.mark.parametrize("stage, with_phase", [(0, False), (1, False), (2, True), (3, True),
                                               (4, True), (None, True)])
def test_sample_runs_the_hidden_families_of_the_recorded_stage(tmp_path, monkeypatch, stage,
                                                               with_phase):
    # stages 0-1 train the subspace model alone; no stage recorded: the whole model
    seen = []

    def record(chain, params, *args, **kwargs):
        seen.append(params.has_phase)
        return original(chain, params, *args, **kwargs)

    original = cli.hmc_chain
    monkeypatch.setattr(cli, "hmc_chain", record)
    state = None if stage is None else {"stage": stage}
    ck = save_tiny_checkpoint(tmp_path / "ck.mpk", state=state)
    assert main(["sample", "--resume", str(ck), "--iterations", "2",
                 "--out", str(tmp_path)]) == 0
    assert seen == [with_phase]


def test_stage_0_samples_do_not_read_the_phase_units(tmp_path):
    from dataclasses import replace

    from mpkrbm.params import ModelShape, init_params

    params = init_params(ModelShape(6, 2, 2, 2, 2, 2, 2), seed=0)
    rng = np.random.default_rng(5)
    other = replace(params, Q=rng.standard_normal(params.Q.shape),
                    R=np.abs(rng.standard_normal(params.R.shape)),
                    b_k=rng.standard_normal(params.b_k.shape))
    digests = []
    for name, p in (("a", params), ("b", other)):
        ck = save_tiny_checkpoint(tmp_path / f"{name}.mpk", state={"stage": 0}, params=p)
        assert main(["sample", "--resume", str(ck), "--iterations", "5",
                     "--out", str(tmp_path / name)]) == 0
        digests.append(checksum(tmp_path / name / "samples.mpk"))
    assert digests[0] == digests[1]


PAPER_SHAPE = (200, 256, 2, 256, 100, 256, 256)

# `mpkrbm sample --iterations 10 --seed 6` of init_params(PAPER_SHAPE, 3) recorded
# as stage 0 at step 0.01, 64 chains without the phase units, recorded while the
# command still held the phase family: the SHA-256 of samples.mpk, the samples'
# sum as an exact float and the rejection rate of each simulation. The digest
# holds on REFERENCE_PLATFORM at one and at two BLAS threads.
STAGE_0_SAMPLE_REFERENCE = (
    "69d90d1972a32cbf7aaec393b5c14bbd114d95383c3ec00592b95ac1a8d2891f",
    "-0x1.cb60550f5987cp+6", ["0"] * 2 + ["0.015625"] + ["0"] * 7)


def paper_stage_0_checkpoint(path):
    from mpkrbm.params import ModelShape, init_params

    return save_tiny_checkpoint(path, state={"stage": 0, "step_size": 0.01},
                                params=init_params(ModelShape(*PAPER_SHAPE), 3))


def test_stage_0_sample_keeps_its_bytes(tmp_path, capsys):
    ck = paper_stage_0_checkpoint(tmp_path / "ck.mpk")
    assert main(["sample", "--resume", str(ck), "--seed", "6", "--iterations", "10",
                 "--out", str(tmp_path)]) == 0
    digest, total, rejections = STAGE_0_SAMPLE_REFERENCE
    trace = capsys.readouterr().out.splitlines()[1:-1]
    assert [line.split(",")[1] for line in trace] == rejections
    samples = read_container(tmp_path / "samples.mpk")["samples"]
    assert samples.shape == (64, 200)
    if (np.__version__, blas.openblas("get_corename", ctypes.c_char_p)) == REFERENCE_PLATFORM:
        assert checksum(tmp_path / "samples.mpk") == digest
    # elsewhere float32 kernels round the trajectory differently
    assert samples.sum() == pytest.approx(float.fromhex(total), rel=1e-6)


def test_stage_0_sample_holds_no_phase_family(tmp_path):
    # a stage-0 chain reads neither Q, R nor b_k: `sample` drops them once the
    # checkpoint is checked, and holds the banded P as its diagonal. Holding
    # them, the command peaked at 6.54 MiB of traced memory
    from mpkrbm.params import load_checkpoint

    ck = paper_stage_0_checkpoint(tmp_path / "ck.mpk")
    params = load_checkpoint(ck)[0]
    phase_bytes = params.Q.nbytes + params.R.nbytes + params.b_k.nbytes
    del params
    argv = ["sample", "--resume", str(ck), "--iterations", "10", "--out", str(tmp_path)]
    assert main(argv) == 0      # imports and first-call caches are not the command's
    tracemalloc.start()
    try:
        start = tracemalloc.get_traced_memory()[0]
        assert main(argv) == 0
        peak = tracemalloc.get_traced_memory()[1] - start
    finally:
        tracemalloc.stop()
    assert peak < 6.54 * 2 ** 20 - phase_bytes, peak / 2 ** 20


# `mpkrbm train` of a 4-3-3-4-3 model (D = 16) on 64 seeded patches, two
# iterations each of stages 0, 1 and 2, so that the run crosses from the
# stages without phase units into the first with them: the SHA-256 of
# metrics.csv and of checkpoint.mpk, recorded while a flag, not the params,
# chose the phase units. The checkpoint records no BLAS thread count here;
# both digests hold on REFERENCE_PLATFORM at one and at two BLAS threads.
STAGED_TRAIN_REFERENCE = ("99a09e388bd745a7b94395ee774ec060a19c6498bdeb6b6f237a1030000f0e70",
                          "3fd7e0488aeadcf8d9df57ee40facf9cadfb67f79f05447c734bf8aadb2cdc83")


def test_staged_train_keeps_its_bytes(tmp_path, monkeypatch):
    write_container(tmp_path / "patches.mpk",
                    {"patches": np.random.default_rng(9).standard_normal((64, 16))})
    config = RunConfig()
    config.paths.patches = str(tmp_path / "patches.mpk")
    config.paths.out_dir = str(tmp_path / "out")
    for key, value in dict(n_subspaces=4, n_pool_hidden=4, n_mean_hidden=3,
                           n_phase_factors=4, n_phase_hidden=3).items():
        setattr(config.model, key, value)
    config.trainer.batch_size = 16
    config.trainer.stage_iterations = (2, 2, 2, 0, 0)
    save_run_config(config, tmp_path / "run.cfg")
    monkeypatch.setattr(blas, "threads", lambda: None)
    assert main(["train", "--config", str(tmp_path / "run.cfg")]) == 0
    metrics = (tmp_path / "out" / "metrics.csv").read_text().splitlines()
    columns = metrics[0].split(",")
    rows = [dict(zip(columns, line.split(","))) for line in metrics[1:]]
    assert [row["stage"] for row in rows] == ["0", "0", "1", "1", "2", "2"]
    # an empty phase family has no gradient: its norms read 0 until stage 2
    for name in ("Q", "R", "b_k"):
        assert [row[f"grad_norm_{name}"] == "0" for row in rows] == [True] * 4 + [False] * 2
    if (np.__version__, blas.openblas("get_corename", ctypes.c_char_p)) == REFERENCE_PLATFORM:
        assert (checksum(tmp_path / "out" / "metrics.csv"),
                checksum(tmp_path / "out" / "checkpoint.mpk")) == STAGED_TRAIN_REFERENCE


@pytest.mark.parametrize("stage", [7, -1, 0.5, float("nan")])
def test_sample_from_an_unknown_stage_exit_2_and_write_nothing(tmp_path, capsys, stage):
    ck = save_tiny_checkpoint(tmp_path / "ck.mpk", state={"stage": stage})
    assert main(["sample", "--resume", str(ck), "--out", str(tmp_path / "s")]) == 2
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and "ck.mpk" in err[0] and f"stage {stage:g}" in err[0], err
    assert not (tmp_path / "s").exists()


def tiny_patches_config(tmp_path, whitening=None):
    """A config whose run files are 16 random 6-pixel patches and, when
    given, a whitening file; its output directory does not exist yet."""
    config = RunConfig()
    config.paths.patches = str(tmp_path / "patches.mpk")
    config.paths.out_dir = str(tmp_path / "out")
    config.paths.whitening = whitening or ""
    for key in ("n_subspaces", "n_pool_hidden", "n_mean_hidden", "n_phase_factors",
                "n_phase_hidden"):
        setattr(config.model, key, 2)
    config.trainer.batch_size = 8
    write_container(config.paths.patches,
                    {"patches": np.random.default_rng(0).standard_normal((16, 6))})
    save_run_config(config, tmp_path / "tiny.cfg")
    return tmp_path / "tiny.cfg"


@pytest.mark.parametrize("command, entry, value, code", [
    ("sample", "opt.stage", [1.0, 2.0], 2),
    ("sample", "alpha", [2.0, 2.0], 2),
    ("sample", "alpha", 0.0, 2),
    ("sample", "L", float("nan"), 2),
    ("sample", "opt.step_size", float("nan"), 2),
    ("sample", "opt.step_size", 0.0, 2),
    ("sample", "P", float("nan"), 2),
    ("sample", "b_c", 2.0, 3),
    ("train", "opt.iteration", float("nan"), 2),
    ("train", "opt.iteration", -5.0, 2),
    ("train", "opt.iteration", 2.5, 2),
])
def test_bad_checkpoint_entry_exit_and_write_nothing(tmp_path, capsys, command, entry, value,
                                                     code):
    # P: every entry of the tensor; b_c: a scalar where a vector belongs
    ck = save_tiny_checkpoint(tmp_path / "ck.mpk",
                              state={"iteration": 3, "stage": 2, "step_size": 0.05})
    tensors = read_container(ck)
    tensors[entry] = np.full_like(tensors[entry], value) if entry == "P" else np.array(value)
    write_container(ck, tensors)
    argv = [command, "--resume", str(ck), "--out", str(tmp_path / "out"), "--iterations", "1"]
    if command == "train":
        argv += ["--config", str(tiny_patches_config(tmp_path))]
    assert main(argv) == code
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and "ck.mpk" in err[0] and entry in err[0], err
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("entry, change", [
    ("forward", lambda t: np.full_like(t, np.nan)),
    ("inverse", lambda t: np.full_like(t, np.inf)),
    ("variance_fraction", lambda t: np.array([0.9, 0.9])),
    ("patch_size", lambda t: np.array([2.0, 2.0])),
    ("mean", lambda t: t[None]),
    ("forward", lambda t: t[..., None]),
    ("inverse", lambda t: t.T),
], ids=["forward-nan", "inverse-inf", "variance_fraction-vector", "patch_size-vector",
        "mean-rank-2", "forward-rank-3", "inverse-transposed"])
def test_bad_whitening_entry_exit_2_and_write_nothing(tmp_path, capsys, entry, change):
    w = tmp_path / "w.mpk"
    patches = np.random.default_rng(1).standard_normal((50, 6))
    fit_whitening(patches, 0.9, patch_size=1, channels=6).save(w)
    tensors = read_container(w)
    tensors[entry] = change(tensors[entry])
    write_container(w, tensors)
    cfg = tiny_patches_config(tmp_path, whitening=str(w))
    assert main(["train", "--config", str(cfg), "--iterations", "1"]) == 2
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and "w.mpk" in err[0] and entry in err[0], err
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("section, key, value", [
    ("hmc", "n_leapfrog", 0),
    ("model", "subspace_dim", 1),
    ("model", "alpha", -1.0),
    ("model", "alpha", float("nan")),
    ("trainer", "stage_iterations", (5, -3, 0, 0, 0)),
    ("trainer", "stage_iterations", (-3, 0, 0, 0, 0)),
    ("model", "alpha", float("inf")),
])
def test_train_bad_config_touches_no_output(tmp_path, capsys, section, key, value):
    # the whole run is checked before metrics.csv is rewritten or any
    # stage runs, so the files of an earlier run survive byte for byte
    cfg_path, config = base_config(tmp_path)
    write_images(tmp_path / "images")
    assert main(["preprocess", "--config", str(cfg_path)]) == 0
    out = tmp_path / "out"
    (out / "metrics.csv").write_text("iteration,stage\n0,0\n")
    before = {p.name: p.read_bytes() for p in out.iterdir()}
    setattr(getattr(config, section), key, value)
    save_run_config(config, cfg_path)
    capsys.readouterr()
    assert main(["train", "--config", str(cfg_path)]) == 3
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and err[0].startswith("error: "), err
    assert {p.name: p.read_bytes() for p in out.iterdir()} == before


def test_export_needs_two_components_for_pair_mosaics(tmp_path, capsys):
    cfg_path, config = base_config(tmp_path)
    write_images(tmp_path / "images")
    assert main(["preprocess", "--config", str(cfg_path)]) == 0
    from mpkrbm.params import init_params, save_checkpoint
    config.model.subspace_dim = 1
    n_visible = WhiteningTransform.load(tmp_path / "out" / "whitening.mpk").n_components
    save_checkpoint(init_params(config.model.shape_for(n_visible), seed=0), {},
                    tmp_path / "out" / "checkpoint.mpk")
    assert main(["export", "--config", str(cfg_path), "--what", "C0"]) == 0
    (tmp_path / "out" / "filters_C0.ppm").unlink()
    for what in ("C1", "amplitude", "phase", "P", "all"):
        capsys.readouterr()
        assert main(["export", "--config", str(cfg_path), "--what", what]) == 3, what
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and err[0].startswith("error: ") and "L=1" in err[0], err
        assert not list((tmp_path / "out").glob("filters_*")), what


@pytest.mark.parametrize("max_columns", [0, -1])
def test_export_max_columns_below_1_exit_3_and_write_nothing(tmp_path, capsys, max_columns):
    cfg_path, config = base_config(tmp_path)
    write_images(tmp_path / "images")
    assert main(["preprocess", "--config", str(cfg_path)]) == 0
    n_visible = WhiteningTransform.load(tmp_path / "out" / "whitening.mpk").n_components
    ck = save_tiny_checkpoint(tmp_path / "ck.mpk", n_visible=n_visible)
    config.export.max_columns = max_columns
    save_run_config(config, cfg_path)
    capsys.readouterr()
    assert main(["export", "--config", str(cfg_path), "--resume", str(ck)]) == 3
    assert capsys.readouterr().err.splitlines() == [
        f"error: [export] max_columns must be >= 1, got {max_columns}"]
    assert not list((tmp_path / "out").glob("filters_*"))


def test_preprocess_patch_matrix_too_large_to_allocate_exit_3(tmp_path, capsys):
    # 10**15 rows of 16 pixels: 128 PB, which numpy refuses at once
    cfg_path, config = base_config(tmp_path, patch_size=4, n_patches=10 ** 15)
    write_images(tmp_path / "images", n=2, channels=1)
    assert main(["preprocess", "--config", str(cfg_path)]) == 3
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and "n_patches = 1000000000000000" in err[0], err
    assert "1000000000000000 x 16" in err[0], err
    assert not (tmp_path / "out").exists()


def test_preprocess_patch_matrix_larger_than_memory_exit_3(tmp_path, capsys, monkeypatch):
    # 16384 rows of 16 pixels: 2 MiB, which numpy would allocate, against a
    # machine reported to hold 1 MiB
    cfg_path, config = base_config(tmp_path, patch_size=4, n_patches=16384)
    write_images(tmp_path / "images", n=2, channels=1)
    assert cli.physical_memory() > 2 ** 21
    monkeypatch.setattr(cli, "physical_memory", lambda: 2 ** 20)
    assert main(["preprocess", "--config", str(cfg_path)]) == 3
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and "n_patches = 16384" in err[0], err
    assert "16384 x 16" in err[0] and "2.1e+06 bytes" in err[0], err
    assert not (tmp_path / "out").exists()


def test_train_batch_matrix_larger_than_memory_exit_3(tmp_path, capsys, monkeypatch):
    # 16384 rows of 16 dims: 2 MiB, against a machine reported to hold 1 MiB.
    # Unchecked, the minibatch stream walks 1024 passes over the 16 patches
    # per batch; at a batch of 10**11 it walks about 6e9 and never returns
    write_container(tmp_path / "patches.mpk",
                    {"patches": np.random.default_rng(0).standard_normal((16, 16))})
    config = RunConfig()
    config.paths.patches = str(tmp_path / "patches.mpk")
    config.paths.out_dir = str(tmp_path / "out")
    config.trainer.batch_size = 16384
    save_run_config(config, tmp_path / "run.cfg")
    monkeypatch.setattr(cli, "physical_memory", lambda: 2 ** 20)
    assert main(["train", "--config", str(tmp_path / "run.cfg")]) == 3
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and "batch_size = 16384" in err[0], err
    assert "16384 x 16" in err[0] and "2.1e+06 bytes" in err[0], err
    assert not (tmp_path / "out").exists()


def test_preprocess_on_constant_images_exit_2_and_write_nothing(tmp_path, capsys):
    cfg_path, config = base_config(tmp_path)
    (tmp_path / "images").mkdir()
    for i in range(2):
        pnm.write_pnm(tmp_path / "images" / f"flat{i}.ppm", np.full((40, 40, 3), 128.0))
    assert main(["preprocess", "--config", str(cfg_path)]) == 2
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and "zero variance" in err[0], err
    assert str(tmp_path / "images") in err[0], err
    assert not (tmp_path / "out").exists()


def test_train_on_patches_with_a_nan_exit_2_and_write_nothing(tmp_path, capsys):
    cfg_path = tiny_patches_config(tmp_path)
    patches_path = tmp_path / "patches.mpk"
    patches = read_container(patches_path)["patches"]
    patches[5, 2] = np.nan
    write_container(patches_path, {"patches": patches})
    assert main(["train", "--config", str(cfg_path), "--iterations", "4"]) == 2
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and "patches.mpk" in err[0] and "1 non-finite" in err[0], err
    assert not (tmp_path / "out").exists()


# Every flag and the commands that read it: a command accepts exactly these.
READS = {
    "--config": {"preprocess", "train", "sample", "synth", "export"},
    "--seed": {"preprocess", "train", "check", "sample", "synth"},
    "--resume": {"train", "sample", "export"},
    "--iterations": {"train", "sample"},
    "--out": {"preprocess", "train", "sample", "synth", "export"},
    "--json": {"check"},
    "--what": {"export"},
}
FLAG_ARGV = {"--config": ["missing.cfg"], "--seed": ["3"], "--resume": ["ck.mpk"],
             "--iterations": ["2"], "--out": ["out"], "--json": [], "--what": ["all"]}
COMMAND_NAMES = ("preprocess", "train", "check", "sample", "synth", "export")


def test_parser_has_exactly_the_22_pairs():
    (commands,) = [a.choices for a in build_parser()._actions
                   if isinstance(a, argparse._SubParsersAction)]
    pairs = {(name, flag) for name, parser in commands.items() for action in parser._actions
             for flag in action.option_strings if flag not in ("-h", "--help")}
    assert pairs == {(name, flag) for flag, names in READS.items() for name in names}
    assert len(pairs) == 22


@pytest.mark.parametrize("flag", sorted(READS))
@pytest.mark.parametrize("command", COMMAND_NAMES)
def test_command_takes_only_the_flags_it_reads(capsys, command, flag):
    argv = [command, flag] + FLAG_ARGV[flag]
    if command in READS[flag]:
        args = build_parser().parse_args(argv)
        assert args.command == command
    else:
        # rejected by the parser before any command runs, e.g. check --config missing.cfg
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == 2
        err = capsys.readouterr().err
        assert err.startswith("usage: ") and f"unrecognized arguments: {flag}" in err


def test_sample_iterations_default_to_100():
    assert build_parser().parse_args(["sample"]).iterations == 100
    assert build_parser().parse_args(["train"]).iterations is None


def test_benchmark_argv_forms_run(tmp_path, capsys):
    # the argument lists perfbench/workloads.py hands to main()
    from mpkrbm.params import ModelShape, init_params, save_checkpoint

    cfg_path, _ = base_config(tmp_path)
    write_images(tmp_path / "images")
    assert main(["preprocess", "--config", str(cfg_path), "--seed", "3",
                 "--out", str(tmp_path / "pre")]) == 0
    assert (tmp_path / "pre" / "patches.mpk").exists()
    ck = tmp_path / "ck.mpk"
    save_checkpoint(init_params(ModelShape(6, 2, 2, 2, 2, 2, 2), seed=0), {"step_size": 0.05}, ck)
    assert main(["sample", "--resume", str(ck), "--seed", "3", "--out", str(tmp_path / "s"),
                 "--iterations", "2"]) == 0
    assert (tmp_path / "s" / "samples.mpk").exists()


@pytest.mark.parametrize("iterations", ["0", "-3"])
@pytest.mark.parametrize("command", ["train", "sample"])
def test_non_positive_iterations_exit_3_and_write_nothing(tmp_path, capsys, command,
                                                          iterations):
    cfg_path, _ = base_config(tmp_path)
    write_images(tmp_path / "images")
    out = tmp_path / "out"
    assert main(["preprocess", "--config", str(cfg_path)]) == 0
    assert main(["train", "--config", str(cfg_path), "--iterations", "6"]) == 0
    ck = str(out / "checkpoint.mpk")
    assert main(["sample", "--resume", ck, "--iterations", "1", "--out", str(out)]) == 0
    before = {p.name: p.read_bytes() for p in out.iterdir()}
    assert {"checkpoint.mpk", "metrics.csv", "samples.mpk"} <= set(before)
    capsys.readouterr()
    assert main([command, "--config", str(cfg_path), "--resume", ck,
                 "--iterations", iterations, "--out", str(out)]) == 3
    err = capsys.readouterr().err.splitlines()
    assert err == [f"error: --iterations must be at least 1, got {iterations}"]
    assert {p.name: p.read_bytes() for p in out.iterdir()} == before


KILL_AT_ITERATION_6 = """
import os, signal, sys
import mpkrbm.trainer as trainer
from mpkrbm.cli import main
step = trainer.cd1_step
def killed_at_6(*args, **kwargs):
    if kwargs["iteration"] == 6:
        os.kill(os.getpid(), signal.SIGKILL)
    return step(*args, **kwargs)
trainer.cd1_step = killed_at_6
main(sys.argv[1:])
"""


@pytest.mark.parametrize("stop", ["exception", "kill"])
def test_resume_after_a_stop_between_checkpoints_is_exact(tmp_path, monkeypatch, stop):
    cfg_path, config = base_config(tmp_path)
    config.trainer.checkpoint_every = 4
    save_run_config(config, cfg_path)
    write_images(tmp_path / "images")
    assert main(["preprocess", "--config", str(cfg_path)]) == 0
    full, cut = tmp_path / "full", tmp_path / "cut"
    assert main(["train", "--config", str(cfg_path), "--out", str(full)]) == 0

    train_argv = ["train", "--config", str(cfg_path), "--out", str(cut)]
    if stop == "exception":
        step = trainer_module.cd1_step

        def fails_at_6(*args, **kwargs):
            if kwargs["iteration"] == 6:
                raise RuntimeError("stopped at iteration 6")
            return step(*args, **kwargs)

        monkeypatch.setattr(trainer_module, "cd1_step", fails_at_6)
        with pytest.raises(RuntimeError):
            main(train_argv)
        monkeypatch.undo()
    else:
        env = dict(os.environ, PYTHONPATH=str(Path(mpkrbm.__file__).parents[1]))
        proc = subprocess.run([sys.executable, "-c", KILL_AT_ITERATION_6] + train_argv,
                              env=env, capture_output=True, timeout=120)
        assert proc.returncode == -signal.SIGKILL, proc.stderr
        # a kill can also leave the row being flushed torn: this one reads as iteration 1
        with open(cut / "metrics.csv", "a") as fh:
            fh.write("1")
    rows = (cut / "metrics.csv").read_text().splitlines()[1:]
    assert [row.split(",")[0] for row in rows][:4] == ["0", "1", "2", "3"]

    assert main(["train", "--config", str(cfg_path), "--resume", str(cut / "checkpoint.mpk"),
                 "--out", str(cut)]) == 0
    assert (cut / "metrics.csv").read_bytes() == (full / "metrics.csv").read_bytes()
    assert checksum(cut / "checkpoint.mpk") == checksum(full / "checkpoint.mpk")


def test_resume_of_a_finished_run_keeps_its_checkpoint(tmp_path):
    # the checkpoint of a finished stage-0 run still records stage 0, so
    # `sample` still runs the model without phase units that it trained
    cfg_path, config = base_config(tmp_path)
    config.trainer.stage_iterations = (3, 0, 0, 0, 0)
    save_run_config(config, cfg_path)
    write_images(tmp_path / "images")
    assert main(["preprocess", "--config", str(cfg_path)]) == 0
    assert main(["train", "--config", str(cfg_path)]) == 0
    ck = tmp_path / "out" / "checkpoint.mpk"
    digest = checksum(ck)
    assert main(["train", "--config", str(cfg_path), "--resume", str(ck)]) == 0
    assert load_checkpoint(ck)[1]["stage"] == 0
    assert checksum(ck) == digest


def test_resume_past_a_shorter_schedule_exit_3_and_write_nothing(tmp_path, capsys):
    # its checkpoint would be rewritten as iteration 5 holding iteration 10's params
    cfg_path, config = base_config(tmp_path)
    write_images(tmp_path / "images")
    assert main(["preprocess", "--config", str(cfg_path)]) == 0
    out = tmp_path / "out"
    assert main(["train", "--config", str(cfg_path), "--iterations", "10"]) == 0
    before = {p.name: p.read_bytes() for p in out.iterdir()}
    config.trainer.stage_iterations = (1, 1, 1, 1, 1)
    save_run_config(config, cfg_path)
    capsys.readouterr()
    assert main(["train", "--config", str(cfg_path), "--resume",
                 str(out / "checkpoint.mpk")]) == 3
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and "iteration 10" in err[0] and "5-iteration" in err[0], err
    assert {p.name: p.read_bytes() for p in out.iterdir()} == before


def test_resume_into_a_new_directory_writes_the_header(tmp_path):
    cfg_path, _ = base_config(tmp_path)
    write_images(tmp_path / "images")
    assert main(["preprocess", "--config", str(cfg_path)]) == 0
    full, first, second = tmp_path / "full", tmp_path / "first", tmp_path / "second"
    assert main(["train", "--config", str(cfg_path), "--out", str(full)]) == 0
    assert main(["train", "--config", str(cfg_path), "--iterations", "5",
                 "--out", str(first)]) == 0
    assert main(["train", "--config", str(cfg_path), "--resume", str(first / "checkpoint.mpk"),
                 "--out", str(second)]) == 0
    header, *rows = (full / "metrics.csv").read_text().splitlines(keepends=True)
    assert (second / "metrics.csv").read_text() == header + "".join(rows[5:])
    # an empty file left where the run resumes gets the header too
    (first / "metrics.csv").write_text("")
    assert main(["train", "--config", str(cfg_path), "--resume", str(first / "checkpoint.mpk"),
                 "--out", str(first)]) == 0
    assert (first / "metrics.csv").read_text() == header + "".join(rows[5:])


def test_resume_onto_metrics_with_other_columns_exit_2(tmp_path, capsys):
    # rows of two formats never share one file: the run stops before it writes
    cfg_path, _ = base_config(tmp_path)
    write_images(tmp_path / "images")
    assert main(["preprocess", "--config", str(cfg_path)]) == 0
    out = tmp_path / "out"
    assert main(["train", "--config", str(cfg_path), "--iterations", "5"]) == 0
    metrics = out / "metrics.csv"
    header, *rows = metrics.read_text().splitlines(keepends=True)
    old_columns = header.replace(",divergences,mean_delta_h", "")
    assert old_columns != header
    metrics.write_text(old_columns + "".join(rows))
    before = {p.name: p.read_bytes() for p in out.iterdir()}
    capsys.readouterr()
    assert main(["train", "--config", str(cfg_path), "--resume",
                 str(out / "checkpoint.mpk")]) == 2
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and err[0].startswith("error: ") and "metrics.csv" in err[0], err
    assert {p.name: p.read_bytes() for p in out.iterdir()} == before


def test_checkpoint_records_the_blas_thread_count(tmp_path, monkeypatch):
    cfg_path, _ = base_config(tmp_path)
    write_images(tmp_path / "images")
    assert main(["preprocess", "--config", str(cfg_path)]) == 0
    ck = tmp_path / "out" / "checkpoint.mpk"

    monkeypatch.setattr(blas, "threads", lambda: 3)
    assert main(["train", "--config", str(cfg_path), "--iterations", "5"]) == 0
    assert load_checkpoint(ck)[1]["blas_threads"] == 3.0
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        assert main(["train", "--config", str(cfg_path), "--resume", str(ck),
                     "--iterations", "1"]) == 0
    assert not [w for w in caught if "BLAS threads" in str(w.message)]

    monkeypatch.setattr(blas, "threads", lambda: 1)
    with pytest.warns(UserWarning, match="written with 3 BLAS threads, this run has 1"):
        assert main(["train", "--config", str(cfg_path), "--resume", str(ck),
                     "--iterations", "1"]) == 0
    assert load_checkpoint(ck)[1]["blas_threads"] == 1.0

    # without an OpenBLAS to ask, nothing is recorded and nothing is compared
    monkeypatch.setattr(blas, "threads", lambda: None)
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        assert main(["train", "--config", str(cfg_path), "--resume", str(ck),
                     "--iterations", "1"]) == 0
    assert not [w for w in caught if "BLAS threads" in str(w.message)]
    assert "blas_threads" not in load_checkpoint(ck)[1]


def test_blas_thread_count_follows_the_environment(tmp_path):
    # numpy's OpenBLAS sizes its pool from OPENBLAS_NUM_THREADS at load time
    if blas.threads() is None:
        pytest.skip("numpy is not linked to an OpenBLAS that blas.py can find")
    env = dict(os.environ, OPENBLAS_NUM_THREADS="1",
               PYTHONPATH=str(Path(mpkrbm.__file__).parents[1]))
    proc = subprocess.run([sys.executable, "-c", "from mpkrbm import blas; print(blas.threads())"],
                          env=env, capture_output=True, text=True, timeout=60)
    assert proc.stdout.strip() == "1", proc.stderr
