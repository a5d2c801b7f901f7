import ctypes
import hashlib
import tracemalloc
from collections import Counter

import numpy as np
import pytest
from scipy import stats as scipy_stats

from mpkrbm import blas, energy, grad
from mpkrbm.energy import free_energy
from mpkrbm.errors import ParameterError
from mpkrbm.grad import grad_free_energy_v, random_tiny_params
from mpkrbm.params import LEARNABLE_TENSORS, ModelParams, ModelShape, init_params
from mpkrbm.sampler import Chain, HmcConfig, gaussian_moment_probe, hmc_chain, leapfrog


def zero_params(dim):
    return ModelParams(
        C=np.zeros((dim, 1, 2)), P=np.zeros((1, 1)), W=np.zeros((dim, 1)),
        Q=np.zeros((1, 2, 1)), R=np.zeros((1, 1)),
        b_c=np.zeros(1), b_m=np.zeros(1), b_k=np.zeros(1), b_v=np.zeros(dim),
    )


def mean_field_params(weights, biases):
    """1-D model whose free energy is 1/2 v^2 - sum softplus(w v + b):
    smooth, non-Gaussian, and easy to integrate on a grid."""
    M = len(weights)
    return ModelParams(
        C=np.zeros((1, 1, 2)), P=np.zeros((1, 1)),
        W=np.asarray(weights, dtype=float).reshape(1, M),
        Q=np.zeros((1, 2, 1)), R=np.zeros((1, 1)),
        b_c=np.zeros(1), b_m=np.asarray(biases, dtype=float),
        b_k=np.zeros(1), b_v=np.zeros(1),
    )


def test_leapfrog_reversibility():
    rng = np.random.default_rng(0)
    for seed in range(5):
        params = random_tiny_params(seed)
        grad_fn = lambda x: grad_free_energy_v(x, params)
        v0 = rng.standard_normal((3, 4))
        p0 = rng.standard_normal((3, 4))
        v1, p1, g1 = leapfrog(v0, p0, grad_fn(v0), grad_fn, 0.01, 20)
        assert g1.tobytes() == grad_fn(v1).tobytes()
        v2, p2, _ = leapfrog(v1, -p1, g1, grad_fn, 0.01, 20)
        assert np.max(np.abs(v2 - v0)) < 1e-8
        assert np.max(np.abs(-p2 - p0)) < 1e-8


def forwards_by_dtype(forwards):
    """Counted `energy._forward` calls by the dtype of the params they ran on."""
    return dict(Counter(args[1].C.dtype.name for args in forwards["args"]))


def test_one_simulation_runs_one_forward_per_gradient(count_calls):
    # leapfrog's gradients are float32, one forward each; the Hamiltonian
    # takes a float64 F-only forward at the start point and at the end point
    params = random_tiny_params(2)
    v0 = np.random.default_rng(3).standard_normal((5, 4))
    forwards = count_calls(energy, "_forward")
    f_calls = count_calls(energy, "free_energy")
    for k in (1, 3, 20):
        forwards["args"].clear()
        hmc_chain(Chain.at(v0, params), params, HmcConfig(n_leapfrog=k, seed=4), 1)
        assert forwards_by_dtype(forwards) == {"float32": k + 1, "float64": 2}
    assert f_calls["n"] == 0


def test_simulations_carry_the_gradient_at_the_current_state(count_calls):
    # the first simulation evaluates its start point; every later one starts
    # where the last one left each row (accepted or rejected), whose F and
    # dF/dv are known, and ends exactly where separate calls would
    params = random_tiny_params(2)
    v0 = np.random.default_rng(3).standard_normal((5, 4))
    forwards = count_calls(energy, "_forward")
    for k, n in ((1, 2), (3, 4), (20, 10)):
        config = HmcConfig(n_leapfrog=k, seed=4, step_size=0.5)
        forwards["args"].clear()
        whole, stats = hmc_chain(Chain.at(v0, params), params, config, n)
        assert forwards_by_dtype(forwards) == {"float32": n * k + 1, "float64": n + 1}
        assert 0 < stats.accepted < stats.proposed

        rng, v, step = np.random.default_rng(4), v0, None
        for _ in range(n):
            chain, one = hmc_chain(Chain.at(v, params), params, config, 1, rng=rng,
                                   step_size=step)
            v, step = chain.rows, one.current_step_size
        assert np.array_equal(whole.rows, v) and step == stats.current_step_size


def test_a_returned_chain_carries_its_gradient(count_calls):
    # a Chain that hmc_chain returned carries dF/dv at its rows, so calls
    # that continue it run no forward at their start points, and end where
    # one n-simulation call ends, bit for bit
    params = random_tiny_params(2)
    v0 = np.random.default_rng(3).standard_normal((5, 4))
    forwards = count_calls(energy, "_forward")
    for k, n in ((1, 2), (3, 4), (20, 10)):
        config = HmcConfig(n_leapfrog=k, seed=4, step_size=0.5)
        whole, stats = hmc_chain(Chain.at(v0, params), params, config, n)
        rng = np.random.default_rng(4)
        chain, one = hmc_chain(Chain.at(v0, params), params, config, 1, rng=rng)
        forwards["args"].clear()
        for _ in range(n - 1):
            chain, one = hmc_chain(chain, params, config, 1, rng=rng,
                                   step_size=one.current_step_size)
        assert forwards_by_dtype(forwards) == {"float32": (n - 1) * k, "float64": n - 1}
        assert np.array_equal(chain.rows, whole.rows)
        assert np.array_equal(chain.forward.f, whole.forward.f)
        assert np.array_equal(chain.grad, whole.grad)
        assert one.current_step_size == stats.current_step_size


def test_f_runs_only_for_the_hamiltonian(count_calls):
    # the leapfrog takes dF/dv alone, from float32 forwards; F runs only for
    # H, in float64, at the first start point and at every end point
    params = random_tiny_params(2)
    v0 = np.random.default_rng(3).standard_normal((5, 4))
    f_calls = count_calls(energy, "_free_energy")
    gradients = count_calls(grad, "grad_free_energy_v")
    for k, n in ((1, 2), (3, 4), (20, 10)):
        for counter in (f_calls, gradients):
            counter["n"] = 0
            counter["args"].clear()
        config = HmcConfig(n_leapfrog=k, seed=4, step_size=0.5)
        hmc_chain(Chain.at(v0, params), params, config, n)
        assert f_calls["n"] == n + 1
        assert {args[1].C.dtype.name for args in f_calls["args"]} == {"float64"}
        assert gradients["n"] == n * k + 1
        assert {args[1].C.dtype.name for args in gradients["args"]} == {"float32"}


def forward_arrays(fw):
    """name -> array for every row array of a forward pass (with F)."""
    return {name: a for name, a in vars(fw).items() if isinstance(a, np.ndarray)}


@pytest.mark.parametrize("n", [1, 3])
@pytest.mark.parametrize("with_phase, step", [(True, 0.01), (False, 0.5)])
def test_a_kept_forward_is_a_fresh_forward_of_its_rows(with_phase, step, n):
    # the forward a Chain gets back mixes the proposal's rows with the rows
    # it rejected; every array of it, all that the parameter gradient reads,
    # is what a forward of the final rows computes, bit for bit
    params = init_params(ModelShape(200, 256, 2, 256, 100, 256, 256), 3)
    if not with_phase:
        params = params.without_phase()
    v0 = np.random.default_rng(4).standard_normal((32, 200))
    data = Chain.at(v0, params)
    before = {name: a.copy() for name, a in forward_arrays(data.forward).items()}
    config = HmcConfig(step_size=step, seed=5)
    model, stats = hmc_chain(data, params, config, n, rng=np.random.default_rng(6))
    assert 0 < stats.accepted < stats.proposed

    fresh = energy._forward(model.rows, params)
    energy._free_energy(fresh, params)
    kept = forward_arrays(model.forward)
    assert kept.keys() == forward_arrays(fresh).keys()
    for name, a in forward_arrays(fresh).items():
        assert np.array_equal(kept[name], a), name
    from_kept = grad.grad_params_from_forward(model.forward, params)
    from_rows = grad.grad_free_energy_params(model.rows, params)
    for name in LEARNABLE_TENSORS:
        assert np.array_equal(from_kept[name], from_rows[name]), name

    # the data's forward is left as it was
    for name, a in forward_arrays(data.forward).items():
        assert np.array_equal(a, before[name]), name


def test_chain_returns_float64_and_leaves_its_params_alone():
    # the trajectory runs on a float32 copy; the caller's params and the
    # samples stay float64
    params = random_tiny_params(5)
    before = params.copy()
    rng = np.random.default_rng(6)
    for v0 in (rng.standard_normal((6, 4)), rng.standard_normal((1, 4)).astype(np.float32)):
        chain, _ = hmc_chain(Chain.at(v0, params), params, HmcConfig(seed=7), 3)
        assert chain.rows.dtype == np.float64 and chain.rows.shape == v0.shape
    for name in LEARNABLE_TENSORS:
        now, then = getattr(params, name), getattr(before, name)
        assert now.dtype == then.dtype == np.float64
        assert now.tobytes() == then.tobytes(), name
    assert params.alpha == before.alpha


@pytest.mark.parametrize("with_phase", [True, False])
def test_a_phase_off_chain_casts_no_phase_tensor(monkeypatch, with_phase):
    # the leapfrog of a stage 0-1 chain never reads Q, R or b_k: its float32
    # copy of the params holds an empty phase family
    seen = []

    def record(v, params32):
        seen.append((params32.Q.shape, params32.R.shape, params32.b_k.shape))
        return original(v, params32)

    original = grad.grad_free_energy_v
    monkeypatch.setattr("mpkrbm.sampler.grad_free_energy_v", record)
    params = random_tiny_params(5)
    held = params if with_phase else params.without_phase()
    v0 = np.random.default_rng(6).standard_normal((6, 4))
    hmc_chain(Chain.at(v0, held), held, HmcConfig(n_leapfrog=3, seed=7), 2)
    full = (params.Q.shape, params.R.shape, params.b_k.shape)
    assert set(seen) == {full if with_phase else ((2, 2, 0), (0, 0), (0,))}


def test_chain_memory_does_not_grow_with_simulations():
    # each simulation's forwards die with it, so running more simulations
    # must not raise the peak by as much as one float64 forward more
    params = init_params(ModelShape(200, 256, 2, 256, 100, 256, 256), 3)
    start = Chain.at(np.random.default_rng(8).standard_normal((64, 200)), params)
    forward_bytes = sum(a.nbytes for a in forward_arrays(start.forward).values())
    peaks = []
    tracemalloc.start()
    try:
        for n in (2, 6):
            base = tracemalloc.get_traced_memory()[0]
            tracemalloc.reset_peak()
            hmc_chain(start, params, HmcConfig(seed=9), n)
            peaks.append(tracemalloc.get_traced_memory()[1] - base)
    finally:
        tracemalloc.stop()
    assert peaks[1] - peaks[0] < forward_bytes, (peaks, forward_bytes)


def test_small_step_limit_accepts():
    params = random_tiny_params(1)
    rng = np.random.default_rng(2)
    v0 = rng.standard_normal((50, 4))
    config = HmcConfig(step_size=1e-6, adapt_rate=0.0, seed=3)
    chain, stats = hmc_chain(Chain.at(v0, params), params, config, 1)
    assert stats.accepted == stats.proposed
    assert abs(stats.mean_delta_h) < 1e-8
    assert np.max(np.abs(chain.rows - v0)) < 1e-3


def test_gaussian_target_moments():
    probe = gaussian_moment_probe(n_chains=150, burn=300, keep=40, seed=11)
    assert np.all(probe["mean_abs"] <= probe["mean_4se"])
    assert np.all(probe["var_abs_err"] <= probe["var_4se"])


def test_probe_runs_one_float64_forward_per_simulation(count_calls):
    # each kept state continues the Chain the last simulation returned, with
    # its dF/dv, so only the first start point needs forwards of its own
    forwards = count_calls(energy, "_forward")
    burn, keep, k = 30, 10, 3
    gaussian_moment_probe(n_chains=20, burn=burn, keep=keep, seed=3,
                          config=HmcConfig(n_leapfrog=k, seed=3))
    assert forwards_by_dtype(forwards) == {"float64": 1 + burn + keep,
                                           "float32": 1 + burn * k + keep * k}


# gaussian_moment_probe(n_chains=20, burn=30, keep=10, seed=3) at the default
# config and at one that rejects some proposals, recorded before the probe
# carried its Chain from one kept state to the next: the first 16 hex digits
# of the SHA-256 of the bytes of its values in key order, the rejection rate
# and the final step as an exact float. The digest holds on the platform of
# CHAIN_REFERENCE, at one and at two BLAS threads.
PROBE_REFERENCE = {
    "default": ("1692fc33f8106799", 0.0, "0x1.69c3e55bd67d3p-6"),
    "rejecting": ("f85c239780f7a3d0", 0.1, "0x1.19517b6ddfed7p+0"),
}


@pytest.mark.parametrize("case", PROBE_REFERENCE)
def test_probe_keeps_its_bits(case):
    config = HmcConfig(n_leapfrog=3, step_size=1.2, seed=3) if case == "rejecting" else None
    probe = gaussian_moment_probe(n_chains=20, burn=30, keep=10, seed=3, config=config)
    digest, rejection_rate, step = PROBE_REFERENCE[case]
    if (np.__version__, blas.openblas("get_corename", ctypes.c_char_p)) == REFERENCE_PLATFORM:
        data = b"".join(np.asarray(probe[key]).tobytes() for key in sorted(probe))
        assert hashlib.sha256(data).hexdigest()[:16] == digest
    assert probe["n_samples"] == 200
    assert probe["rejection_rate"] == pytest.approx(rejection_rate, abs=1e-12)
    assert probe["step_size"] == pytest.approx(float.fromhex(step), rel=1e-9)


def test_adaptation_settles_near_target_rejection():
    probe = gaussian_moment_probe(n_chains=200, burn=400, keep=80, seed=5)
    assert abs(probe["rejection_rate"] - 0.10) <= 0.05


def test_chain_invariance_chi_square():
    # fixed step size; final states of independent chains vs quadrature
    params = mean_field_params([1.4, -0.9], [0.4, -0.2])
    grid = np.linspace(-8.0, 8.0, 20001)
    log_density = -free_energy(grid[:, None], params)
    density = np.exp(log_density - log_density.max())
    cdf = np.cumsum(density)
    cdf /= cdf[-1]

    n_bins = 20
    edges_idx = np.searchsorted(cdf, np.linspace(0, 1, n_bins + 1)[1:-1])
    edges = grid[edges_idx]

    n_chains = 3000
    rng = np.random.default_rng(17)
    v = 3.0 * rng.standard_normal((n_chains, 1))
    config = HmcConfig(n_leapfrog=20, step_size=0.5, adapt_rate=0.0, seed=17)
    chain, stats = hmc_chain(Chain.at(v, params), params, config, 250, rng=rng)
    assert stats.divergences == 0

    counts, _ = np.histogram(chain.rows[:, 0], bins=np.concatenate([[-np.inf], edges, [np.inf]]))
    expected = n_chains / n_bins
    chi2 = float(np.sum((counts - expected) ** 2 / expected))
    threshold = scipy_stats.chi2.ppf(0.99, df=n_bins - 1)
    assert chi2 < threshold, (chi2, threshold)


def test_deterministic_given_seed():
    params = random_tiny_params(3)
    v0 = np.random.default_rng(4).standard_normal((8, 4))
    config = HmcConfig(seed=99)
    a, stats_a = hmc_chain(Chain.at(v0, params), params, config, 25)
    b, stats_b = hmc_chain(Chain.at(v0, params), params, config, 25)
    assert np.array_equal(a.rows, b.rows)
    assert stats_a.trace == stats_b.trace


def test_chunked_calls_match_single_call():
    params = random_tiny_params(6)
    v0 = np.random.default_rng(7).standard_normal((5, 4))
    config = HmcConfig(seed=42)

    whole, stats = hmc_chain(Chain.at(v0, params), params, config, 10)

    rng = np.random.default_rng(42)
    v, step = v0, None
    for _ in range(10):
        chain, s = hmc_chain(Chain.at(v, params), params, config, 1, rng=rng, step_size=step)
        v, step = chain.rows, s.current_step_size
    assert np.array_equal(whole.rows, v)
    assert step == stats.current_step_size


def test_adaptation_direction():
    params = zero_params(4)
    v0 = np.random.default_rng(8).standard_normal((40, 4))
    # tiny step: everything accepted, rejection < target, step must grow
    config = HmcConfig(step_size=1e-4, seed=1)
    _, stats = hmc_chain(Chain.at(v0, params), params, config, 1)
    assert stats.current_step_size > 1e-4
    # huge step on a quadratic target: mass rejection, step must shrink
    config = HmcConfig(step_size=1.99, seed=1)
    _, stats = hmc_chain(Chain.at(v0, params), params, config, 1)
    assert stats.current_step_size < 1.99 or stats.divergences > 0


def test_divergent_rows_rejected_not_crashed():
    params = random_tiny_params(9)
    v0 = np.random.default_rng(10).standard_normal((6, 4))
    config = HmcConfig(step_size=1e6, seed=2)     # blows up immediately
    chain, stats = hmc_chain(Chain.at(v0, params), params, config, 3)
    assert np.all(np.isfinite(chain.rows))
    assert stats.divergences > 0
    assert stats.accepted <= stats.proposed
    # divergence forces the halving branch
    assert stats.current_step_size < 1e6


def test_stats_csv_lines():
    params = zero_params(3)
    v0 = np.random.default_rng(11).standard_normal((4, 3))
    _, stats = hmc_chain(Chain.at(v0, params), params, HmcConfig(seed=12), 5)
    lines = stats.csv_lines()
    assert len(lines) == 5
    assert all(len(line.split(",")) == 3 for line in lines)


def test_config_validation():
    with pytest.raises(ValueError):
        HmcConfig(n_leapfrog=0).validate()
    with pytest.raises(ValueError):
        HmcConfig(target_rejection=1.5).validate()


@pytest.mark.parametrize("field, value", [
    ("step_size", float("nan")), ("step_size", float("inf")), ("step_size", 0.0),
    ("adapt_rate", 1.0), ("adapt_rate", -0.02), ("adapt_rate", float("nan")),
])
def test_config_rejects_a_step_that_cannot_move(field, value):
    # a NaN step makes every proposal a divergence; at adapt_rate 1 the
    # step falls to 0 after one rejecting simulation and the chains freeze
    with pytest.raises(ParameterError, match=field):
        HmcConfig(**{field: value}).validate()
    HmcConfig(adapt_rate=0.0).validate()


# Final positions and trace of hmc_chain, recorded before the leapfrog took
# its start gradient as an argument: the first 16 hex digits of the SHA-256
# of the position bytes followed by repr(stats.trace), the positions' sum as
# an exact float, and the accepted count. The digest holds where it was
# recorded, numpy 2.4.6 on OpenBLAS's SkylakeX kernels, at one and at two
# BLAS threads.
CHAIN_REFERENCE = {
    "paper": ("679068a0620c8299", "0x1.cd3d7a53e36a8p+3", 25),
    "tiny": ("504461ce739154e1", "0x1.4acfe316836c9p+4", 23),
}
REFERENCE_PLATFORM = ("2.4.6", b"SkylakeX")


def reference_chain(case):
    if case == "paper":     # rejects most proposals at this step, not all
        params = init_params(ModelShape(200, 256, 2, 256, 100, 256, 256), 3)
        v0 = 0.1 * np.random.default_rng(5).standard_normal((64, 200))
        return hmc_chain(Chain.at(v0, params), params, HmcConfig(step_size=0.002, seed=6), 4)
    v0 = np.random.default_rng(3).standard_normal((5, 4))
    config = HmcConfig(n_leapfrog=3, step_size=0.5, seed=4)
    params = random_tiny_params(2)
    return hmc_chain(Chain.at(v0, params), params, config, 6)


@pytest.mark.parametrize("case", CHAIN_REFERENCE)
def test_chain_keeps_its_bits(case):
    chain, stats = reference_chain(case)
    v = chain.rows
    digest, v_sum, accepted = CHAIN_REFERENCE[case]
    assert 0 < stats.accepted < stats.proposed
    if (np.__version__, blas.openblas("get_corename", ctypes.c_char_p)) == REFERENCE_PLATFORM:
        data = v.tobytes() + repr(stats.trace).encode()
        assert hashlib.sha256(data).hexdigest()[:16] == digest
    # elsewhere float32 kernels round the trajectory differently
    assert stats.accepted == accepted
    assert v.sum() == pytest.approx(float.fromhex(v_sum), rel=1e-6)
