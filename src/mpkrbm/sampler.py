"""Hybrid Monte Carlo over the visible space.

Each batch row is an independent chain. One simulation draws a fresh
momentum, runs a fixed number of leapfrog steps on the Hamiltonian
H = F(v) + 1/2 ||p||^2 and applies a Metropolis correction; a shared step
size adapts multiplicatively toward a target rejection rate after every
simulation. Rows whose Hamiltonian turns non-finite are rejected and
counted as divergences, and the step size is halved for that batch.

Mixed precision. The trajectory only has to be a deterministic,
reversible, volume-preserving map; the Metropolis test on the exact H is
what leaves the target invariant, whatever gradient drove the map (Neal
2011, "MCMC using Hamiltonian dynamics", section 5.5). So `hmc_chain`
takes every leapfrog gradient from a float32 copy of the params, made
once per call, through `grad.grad_free_energy_v`, which computes dF/dv
alone and no F, and casts it back to float64; v and p stay float64. In
that copy a P or R whose nonzeros all lie on the diagonal (the banded
pattern that stage 0 holds P at and stages 0-2 hold R at, -I and I at the
paper shape) is an `energy.Diagonal`, so its two products per gradient
are one elementwise scaling each, with BLAS's bits (the other terms of
each sum are zeros). The float64 params name the density sampled, with the
phase units exactly where they have a phase family: a chain of
`params.without_phase()` casts no Q, R or b_k. `cli.cmd_sample` passes
them with P and R as `Diagonal`s already, where the copy keeps them.
`leapfrog` takes the gradient at its start point and returns the one at
its end point, so a simulation of K steps computes K gradients, each at a
new position. H at the start and end points comes from a float64 F, the
only F a simulation computes, so the test is as exact as the float64
model: a float32 F is off by up to about 1e-3 nats at the paper shape,
where |F| is in the hundreds, and that error would enter every delta H.
Samples, like the params, are float64.

`hmc_chain` takes a `Chain`, the whole state of the chains from one
simulation to the next: the float64 forward with F at the rows, and dF/dv
there, both of the params the chain samples. Each simulation runs K float32
gradient-only forwards and one float64 forward with F, at the end point,
and `hmc_chain` returns the final Chain. It adds one float32 forward at the
start for dF/dv only when its chain has none (one fresh from `Chain.at`),
so n simulations on a Chain it returned run n*K float32 forwards. Callers
that hold rows make their Chain with `Chain.at`, which runs the float64
forward there. CD-1 (`trainer.cd1_step`) gives it the data's Chain and runs
its parameter gradients from the data's forward and the returned model
rows' forward, so an iteration at the default K = 20 runs 23 forwards: 21
float32 and 2 float64.
"""

from dataclasses import dataclass, field
from types import SimpleNamespace

import numpy as np

from .energy import Diagonal, _forward, _free_energy
from .errors import ParameterError
from .grad import grad_free_energy_v

STEP_FLOOR = 1e-12


@dataclass
class HmcConfig:
    n_leapfrog: int = 20
    target_rejection: float = 0.10
    step_size: float = 0.01
    adapt_rate: float = 0.02
    seed: int = 0

    def validate(self):
        if self.n_leapfrog < 1:
            raise ParameterError("n_leapfrog must be >= 1")
        if not 0.0 < self.target_rejection < 1.0:
            raise ParameterError("target_rejection must be in (0, 1)")
        if not 0.0 < self.step_size < np.inf:
            raise ParameterError("step_size must be finite and > 0")
        if not 0.0 <= self.adapt_rate < 1.0:
            raise ParameterError("adapt_rate must be in [0, 1)")


@dataclass
class HmcStats:
    accepted: int = 0
    proposed: int = 0
    divergences: int = 0
    current_step_size: float = 0.0
    mean_delta_h: float = 0.0
    # one (step_size, rejection_rate, mean_delta_h) triple per simulation
    trace: list = field(default_factory=list)

    @property
    def rejection_rate(self):
        return 1.0 - self.accepted / self.proposed if self.proposed else 0.0

    @staticmethod
    def csv_header():
        return "step_size,rejection_rate,mean_delta_h"

    def csv_lines(self):
        return [f"{s:.8g},{r:.6g},{dh:.8g}" for s, r, dh in self.trace]


def leapfrog(v, p, grad, grad_fn, step_size, n_steps):
    """Standard leapfrog integration from (v, p), given grad = dF/dv at v;
    volume preserving and reversible up to floating-point roundoff.

    Returns the end point, its momentum and dF/dv there, which is the start
    gradient of a trajectory that begins at the end point. `grad_fn` runs
    once per step, always at a new position.
    """
    v = v.copy()
    p = p - 0.5 * step_size * grad
    for i in range(n_steps):
        v += step_size * p
        grad = grad_fn(v)
        if i < n_steps - 1:
            p -= step_size * grad
    p -= 0.5 * step_size * grad
    return v, p, grad


@dataclass
class Chain:
    """The state of a batch of chains, one per row: the float64 forward
    (`energy._forward`) at the rows, with F, and `grad`, dF/dv at the rows
    from the float32 params of `hmc_chain`, or None until `hmc_chain` takes
    it. Both belong to one set of params, which `hmc_chain` must be given.
    Made by `Chain.at`; `hmc_chain` takes one and returns the next."""

    forward: SimpleNamespace
    grad: np.ndarray = None

    @classmethod
    def at(cls, rows, params):
        """A chain at `rows` (B, D) of the model `params`: every hidden family
        in training stages 2-4, `params.without_phase()` in stages 0-1."""
        fw = _forward(rows, params)
        _free_energy(fw, params)
        return cls(fw)

    @property
    def rows(self):
        return self.forward.V


def hmc_chain(chain, params, config, n_simulations, rng=None, step_size=None):
    """Run `n_simulations` HMC simulations on every row of `chain`, a
    `Chain` of `params`, the model it samples. Each draws a fresh
    momentum, runs `leapfrog`, takes the float64 forward with F of the end
    point and applies the Metropolis test on H; a non-finite delta H is
    rejected.

    Returns the final Chain, with its dF/dv, and an HmcStats whose
    current_step_size carries the adapted value (pass it back via
    `step_size` to continue a chain across calls). A caller-supplied `rng`
    preserves its stream, so repeated 1-simulation calls, each on the Chain
    the last one returned, match one n-simulation call exactly.

    `chain` itself stays intact. n simulations of K leapfrog steps run n*K
    float32 gradient-only forwards and n float64 forwards with F, plus one
    float32 forward for a chain without dF/dv (one from `Chain.at`). The
    float32 copy of the params, private to the call, holds P and R as
    `energy.Diagonal`s where they are diagonal: the gradients multiply by
    their diagonals, bit for bit the BLAS products. The float64 forwards run
    on `params` as given.
    """
    config.validate()
    rng = np.random.default_rng(config.seed) if rng is None else rng
    eps = config.step_size if step_size is None else step_size
    stats = HmcStats()

    fw, grad = chain.forward, chain.grad
    del chain       # the start forward dies once the first simulation replaces it
    params32 = params.astype(np.float32)
    params32.P, params32.R = Diagonal.of(params32.P), Diagonal.of(params32.R)

    def gradient(x):
        return grad_free_energy_v(x, params32).astype(np.float64)

    # non-finite values are kept: the Metropolis step counts them as divergences
    with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
        if grad is None:
            grad = gradient(fw.V)
        for _ in range(n_simulations):
            p0 = rng.standard_normal(fw.V.shape)
            v1, p1, g1 = leapfrog(fw.V, p0, grad, gradient, eps, config.n_leapfrog)
            proposal = _forward(v1, params)
            f1 = _free_energy(proposal, params)
            h0 = fw.f + 0.5 * np.sum(p0 * p0, axis=1)
            h1 = f1 + 0.5 * np.sum(p1 * p1, axis=1)
            delta_h = h1 - h0
            accept = np.isfinite(delta_h) & (np.log(rng.uniform(size=len(p0))) < -delta_h)
            # a rejected row keeps every array of its forward, and its dF/dv, so the
            # kept forward equals, bit for bit, one run afresh on the rows it holds
            rejected = np.flatnonzero(~accept)
            for name, new in vars(proposal).items():     # proposal.V is v1
                if isinstance(new, np.ndarray):
                    new[rejected] = getattr(fw, name)[rejected]
            g1[rejected] = grad[rejected]
            fw, grad = proposal, g1

            finite = np.isfinite(delta_h)
            n_acc = int(accept.sum())
            n_div = int(accept.size - finite.sum())
            stats.accepted += n_acc
            stats.proposed += accept.size
            stats.divergences += n_div
            rejection = 1.0 - n_acc / accept.size
            mean_dh = float(np.mean(delta_h[finite])) if finite.any() else float("nan")
            stats.trace.append((eps, rejection, mean_dh))

            if n_div > 0:
                eps = max(eps * 0.5, STEP_FLOOR)
            elif rejection < config.target_rejection:
                eps *= 1.0 + config.adapt_rate
            else:
                eps *= 1.0 - config.adapt_rate

    stats.current_step_size = eps
    finite_dh = [dh for _, _, dh in stats.trace if np.isfinite(dh)]
    stats.mean_delta_h = float(np.mean(finite_dh)) if finite_dh else float("nan")
    return Chain(fw, grad), stats


def gaussian_moment_probe(n_chains=500, burn=400, keep=100, seed=0, dim=10,
                          config=None):
    """Sample the standard Gaussian reached when every model parameter is
    zero and report moment errors with honest standard errors.

    Chains are independent, so the SE of each pooled moment comes from the
    spread of per-chain estimates (batch means); successive states within
    a chain may be strongly autocorrelated on this target and iid formulas
    would understate the error.

    Each kept state is one `hmc_chain` call that continues the `Chain` the
    last one returned, dF/dv included, so the probe runs 1 + burn + keep
    float64 forwards with F and 1 + (burn + keep)*K float32 ones: one per
    simulation, or per leapfrog step, and one at the start.
    """
    from .params import ModelParams

    params = ModelParams(
        C=np.zeros((dim, 1, 2)), P=np.zeros((1, 1)), W=np.zeros((dim, 1)),
        Q=np.zeros((1, 2, 1)), R=np.zeros((1, 1)),
        b_c=np.zeros(1), b_m=np.zeros(1), b_k=np.zeros(1), b_v=np.zeros(dim),
    )
    config = config or HmcConfig(seed=seed)
    rng = np.random.default_rng(seed)
    chain = Chain.at(rng.standard_normal((n_chains, dim)), params)

    chain, stats = hmc_chain(chain, params, config, burn, rng=rng)
    step = stats.current_step_size

    states = np.empty((keep, n_chains, dim))
    rejections = []
    for k in range(keep):
        chain, stats = hmc_chain(chain, params, config, 1, rng=rng, step_size=step)
        step = stats.current_step_size
        states[k] = chain.rows
        rejections.append(stats.rejection_rate)

    chain_mean = states.mean(axis=0)                     # (n_chains, dim)
    chain_m2 = (states ** 2).mean(axis=0)
    grand_mean = chain_mean.mean(axis=0)
    grand_m2 = chain_m2.mean(axis=0)
    se_mean = chain_mean.std(axis=0, ddof=1) / np.sqrt(n_chains)
    se_m2 = chain_m2.std(axis=0, ddof=1) / np.sqrt(n_chains)

    return {
        "n_samples": keep * n_chains,
        "mean_abs": np.abs(grand_mean),
        "mean_4se": 4.0 * se_mean,
        "var_abs_err": np.abs(grand_m2 - 1.0),
        "var_4se": 4.0 * se_m2,
        "rejection_rate": float(np.mean(rejections)),
        "step_size": step,
    }


def check_gaussian(seed=0):
    """The record {passed, max_mean_err, max_var_err, rejection_rate} of
    `gaussian_moment_probe`: it passes when every mean and second moment is
    within 4 SE of 0 and 1 and the rejection rate is in [0, 0.35]."""
    probe = gaussian_moment_probe(n_chains=200, burn=350, keep=60, seed=seed)
    ok = (np.all(probe["mean_abs"] <= probe["mean_4se"])
          and np.all(probe["var_abs_err"] <= probe["var_4se"])
          and 0.0 <= probe["rejection_rate"] <= 0.35)
    return {"passed": bool(ok), "max_mean_err": float(probe["mean_abs"].max()),
            "max_var_err": float(probe["var_abs_err"].max()),
            "rejection_rate": probe["rejection_rate"]}
