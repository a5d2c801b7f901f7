"""Analytic free-energy gradients and a finite-difference check harness.

The derivative of F with respect to the patch drives the leapfrog
integrator; derivatives with respect to every learnable tensor drive
learning. Both are hand-derived chain rules through the sigmoid gates,
the patch normalization, the pooled subspace norm and the regularized
unit-circle map, and are locked in by the central-difference harness
at the bottom of this module.

Neither route has a forward pass of its own: each goes backward from the
intermediates of the one forward in `energy` (`energy._forward`). F is
computed on request (`energy._free_energy`) from the same forward:
`grad_free_energy_v`, what the leapfrog takes, skips it. The parameter
gradient has one entry, `grad_params_from_forward`, which runs the
backward from a forward with F that the caller already has and returns
{name: gradient} in `LEARNABLE_TENSORS` order, the mapping of
`ModelParams.tensors()`. F is not in it: it stays the forward's `f`,
where CD-1 reads it. CD-1 passes that entry the forwards HMC's Metropolis
test computed, at the data and at the model rows.
`grad_free_energy_params` is rows -> forward with F -> that entry. The
phase gradients of `ModelParams.without_phase()` are empty arrays. At
alpha = 2 the backward takes d s / d y = y / s, which equals sign(y) |y| / s
bit for bit but for the sign of a zero y; any other alpha takes
(|y| / s)**(alpha - 1) sign(y).
"""

import numpy as np

from . import energy
from .errors import DataError
from .params import LEARNABLE_TENSORS, ModelShape, init_params
from .preprocess import EPS_NORM


def _backward(fw, params):
    """Add the hidden gates and dF/dy (B, F, L), the derivative of F at
    the subspace projections, to a forward pass.

    No masked ufunc runs on the common path: the gates are
    `energy._sigmoid`'s branch-free ones, and the guard of zero subspaces
    (s <= 0 divides by 1 and contributes 0) runs only when one `.any()` on
    its mask finds one; otherwise dy divides by s itself."""
    B, F, L = fw.Y.shape
    fw.sig_p = energy._sigmoid(fw.phi, fw.e_p)
    fw.sig_m = energy._sigmoid(fw.m, fw.e_m)
    g_s = np.multiply(fw.sig_p, -0.5) @ params.P.T
    # d s_f / d y_fl = (|y|/s)^(alpha-1) * sign(y); zero subspaces contribute 0
    zero = np.greater(fw.s, 0.0)
    np.logical_not(zero, out=zero)      # NaN included
    has_zero = zero.any()
    safe_s = np.where(zero, 1.0, fw.s) if has_zero else fw.s
    if params.alpha == 2.0:     # y / s is sign(y) * |y| / s, but for the sign of a zero
        dy = energy._per_plane(np.divide, fw.Y, safe_s)
    else:
        dy = np.abs(fw.Y)
        energy._per_plane(np.divide, dy, safe_s, dy)
        dy **= params.alpha - 1.0
        dy *= np.sign(fw.Y)
    fw.dy = dy
    if has_zero:
        np.copyto(dy, 0.0, where=zero[..., None])
    energy._per_plane(np.multiply, dy, g_s, dy)
    if params.has_phase:
        fw.sig_k = energy._sigmoid(fw.psi, fw.e_k)
        fw.g_q = fw.sig_k @ params.R.T    # (B, G)
        np.negative(fw.g_q, out=fw.g_q)
        fw.g_q *= fw.q
        g_x = np.matmul(fw.g_q, params.Q.reshape(F * L, -1).T).reshape(B, F, L)
        # x = y / r with r^2 = |y|^2 + eps^2, so dx/dy = (I - x x') / r
        g_x_x = energy._sum_last(np.multiply(g_x, fw.x))
        g_x -= energy._per_plane(np.multiply, fw.x, g_x_x)
        dy += energy._per_plane(np.divide, g_x, fw.r, g_x)
    return fw


def grad_free_energy_v(v, params):
    """dF/dv with the shape of v (single vector or batch of rows), from one
    forward and one backward pass and no F: what the leapfrog integrator
    takes. A new array in the dtype of the params.

    Finite for any finite v: the amplitude regularizer and the
    constant-scale treatment below the normalization floor keep every
    path differentiable almost everywhere. Non-finite values are returned,
    not raised: HMC counts them as divergences.
    """
    fw = _backward(energy._forward(v, params), params)
    D, F, L = params.C.shape
    B = fw.V.shape[0]
    g_u = np.matmul(fw.dy.reshape(B, F * L), params.C.reshape(D, F * L).T)

    # Jacobian of u = v / max(||v||, eps): tangential projection above the
    # floor, plain 1/eps scaling below it.
    U = fw.U
    g_u_u = np.add.reduce(np.multiply(g_u, U), axis=1)
    g_v = np.subtract(g_u, np.multiply(U, g_u_u[:, None]))
    below = np.greater_equal(fw.norm, EPS_NORM)
    np.logical_not(below, out=below)    # NaN included
    if below.any():
        np.copyto(g_v, g_u, where=below)
    g_v /= fw.nu
    visible = np.subtract(fw.V, params.b_v)
    visible -= np.matmul(fw.sig_m, params.W.T)
    g_v += visible
    return energy._view(fw, g_v)


def grad_free_energy_params(v_batch, params):
    """`grad_params_from_forward` at the rows of `v_batch`, from a forward
    run here, with F."""
    V = np.atleast_2d(np.asarray(v_batch, dtype=np.float64))
    if V.shape[0] == 0:
        raise DataError("empty batch")
    fw = energy._forward(V, params)
    energy._free_energy(fw, params)
    return grad_params_from_forward(fw, params)


def grad_params_from_forward(fw, params):
    """{name: mean over batch rows of dF/dTheta} for every learnable tensor,
    in `LEARNABLE_TENSORS` order, from a float64 forward (`energy._forward`)
    whose F `energy._free_energy` has computed; the per-row F of the batch
    is that forward's `fw.f`. The backward's intermediates are added to
    `fw`; the forward's arrays are only read.

    The forward is of the model `params`; the phase gradients of one without
    a phase family are empty arrays, like its phase tensors. A non-finite
    drive or visible term raises NumericError, as in `energy.free_energy`.
    """
    energy._check_finite(fw, params, "grad_params_from_forward")
    _backward(fw, params)
    B = fw.V.shape[0]
    D, F, L = params.C.shape
    if params.has_phase:
        phase = dict(Q=(fw.x.reshape(B, F * L).T @ fw.g_q).reshape(params.Q.shape),
                     R=-0.5 * (fw.q * fw.q).T @ fw.sig_k,
                     b_k=-fw.sig_k.mean(axis=0))
    else:
        phase = {name: np.zeros_like(getattr(params, name)) for name in ("Q", "R", "b_k")}
    g = dict(
        C=(fw.U.T @ fw.dy.reshape(B, F * L)).reshape(D, F, L),
        P=-0.5 * fw.s.T @ fw.sig_p,
        W=-fw.V.T @ fw.sig_m,
        b_c=-fw.sig_p.mean(axis=0),
        b_m=-fw.sig_m.mean(axis=0),
        b_v=-fw.V.mean(axis=0),
        **phase,
    )
    for name in ("C", "P", "W", "Q", "R"):      # sums over the rows, made means in place
        g[name] /= B
    return {name: g[name] for name in LEARNABLE_TENSORS}


# --- finite-difference verification -------------------------------------

def _central_differences(x, f, step):
    """(f() at x_i + step - f() at x_i - step) / 2 step of the scalar f()
    for each element x_i of the float64 array `x` that f reads; the element
    moves in place and is put back."""
    out = np.empty(x.shape)
    flat, diffs = x.reshape(-1), out.reshape(-1)
    for i, value in enumerate(flat.tolist()):
        flat[i] = value + step
        f_plus = f()
        flat[i] = value - step
        diffs[i] = (f_plus - f()) / (2 * step)
        flat[i] = value
    return out


def finite_diff_v(v, params, step=1e-5):
    """Central differences of free_energy w.r.t. each visible coordinate."""
    v = np.array(v, dtype=np.float64)
    return _central_differences(v, lambda: energy.free_energy(v, params), step)


def finite_diff_param(v_batch, params, name, step=1e-5):
    """Central differences of mean batch free energy w.r.t. one tensor."""
    V = np.atleast_2d(np.asarray(v_batch, dtype=np.float64))
    p = params.copy()
    return _central_differences(getattr(p, name), lambda: np.mean(energy.free_energy(V, p)),
                                step)


def _rel_err(analytic, fd):
    denom = np.maximum(np.maximum(np.abs(analytic), np.abs(fd)), 1e-8)
    return float(np.max(np.abs(analytic - fd) / denom))


TINY_SHAPE = ModelShape(n_visible=4, n_subspaces=2, subspace_dim=2,
                        n_pool_hidden=3, n_mean_hidden=3,
                        n_phase_factors=3, n_phase_hidden=3)


def random_tiny_params(seed, shape=None, alpha=2.0, scale=0.8):
    """Small random model with the sign conventions of a trained one
    (P <= 0, unit R columns); used by oracles and smoke tests."""
    shape = shape or TINY_SHAPE
    params = init_params(shape, seed, alpha=alpha)
    rng = np.random.default_rng(np.random.SeedSequence([seed, 0xC0FFEE]))
    params.C = rng.standard_normal(params.C.shape)
    params.P = -np.abs(rng.standard_normal(params.P.shape)) * scale
    params.W = rng.standard_normal(params.W.shape) * scale
    params.Q = rng.standard_normal(params.Q.shape) * scale
    params.R = rng.standard_normal(params.R.shape)
    params.R /= np.linalg.norm(params.R, axis=0, keepdims=True)
    params.b_c = rng.standard_normal(params.b_c.shape) * scale
    params.b_m = rng.standard_normal(params.b_m.shape) * scale
    params.b_k = rng.standard_normal(params.b_k.shape) * scale
    params.b_v = rng.standard_normal(params.b_v.shape) * scale
    return params


def check_gradients(shape=None, seed=0, tolerance=1e-5, n_vectors=10,
                    batch_size=3, step=1e-5, alpha=2.0):
    """The record {passed, max_rel_err, tolerance} of both gradient routes
    against central differences on a random tiny model: max_rel_err maps
    "v" and each learnable tensor to its error, all below tolerance to pass."""
    params = random_tiny_params(seed, shape=shape, alpha=alpha)
    rng = np.random.default_rng(np.random.SeedSequence([seed, 0xFD]))
    D = params.C.shape[0]

    errors = {"v": max(_rel_err(grad_free_energy_v(v, params), finite_diff_v(v, params, step=step))
                       for v in rng.standard_normal((n_vectors, D)))}
    batch = rng.standard_normal((batch_size, D))
    analytic = grad_free_energy_params(batch, params)
    for name in LEARNABLE_TENSORS:
        errors[name] = _rel_err(analytic[name], finite_diff_param(batch, params, name, step=step))
    return {"passed": all(err < tolerance for err in errors.values()),
            "max_rel_err": errors, "tolerance": tolerance}


def check_enumeration(seed=1234):
    """The record {passed, max_abs_err, tolerance} of F against a sum over
    every hidden state, at one random v on each of 20 random tiny models."""
    n_p, n_m = TINY_SHAPE.n_pool_hidden, TINY_SHAPE.n_mean_hidden
    n_bits = n_p + n_m + TINY_SHAPE.n_phase_hidden
    states = np.array(np.meshgrid(*[[0.0, 1.0]] * n_bits, indexing="ij")).reshape(n_bits, -1).T
    rng = np.random.default_rng(seed)
    worst = 0.0
    for trial in range(20):
        params = random_tiny_params(trial + 1)
        v = rng.standard_normal(TINY_SHAPE.n_visible)
        energies = energy.total_energy(v, states[:, :n_p], states[:, n_p:n_p + n_m],
                                       states[:, n_p + n_m:], params)
        emin = energies.min()
        brute = emin - np.log(np.sum(np.exp(-(energies - emin))))
        worst = max(worst, abs(float(energy.free_energy(v, params)) - float(brute)))
    return {"passed": bool(worst < 1e-10), "max_abs_err": worst, "tolerance": 1e-10}
