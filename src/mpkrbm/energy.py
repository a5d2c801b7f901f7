"""Energy terms, free energy and hidden conditionals.

Three families of binary hidden units act on an image patch v:

  pooling units   E_p = -1/2 sum_n h_p[n] sum_f P[f,n] * s_f  -  b_c . h_p
                  with s_f = [ sum_l |C[:,f,l] . v|^alpha ]^(1/alpha)
                  evaluated on the unit-normalized patch;
  mean units      E_m = -h_m . (W' v) - b_m . h_m   on the raw patch;
  phase units     E_k = -1/2 sum_t h_k[t] sum_g R[g,t] * q_g^2 - b_k . h_k
                  with q_g = sum_{f,l} Q[f,l,g] * x[f,l], where x holds the
                  unit-circle coordinates (cos, sin) of each subspace angle.

The total energy adds a quadratic penalty 1/2 ||v||^2 - b_v . v on the
visibles. Free energy marginalizes the hiddens analytically:
F(v) = -sum softplus(drive) over all three families + the visible terms,
so p(v) is proportional to exp(-F(v)).

The forward pass lives in one place, `_forward`: the patch normalization,
the projections C'u, the pooled amplitudes s, the unit-circle map x, the
phase factors q, the three drives and the exp(-|drive|) that each gate's
softplus and sigmoid share, as matrix products on the flattened C (D, F*L)
and Q (F*L, G). F itself, the visible term less three softplus sums, is
computed on request by `_free_energy`, run only by the callers that use F;
the leapfrog's dF/dv (`grad.grad_free_energy_v`) never asks for it. The
public functions here are views of the forward: `free_energy`,
`hidden_conditionals` and `total_energy` (all three families' energies
plus the visible term, at given hiddens) on the raw patch;
`subspace_pool`, `pool_drive` and `phase_features` on a patch the caller
has normalized. `grad` runs its backward pass from the same
intermediates.

Each gate's sigmoid, 1/(1+e) where its drive y >= 0 and e/(1+e)
elsewhere with e = exp(-|y|), is branch-free (`_sigmoid`): one unmasked
divide of max(e, [y >= 0]) by 1 + e, bit for bit the two divisions. The
drives of a trained model have mixed signs, and a divide masked by the
sign runs numpy's inner loop once per run of equal signs. The float32
dF/dv, the float64 parameter-gradient backward and `hidden_conditionals`
all take this one helper.

At alpha = 2, the paper's case, |y|**2 is y*y bit for bit, so the pooled
amplitude s = sqrt(sum y^2) and the phase amplitude r = sqrt(sum y^2 +
eps^2) share one sum of squares; any other alpha raises |y| to its power.

The intermediates are written with `out=` operations into a `Workspace`,
a set of named buffers reused from one call to the next. Whoever creates
a workspace owns it: `sampler.hmc_chain` keeps one for the float32
gradients of its simulations and two that their float64 forwards with F
take turns with, `sampler.Chain.at` one for the forward it makes, and
`trainer.cd1_step` one for the backward buffers that its two
parameter-gradient passes share. A call given no workspace gets a fresh
one, so there is one code path either way. Arrays returned by the gradient
functions are never workspace buffers; the views here each run on a
fresh workspace, so what they return is the caller's alone.

All public operations are pure functions of (v, params); v may be a single
vector (D,) or rows with any leading shape (..., D). They run in the dtype
of the params: float64 everywhere but the HMC trajectory, whose gradients
`sampler.hmc_chain` takes from a float32 copy.
"""

from dataclasses import dataclass
from types import SimpleNamespace

import numpy as np

from .errors import NumericError, ParameterError, ShapeError
from .preprocess import EPS_NORM

EPS_R = 1e-6


class Workspace:
    """Buffers that `_forward` and `grad`'s backward pass fill with `out=`
    operations, one per (name, shape, dtype).

    Whoever creates a workspace owns it and passes it to one call after
    another; each call overwrites what the last one left there. A buffer
    is allocated on the first request for its name, shape and dtype, so a
    caller that evaluates one batch shape many times allocates once.
    "tmp" and "tmp2" are scratch: each use ends before the next request
    for the same name and shape. The functions that take a workspace
    return only arrays of their own, never one of its buffers; a call
    given none works in a fresh one that nothing else holds.

    `dtype` is the type of a request that names none. `_forward` works in
    the dtype of its params through `as_dtype`, a view that shares the
    buffers, so a workspace handed to a call of the other dtype still gets
    buffers of the call's dtype and never one of the other's. Every owner
    in the package keeps one workspace per dtype; the float32-then-float64
    use is pinned by `test_grad.py::test_float64_forward_keeps_its_bits`.
    """

    def __init__(self, dtype=np.float64, buffers=None):
        self.dtype = np.dtype(dtype)
        self._buffers = {} if buffers is None else buffers

    def as_dtype(self, dtype):
        """These buffers, with `dtype` the type of a request that names none."""
        dtype = np.dtype(dtype)
        return self if dtype == self.dtype else Workspace(dtype, self._buffers)

    def __call__(self, name, shape, dtype=None):
        key = (name, shape, self.dtype if dtype is None else dtype)
        buf = self._buffers.get(key)
        if buf is None:
            buf = self._buffers[key] = np.empty(shape, key[2])
        return buf


def _exp_neg_abs(ws, name, y):
    """exp(-|y|), the one exp that a gate's softplus and sigmoid share."""
    e = np.abs(y, out=ws(name + ".exp", y.shape))
    return np.exp(np.negative(e, out=e), out=e)


def _softplus(ws, y, e):
    """log(1 + exp(y)) = max(y, 0) + log1p(e), with e = exp(-|y|), in scratch."""
    out = np.log1p(e, out=ws("tmp", y.shape))
    out += np.maximum(y, 0.0, out=ws("tmp2", y.shape))
    return out


def _sigmoid(ws, name, y, e):
    """1 / (1 + exp(-y)) from e = exp(-|y|): 1/(1+e) where y >= 0,
    e/(1+e) elsewhere (NaN included).

    Branch-free: the numerator max(e, [y >= 0]) is 1 where y >= 0 (e <= 1)
    and e elsewhere, and NaN stays NaN, so one unmasked divide does both
    divisions bit for bit. A divide masked by the sign of y runs its inner
    loop once per run of equal signs: on random signs, about 30 times
    slower than the unmasked divide."""
    nonneg = np.greater_equal(y, 0.0, out=ws("tmp", y.shape, bool))
    out = np.maximum(e, nonneg, out=ws(name + ".sigmoid", y.shape))
    return np.divide(out, np.add(e, 1.0, out=ws("tmp", y.shape)), out=out)


def softplus(y):
    """log(1 + exp(y)) computed without overflow."""
    y = np.asarray(y, dtype=np.float64)
    ws = Workspace()
    return _softplus(ws, y, _exp_neg_abs(ws, "y", y))[()]


def sigmoid(y):
    y = np.asarray(y, dtype=np.float64)
    ws = Workspace()
    return _sigmoid(ws, "y", y, _exp_neg_abs(ws, "y", y))[()]


def _sum_last(a, out):
    """a.sum(axis=-1) as adds of its trailing planes, in np.sum's order:
    far cheaper than a reduction over a short trailing axis."""
    if a.shape[-1] == 1:
        np.copyto(out, a[..., 0])
    else:
        np.add(a[..., 0], a[..., 1], out=out)
    for plane in range(2, a.shape[-1]):
        out += a[..., plane]
    return out


def _per_plane(op, a, b, out):
    """op(a, b[..., None], out=out) one trailing plane at a time: numpy
    broadcasts over a short trailing axis several times slower."""
    for plane in range(a.shape[-1]):
        op(a[..., plane], b, out=out[..., plane])
    return out


def _forward(v, params, with_phase=True, normalize=True, workspace=None):
    """Every intermediate of F at the rows of v, flattened to (B, D).

    With `normalize` the pooling and phase paths see u = v / max(||v||, eps);
    without it they see v as given (the drive views take an already
    normalized patch). `lead` is the caller's leading shape; `_view`
    restores it on any per-row result. The intermediates live in
    `workspace` (a fresh one if none is given) until its next use.

    The pass runs in the dtype of the params, to which v is cast: float64
    params give float64 intermediates, float32 ones float32.
    """
    v = np.asarray(v, dtype=params.C.dtype)
    D, F, L = params.C.shape
    if v.shape[-1] != D:
        raise ShapeError(f"visible dim {v.shape[-1]} != model D={D}")
    if not params.alpha > 0:
        raise ParameterError(f"alpha must be > 0, got {params.alpha}")
    if with_phase and L != 2:
        raise ParameterError(f"phase units require subspace dimension L = 2, got L={L}")

    ws = (Workspace() if workspace is None else workspace).as_dtype(v.dtype)
    fw = SimpleNamespace(lead=v.shape[:-1], with_phase=with_phase, ws=ws)
    V = fw.V = v.reshape(-1, D)
    B = V.shape[0]
    N, M = params.P.shape[1], params.W.shape[1]
    with np.errstate(over="ignore", invalid="ignore"):
        fw.sq_norm = np.add.reduce(np.multiply(V, V, out=ws("tmp", (B, D))), axis=1,
                                   out=ws("|v|^2", (B,)))
        fw.norm = np.sqrt(fw.sq_norm[:, None], out=ws("norm", (B, 1)))
        fw.nu = np.maximum(fw.norm, EPS_NORM, out=ws("nu", (B, 1)))
        fw.U = np.divide(V, fw.nu, out=ws("U", (B, D))) if normalize else V
        Y = fw.Y = np.matmul(fw.U, params.C.reshape(D, F * L),
                             out=ws("Y", (B, F * L))).reshape(B, F, L)
        if params.alpha == 2.0 or with_phase:
            sum_sq = _sum_last(np.multiply(Y, Y, out=ws("tmp", (B, F, L))), ws("sum_sq", (B, F)))
        if params.alpha == 2.0:     # |y|**2 is y*y bit for bit: s shares r's sum of squares
            fw.s = np.sqrt(sum_sq, out=ws("s", (B, F)))
        else:
            pow_y = np.abs(Y, out=ws("tmp", (B, F, L)))
            pow_y **= params.alpha
            fw.s = _sum_last(pow_y, ws("s", (B, F)))
            fw.s **= 1.0 / params.alpha
        fw.phi = np.matmul(np.multiply(fw.s, 0.5, out=ws("tmp", (B, F))), params.P,
                           out=ws("phi", (B, N)))
        fw.phi += params.b_c
        fw.m = np.matmul(V, params.W, out=ws("m", (B, M)))
        fw.m += params.b_m
        fw.e_p = _exp_neg_abs(ws, "p", fw.phi)
        fw.e_m = _exp_neg_abs(ws, "m", fw.m)
        if with_phase:
            G, T = params.R.shape
            r2 = np.add(sum_sq, EPS_R * EPS_R, out=ws("r", (B, F)))
            fw.r = np.sqrt(r2, out=r2)
            fw.x = _per_plane(np.divide, Y, fw.r, ws("x", (B, F, L)))
            fw.q = np.matmul(fw.x.reshape(B, F * L), params.Q.reshape(F * L, G),
                             out=ws("q", (B, G)))
            half_q2 = np.multiply(fw.q, fw.q, out=ws("tmp", (B, G)))
            half_q2 *= 0.5
            fw.psi = np.matmul(half_q2, params.R, out=ws("psi", (B, T)))
            fw.psi += params.b_k
            fw.e_k = _exp_neg_abs(ws, "k", fw.psi)
    return fw


def _free_energy(fw, params):
    """F at the rows of a forward pass, in its workspace until its next use:
    the visible term 1/2 ||v||^2 - b_v . v (kept as `fw.quad`) less the
    softplus sums of the three drives. Only callers that use F run it; the
    leapfrog gradient does not."""
    ws = fw.ws
    B = fw.V.shape[0]
    with np.errstate(over="ignore", invalid="ignore"):
        fw.quad = np.multiply(fw.sq_norm, 0.5, out=ws("quad", (B,)))
        fw.quad -= np.matmul(fw.V, params.b_v, out=ws("tmp", (B,)))
        fw.f = np.subtract(fw.quad, _softplus(ws, fw.phi, fw.e_p).sum(axis=1),
                           out=ws("f", (B,)))
        fw.f -= _softplus(ws, fw.m, fw.e_m).sum(axis=1)
        if fw.with_phase:
            fw.f -= _softplus(ws, fw.psi, fw.e_k).sum(axis=1)
    return fw.f


def _view(fw, rows):
    """A per-row result (B, ...) in the caller's leading shape; a scalar
    for a single-vector F."""
    return rows.reshape(fw.lead + rows.shape[1:])[()]


def _check_finite(fw, caller):
    """NumericError naming the first non-finite drive or visible term of a
    forward pass whose F `_free_energy` has computed."""
    terms = [("pooling drive", fw.phi), ("mean drive", fw.m), ("visible term", fw.quad)]
    if fw.with_phase:
        terms.append(("phase drive", fw.psi))
    for name, term in terms:
        if not np.all(np.isfinite(term)):
            raise NumericError(f"{caller}: non-finite {name}")


def subspace_pool(v, params):
    """Pooled subspace response s_f = [ sum_l |y_fl|^alpha ]^(1/alpha).

    Expects v already normalized by the caller. For alpha=2, L=2 this is
    the quadrature-pair amplitude.
    """
    fw = _forward(v, params, with_phase=False, normalize=False)
    return _view(fw, fw.s)


@dataclass
class PhaseFeatures:
    """Quadrature projections (a, b), regularized amplitude r, angle theta
    and unit-circle coordinates x = (a/r, b/r). Batched inputs give an
    extra leading axis on every field."""

    a: np.ndarray
    b: np.ndarray
    r: np.ndarray
    theta: np.ndarray
    x: np.ndarray   # (..., F, 2)


def phase_features(v, params):
    """Per-subspace amplitude/angle decomposition; requires L = 2.

    The angle is scale invariant, so v need not be normalized; the
    amplitude regularizer eps_r keeps everything finite at v = 0.
    """
    fw = _forward(v, params, with_phase=True, normalize=False)
    a, b = _view(fw, fw.Y[..., 0]), _view(fw, fw.Y[..., 1])
    return PhaseFeatures(a=a, b=b, r=_view(fw, fw.r), theta=np.arctan2(b, a),
                         x=_view(fw, fw.x))


def pool_drive(v_normalized, params):
    """Pooling-unit drive, the argument of their sigmoid/softplus, at an
    already normalized patch."""
    fw = _forward(v_normalized, params, with_phase=False, normalize=False)
    return _view(fw, fw.phi)


def _check_hidden(h, n, what):
    h = np.asarray(h, dtype=np.float64)
    if h.shape[-1] != n:
        raise ShapeError(f"{what} has dim {h.shape[-1]}, expected {n}")
    return h


def total_energy(v, h_p, h_m, h_k, params, with_phase=True):
    """E_p + E_m + E_k + 1/2 ||v||^2 - b_v . v for a single patch v.

    The pooling and phase terms see the normalized patch, matching
    their definitions; the mean and visible terms use v as given.
    """
    h_p = _check_hidden(h_p, params.P.shape[1], "h_p")
    h_m = _check_hidden(h_m, params.W.shape[1], "h_m")
    fw = _forward(v, params, with_phase)
    _free_energy(fw, params)
    total = -h_p @ _view(fw, fw.phi) - h_m @ _view(fw, fw.m) + _view(fw, fw.quad)
    if with_phase:
        total = total - _check_hidden(h_k, params.R.shape[1], "h_k") @ _view(fw, fw.psi)
    return total


def free_energy(v, params, with_phase=True):
    """-log sum_h exp(-E(v, h)) with all binary hiddens summed out.

    Returns a scalar for a single v or a vector for a batch. Any
    non-finite drive raises NumericError naming the term.
    """
    fw = _forward(v, params, with_phase)
    f = _free_energy(fw, params)
    _check_finite(fw, "free_energy")
    return _view(fw, f)


@dataclass
class HiddenActivations:
    """Conditional on-probabilities of each hidden family given v."""

    p_hp: np.ndarray
    p_hm: np.ndarray
    p_hk: np.ndarray


def hidden_conditionals(v, params, with_phase=True):
    fw = _forward(v, params, with_phase)
    return HiddenActivations(
        p_hp=_view(fw, _sigmoid(fw.ws, "p", fw.phi, fw.e_p)),
        p_hm=_view(fw, _sigmoid(fw.ws, "m", fw.m, fw.e_m)),
        p_hk=_view(fw, _sigmoid(fw.ws, "k", fw.psi, fw.e_k)) if with_phase else None,
    )


# --- diagnostics ---

def phase_coupling_matrix(h_k, params):
    """Phase coupling matrix K = Q_flat diag(R h_k) Q_flat' in the
    stacked (cos, sin) coordinate space; symmetric."""
    F, L, G = params.Q.shape
    h_k = _check_hidden(h_k, params.R.shape[1], "h_k")
    q_flat = params.Q.reshape(F * L, G)
    return (q_flat * (params.R @ h_k)) @ q_flat.T
