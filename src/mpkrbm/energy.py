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

The four products with P and R, the pooling and phase drives and their
transposes in `grad._backward`, are written `a @ params.P` and the like:
np.matmul for an ndarray, and a scaling by the diagonal for a `Diagonal`,
which two callers make of a banded P or R (-I and I at the paper shape;
training stage 0 holds P there, stages 0-2 hold R): `sampler.hmc_chain`
in its float32 copy, and `cli.cmd_sample` in the float64 params whose
forwards give the Metropolis test its F. For finite rows the scaling
gives BLAS's bits, since every other term of the product is a * 0 = +-0.

At alpha = 2, the paper's case, |y|**2 is y*y bit for bit, so the pooled
amplitude s = sqrt(sum y^2) and the phase amplitude r = sqrt(sum y^2 +
eps^2) share one sum of squares; any other alpha raises |y| to its power.

Each forward's intermediates are arrays of its own, freed with it: nothing
is kept from one call to the next, and an op writes over an array only
where nothing reads it any more.

All public operations are pure functions of (v, params); v may be a single
vector (D,) or rows with any leading shape (..., D). They run in the dtype
of the params: float64 everywhere but the HMC trajectory, whose gradients
`sampler.hmc_chain` takes from a float32 copy. The two places a `Diagonal`
stands in for P or R are that copy and the float64 params of `cli.cmd_sample`.
A forward runs the phase units exactly where the params have a phase
family (`ModelParams.has_phase`); `ModelParams.without_phase()`, the model
of training stages 0-1, has none.
"""

from dataclasses import dataclass
from types import SimpleNamespace

import numpy as np

from .errors import NumericError, ParameterError, ShapeError
from .preprocess import EPS_NORM

EPS_R = 1e-6


def _exp_neg_abs(y):
    """exp(-|y|), the one exp that a gate's softplus and sigmoid share."""
    e = np.abs(y)
    return np.exp(np.negative(e, out=e), out=e)


def _softplus(y, e):
    """log(1 + exp(y)) = max(y, 0) + log1p(e), with e = exp(-|y|)."""
    out = np.log1p(e)
    out += np.maximum(y, 0.0)
    return out


def _sigmoid(y, e):
    """1 / (1 + exp(-y)) from e = exp(-|y|): 1/(1+e) where y >= 0,
    e/(1+e) elsewhere (NaN included).

    Branch-free: the numerator max(e, [y >= 0]) is 1 where y >= 0 (e <= 1)
    and e elsewhere, and NaN stays NaN, so one unmasked divide does both
    divisions bit for bit. A divide masked by the sign of y runs its inner
    loop once per run of equal signs: on random signs, about 30 times
    slower than the unmasked divide."""
    out = np.maximum(e, np.greater_equal(y, 0.0))
    return np.divide(out, np.add(e, 1.0), out=out)


def softplus(y):
    """log(1 + exp(y)) computed without overflow."""
    y = np.asarray(y, dtype=np.float64)[None]     # an array even for a scalar y
    return _softplus(y, _exp_neg_abs(y))[0]


def sigmoid(y):
    y = np.asarray(y, dtype=np.float64)[None]
    return _sigmoid(y, _exp_neg_abs(y))[0]


def _sum_last(a):
    """a.sum(axis=-1) as adds of its trailing planes, in np.sum's order:
    far cheaper than a reduction over a short trailing axis."""
    out = a[..., 0].copy() if a.shape[-1] == 1 else np.add(a[..., 0], a[..., 1])
    for plane in range(2, a.shape[-1]):
        out += a[..., plane]
    return out


def _per_plane(op, a, b, out=None):
    """op(a, b[..., None], out=out), into a new array if `out` is None, one
    trailing plane at a time: numpy broadcasts over a short trailing axis
    several times slower."""
    out = np.empty_like(a) if out is None else out
    for plane in range(a.shape[-1]):
        op(a[..., plane], b, out=out[..., plane])
    return out


class Diagonal:
    """A matrix whose nonzeros all lie on its leading diagonal, as the right
    operand of `@`: `a @ d` is a[..., :k] * diagonal (k = min(rows, cols)),
    padded with zeros to the matrix's columns, one elementwise pass where
    BLAS would run a full product; `d.T` is the transpose. P and R take
    this form at their banded pattern with rows <= cols (-I and I at the
    paper shape), where training stages 0 (P) and 0-2 (R) hold them, so
    each float32 dF/dv of those stages skips two 256 x 256 products, and
    each float64 forward of `mpkrbm sample` skips one or two and holds no
    dense copy.

    The bits are BLAS's for finite rows: each entry of the product is one
    rounded a * d plus terms a * 0 = +-0, which move no nonzero sum. Only
    the sign of a zero entry may differ, and an inf in a row spreads NaN
    across it in BLAS alone (HMC rejects such a row either way)."""

    __array_ufunc__ = None      # `ndarray @ Diagonal` defers to __rmatmul__

    def __init__(self, diagonal, shape):
        self.diagonal, self.shape = diagonal, shape

    @classmethod
    def of(cls, M):
        """M as a Diagonal, or M itself if it is one or if any nonzero lies
        off its diagonal."""
        if isinstance(M, Diagonal):
            return M
        diagonal = np.diagonal(M)
        if np.count_nonzero(M) != np.count_nonzero(diagonal):
            return M
        return cls(diagonal.copy(), M.shape)

    @property
    def T(self):
        return Diagonal(self.diagonal, self.shape[::-1])

    def astype(self, dtype):
        """The same matrix with its diagonal cast to `dtype`, as
        `ModelParams.astype` casts every tensor."""
        return Diagonal(self.diagonal.astype(dtype), self.shape)

    def __rmatmul__(self, a):
        if a.shape[-1] != self.shape[0]:
            raise ShapeError(f"matmul of {a.shape} by a {self.shape} matrix")
        k = len(self.diagonal)
        if self.shape[1] == k:
            return np.multiply(a[..., :k], self.diagonal)
        out = np.zeros(a.shape[:-1] + self.shape[1:], np.result_type(a, self.diagonal))
        np.multiply(a[..., :k], self.diagonal, out=out[..., :k])
        return out


def _forward(v, params, normalize=True):
    """Every intermediate of F at the rows of v, flattened to (B, D).

    With `normalize` the pooling and phase paths see u = v / max(||v||, eps);
    without it they see v as given (the drive views take an already
    normalized patch). `lead` is the caller's leading shape; `_view`
    restores it on any per-row result.

    The pass runs in the dtype of the params, to which v is cast: float64
    params give float64 intermediates, float32 ones float32.
    """
    v = np.asarray(v, dtype=params.C.dtype)
    D, F, L = params.C.shape
    if v.shape[-1] != D:
        raise ShapeError(f"visible dim {v.shape[-1]} != model D={D}")
    if not 0 < params.alpha < np.inf:
        raise ParameterError(f"alpha must be finite and > 0, got {params.alpha}")
    phase = params.has_phase
    if phase and L != 2:
        raise ParameterError(f"phase units require subspace dimension L = 2, got L={L}")

    fw = SimpleNamespace(lead=v.shape[:-1])
    V = fw.V = v.reshape(-1, D)
    B = V.shape[0]
    with np.errstate(over="ignore", invalid="ignore"):
        fw.sq_norm = np.add.reduce(np.multiply(V, V), axis=1)
        fw.norm = np.sqrt(fw.sq_norm[:, None])
        fw.nu = np.maximum(fw.norm, EPS_NORM)
        fw.U = np.divide(V, fw.nu) if normalize else V
        Y = fw.Y = np.matmul(fw.U, params.C.reshape(D, F * L)).reshape(B, F, L)
        if params.alpha == 2.0 or phase:
            sum_sq = _sum_last(np.multiply(Y, Y))
        if params.alpha == 2.0:     # |y|**2 is y*y bit for bit: s shares r's sum of squares
            fw.s = np.sqrt(sum_sq)
        else:
            pow_y = np.abs(Y)
            pow_y **= params.alpha
            fw.s = _sum_last(pow_y)
            fw.s **= 1.0 / params.alpha
        fw.phi = np.multiply(fw.s, 0.5) @ params.P
        fw.phi += params.b_c
        fw.m = np.matmul(V, params.W)
        fw.m += params.b_m
        fw.e_p = _exp_neg_abs(fw.phi)
        fw.e_m = _exp_neg_abs(fw.m)
        if phase:
            G = params.R.shape[0]
            r2 = np.add(sum_sq, EPS_R * EPS_R, out=sum_sq)     # sum_sq is dead from here
            fw.r = np.sqrt(r2, out=r2)
            fw.x = _per_plane(np.divide, Y, fw.r)
            fw.q = np.matmul(fw.x.reshape(B, F * L), params.Q.reshape(F * L, G))
            half_q2 = np.multiply(fw.q, fw.q)
            half_q2 *= 0.5
            fw.psi = half_q2 @ params.R
            fw.psi += params.b_k
            fw.e_k = _exp_neg_abs(fw.psi)
    return fw


def _free_energy(fw, params):
    """F at the rows of a forward pass: the visible term 1/2 ||v||^2 -
    b_v . v (kept as `fw.quad`) less the softplus sums of the three drives.
    Only callers that use F run it; the leapfrog gradient does not."""
    with np.errstate(over="ignore", invalid="ignore"):
        fw.quad = np.multiply(fw.sq_norm, 0.5)
        fw.quad -= np.matmul(fw.V, params.b_v)
        fw.f = np.subtract(fw.quad, _softplus(fw.phi, fw.e_p).sum(axis=1))
        fw.f -= _softplus(fw.m, fw.e_m).sum(axis=1)
        if params.has_phase:
            fw.f -= _softplus(fw.psi, fw.e_k).sum(axis=1)
    return fw.f


def _view(fw, rows):
    """A per-row result (B, ...) in the caller's leading shape; a scalar
    for a single-vector F."""
    return rows.reshape(fw.lead + rows.shape[1:])[()]


def _check_finite(fw, params, caller):
    """NumericError naming the first non-finite drive or visible term of a
    forward pass whose F `_free_energy` has computed."""
    terms = [("pooling drive", fw.phi), ("mean drive", fw.m), ("visible term", fw.quad)]
    if params.has_phase:
        terms.append(("phase drive", fw.psi))
    for name, term in terms:
        if not np.all(np.isfinite(term)):
            raise NumericError(f"{caller}: non-finite {name}")


def subspace_pool(v, params):
    """Pooled subspace response s_f = [ sum_l |y_fl|^alpha ]^(1/alpha).

    Expects v already normalized by the caller. For alpha=2, L=2 this is
    the quadrature-pair amplitude.
    """
    fw = _forward(v, params.without_phase(), normalize=False)
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
    if not params.has_phase:
        raise ParameterError("phase features need a model with a phase family")
    fw = _forward(v, params, normalize=False)
    a, b = _view(fw, fw.Y[..., 0]), _view(fw, fw.Y[..., 1])
    return PhaseFeatures(a=a, b=b, r=_view(fw, fw.r), theta=np.arctan2(b, a),
                         x=_view(fw, fw.x))


def pool_drive(v_normalized, params):
    """Pooling-unit drive, the argument of their sigmoid/softplus, at an
    already normalized patch."""
    fw = _forward(v_normalized, params.without_phase(), normalize=False)
    return _view(fw, fw.phi)


def _check_hidden(h, n, what):
    h = np.asarray(h, dtype=np.float64)
    if h.shape[-1] != n:
        raise ShapeError(f"{what} has dim {h.shape[-1]}, expected {n}")
    return h


def total_energy(v, h_p, h_m, h_k, params):
    """E_p + E_m + E_k + 1/2 ||v||^2 - b_v . v for a single patch v.

    The pooling and phase terms see the normalized patch, matching
    their definitions; the mean and visible terms use v as given.
    """
    h_p = _check_hidden(h_p, params.P.shape[1], "h_p")
    h_m = _check_hidden(h_m, params.W.shape[1], "h_m")
    fw = _forward(v, params)
    _free_energy(fw, params)
    total = -h_p @ _view(fw, fw.phi) - h_m @ _view(fw, fw.m) + _view(fw, fw.quad)
    if params.has_phase:
        total = total - _check_hidden(h_k, params.R.shape[1], "h_k") @ _view(fw, fw.psi)
    return total


def free_energy(v, params):
    """-log sum_h exp(-E(v, h)) with all binary hiddens summed out.

    Returns a scalar for a single v or a vector for a batch. Any
    non-finite drive raises NumericError naming the term.
    """
    fw = _forward(v, params)
    f = _free_energy(fw, params)
    _check_finite(fw, params, "free_energy")
    return _view(fw, f)


@dataclass
class HiddenActivations:
    """Conditional on-probabilities of each hidden family given v."""

    p_hp: np.ndarray
    p_hm: np.ndarray
    p_hk: np.ndarray


def hidden_conditionals(v, params):
    fw = _forward(v, params)
    return HiddenActivations(
        p_hp=_view(fw, _sigmoid(fw.phi, fw.e_p)),
        p_hm=_view(fw, _sigmoid(fw.m, fw.e_m)),
        p_hk=_view(fw, _sigmoid(fw.psi, fw.e_k)) if params.has_phase else None,
    )


# --- diagnostics ---

def phase_coupling_matrix(h_k, params):
    """Phase coupling matrix K = Q_flat diag(R h_k) Q_flat' in the
    stacked (cos, sin) coordinate space; symmetric."""
    F, L, G = params.Q.shape
    h_k = _check_hidden(h_k, params.R.shape[1], "h_k")
    q_flat = params.Q.reshape(F * L, G)
    return (q_flat * (params.R @ h_k)) @ q_flat.T
