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
phase factors q, the three drives and F, as matrix products on the
flattened C (D, F*L) and Q (F*L, G). The public functions here are views
of it: `free_energy`, `hidden_conditionals` and `total_energy` on the raw
patch; `subspace_pool`, `pool_drive`, `energy_p`, `energy_k` and
`phase_features` on a patch the caller has normalized; `energy_m` on the
raw patch. `grad` runs its backward pass from the same intermediates.

All operations are pure functions of (v, params); v may be a single vector
(D,) or rows with any leading shape (..., D).
"""

from dataclasses import dataclass
from types import SimpleNamespace

import numpy as np

from .errors import NumericError, ParameterError, ShapeError
from .preprocess import EPS_NORM

EPS_R = 1e-6


def softplus(y):
    """log(1 + exp(y)) computed without overflow."""
    y = np.asarray(y, dtype=np.float64)
    return np.maximum(y, 0.0) + np.log1p(np.exp(-np.abs(y)))


def sigmoid(y):
    y = np.asarray(y, dtype=np.float64)
    z = np.exp(np.where(y >= 0, -y, y))     # exp of a non-positive value
    return np.where(y >= 0, 1.0 / (1.0 + z), z / (1.0 + z))


def _forward(v, params, with_phase=True, normalize=True):
    """Every intermediate of F at the rows of v, flattened to (B, D).

    With `normalize` the pooling and phase paths see u = v / max(||v||, eps);
    without it they see v as given (the drive views take an already
    normalized patch). `lead` is the caller's leading shape; `_view`
    restores it on any per-row result.
    """
    v = np.asarray(v, dtype=np.float64)
    D, F, L = params.C.shape
    if v.shape[-1] != D:
        raise ShapeError(f"visible dim {v.shape[-1]} != model D={D}")
    if not params.alpha > 0:
        raise ParameterError(f"alpha must be > 0, got {params.alpha}")
    if with_phase and L != 2:
        raise ParameterError(f"phase units require subspace dimension L = 2, got L={L}")

    fw = SimpleNamespace(lead=v.shape[:-1], with_phase=with_phase)
    V = fw.V = v.reshape(-1, D)
    B = V.shape[0]
    with np.errstate(over="ignore", invalid="ignore"):
        fw.norm = np.linalg.norm(V, axis=1, keepdims=True)
        fw.nu = np.maximum(fw.norm, EPS_NORM)
        fw.U = V / fw.nu if normalize else V
        Y = fw.Y = (fw.U @ params.C.reshape(D, F * L)).reshape(B, F, L)
        fw.abs_y = np.abs(Y)
        fw.s = np.sum(fw.abs_y ** params.alpha, axis=-1) ** (1.0 / params.alpha)
        fw.phi = 0.5 * fw.s @ params.P + params.b_c
        fw.m = V @ params.W + params.b_m
        fw.quad = 0.5 * np.sum(V * V, axis=1) - V @ params.b_v
        fw.f = fw.quad - softplus(fw.phi).sum(axis=1) - softplus(fw.m).sum(axis=1)
        if with_phase:
            fw.r = np.sqrt(np.sum(Y * Y, axis=-1) + EPS_R * EPS_R)
            fw.x = Y / fw.r[..., None]
            fw.q = fw.x.reshape(B, F * L) @ params.Q.reshape(F * L, -1)
            fw.psi = 0.5 * (fw.q * fw.q) @ params.R + params.b_k
            fw.f = fw.f - softplus(fw.psi).sum(axis=1)
    return fw


def _view(fw, rows):
    """A per-row result (B, ...) in the caller's leading shape; a scalar
    for a single-vector F."""
    return rows.reshape(fw.lead + rows.shape[1:])[()]


def _check_finite(fw, caller):
    """NumericError naming the first non-finite drive or visible term."""
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


def energy_p(v, h_p, params):
    """Pooling-unit energy. v must already be normalized; h_p may be a
    single binary vector (N,) or a stack of configurations (..., N)."""
    h_p = _check_hidden(h_p, params.P.shape[1], "h_p")
    return -h_p @ pool_drive(v, params)


def energy_m(v, h_m, params):
    """Mean-unit energy on the raw (unnormalized) patch."""
    h_m = _check_hidden(h_m, params.W.shape[1], "h_m")
    fw = _forward(v, params, with_phase=False, normalize=False)
    return -h_m @ _view(fw, fw.m)


def energy_k(v, h_k, params):
    """Phase-coupling energy; v should be normalized by the caller."""
    h_k = _check_hidden(h_k, params.R.shape[1], "h_k")
    fw = _forward(v, params, with_phase=True, normalize=False)
    return -h_k @ _view(fw, fw.psi)


def total_energy(v, h_p, h_m, h_k, params, with_phase=True):
    """E_p + E_m + E_k + 1/2 ||v||^2 - b_v . v for a single patch v.

    The pooling and phase terms see the normalized patch, matching
    their definitions; the mean and visible terms use v as given.
    """
    h_p = _check_hidden(h_p, params.P.shape[1], "h_p")
    h_m = _check_hidden(h_m, params.W.shape[1], "h_m")
    fw = _forward(v, params, with_phase)
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
    _check_finite(fw, "free_energy")
    return _view(fw, fw.f)


@dataclass
class HiddenActivations:
    """Conditional on-probabilities of each hidden family given v."""

    p_hp: np.ndarray
    p_hm: np.ndarray
    p_hk: np.ndarray


def hidden_conditionals(v, params, with_phase=True):
    fw = _forward(v, params, with_phase)
    return HiddenActivations(
        p_hp=_view(fw, sigmoid(fw.phi)),
        p_hm=_view(fw, sigmoid(fw.m)),
        p_hk=_view(fw, sigmoid(fw.psi)) if with_phase else None,
    )


# --- diagnostics ---

def inverse_covariance(h_p, params):
    """Gated precision-style matrix C_flat diag(repeat(P h_p)) C_flat'.

    Each subspace's pooled weight applies to all L of its filter vectors;
    symmetric by construction.
    """
    D, F, L = params.C.shape
    h_p = _check_hidden(h_p, params.P.shape[1], "h_p")
    weights = np.repeat(params.P @ h_p, L)
    c_flat = params.C.reshape(D, F * L)
    return (c_flat * weights) @ c_flat.T


def phase_coupling_matrix(h_k, params):
    """Phase coupling matrix K = Q_flat diag(R h_k) Q_flat' in the
    stacked (cos, sin) coordinate space; symmetric."""
    F, L, G = params.Q.shape
    h_k = _check_hidden(h_k, params.R.shape[1], "h_k")
    q_flat = params.Q.reshape(F * L, G)
    return (q_flat * (params.R @ h_k)) @ q_flat.T
