"""Model parameters, initialization, constraint projections, checkpoints.

The model family is parameterized by

    C    (D, F, L)  subspace filters in the whitened pixel domain
    P    (F, N)     subspace-to-hidden pooling weights, entries <= 0
    W    (D, M)     mean-unit filters
    Q    (F, L, G)  phase-feature projection weights
    R    (G, T)     phase-factor-to-hidden weights, unit-norm columns
    b_c  (N,)       pooling hidden biases
    b_m  (M,)       mean hidden biases
    b_k  (T,)       phase hidden biases
    b_v  (D,)       visible biases

plus the pooling exponent alpha; L is C.shape[2]. The parameters are
float64: training, checkpoints and samples all hold float64 tensors. The
one float32 copy is `astype(np.float32)`, which `sampler.hmc_chain` makes
once per call for its leapfrog gradients. A diagonal P or R becomes an
`energy.Diagonal`, whose products scale by the diagonal, in two places:
that float32 copy, and the float64 params `cli.cmd_sample` holds.
`without_phase()` is the model of training stages 0-1, with an empty phase
family (G = T = 0, so `has_phase` is false), which `trainer.train` steps and
`cli.cmd_sample` samples for those stages. ModelParams is treated as an
immutable value between updates.
"""

import warnings
from dataclasses import dataclass, replace

import numpy as np

from . import container
from .errors import DataError, ShapeError

LEARNABLE_TENSORS = ("C", "P", "W", "Q", "R", "b_c", "b_m", "b_k", "b_v")


@dataclass(frozen=True)
class ModelShape:
    """Structural hyperparameters: all dimensions strictly positive. G = T
    = 0 is the phase-free model of `ModelParams.without_phase`, made only
    there, never validated and never saved."""

    n_visible: int          # D
    n_subspaces: int        # F
    subspace_dim: int       # L
    n_pool_hidden: int      # N
    n_mean_hidden: int      # M
    n_phase_factors: int    # G
    n_phase_hidden: int     # T

    def validate(self):
        for name, value in self.__dict__.items():
            if int(value) < 1:
                raise ShapeError(f"ModelShape.{name} must be >= 1, got {value}")


@dataclass
class ModelParams:
    C: np.ndarray
    P: np.ndarray
    W: np.ndarray
    Q: np.ndarray
    R: np.ndarray
    b_c: np.ndarray
    b_m: np.ndarray
    b_k: np.ndarray
    b_v: np.ndarray
    alpha: float = 2.0

    @property
    def subspace_dim(self):
        return self.C.shape[2]

    @property
    def shape(self):
        D, F, L = self.C.shape
        return ModelShape(
            n_visible=D,
            n_subspaces=F,
            subspace_dim=L,
            n_pool_hidden=self.P.shape[1],
            n_mean_hidden=self.W.shape[1],
            n_phase_factors=self.Q.shape[2],
            n_phase_hidden=self.R.shape[1],
        )

    def copy(self):
        return replace(self, **{n: t.copy() for n, t in self.tensors().items()})

    def astype(self, dtype):
        """A copy with every tensor cast to `dtype`; alpha stays a float."""
        return replace(self, **{n: t.astype(dtype) for n, t in self.tensors().items()})

    @property
    def has_phase(self):
        """Whether the model has phase-coupling units: Q has phase factors."""
        return self.Q.shape[-1] > 0

    def without_phase(self):
        """These params with an empty phase family, Q (F, L, 0), R (0, 0) and
        b_k (0,), in the dtype of C; the other tensors are shared, not copied."""
        F, L, dtype = self.C.shape[1], self.C.shape[2], self.C.dtype
        return replace(self, Q=np.zeros((F, L, 0), dtype), R=np.zeros((0, 0), dtype),
                       b_k=np.zeros(0, dtype))

    def tensors(self):
        return {name: getattr(self, name) for name in LEARNABLE_TENSORS}

    def all_finite(self):
        return all(np.all(np.isfinite(t)) for t in self.tensors().values())


def banded_identity(rows, cols, sign=1.0):
    """Banded identity pattern: entry `sign` where col == row mod cols,
    columns rescaled to unit L2-norm. Reduces to sign*I when rows == cols,
    and is diagonal whenever rows <= cols (the last cols - rows columns
    are zero), which `energy.Diagonal.of` detects."""
    out = np.zeros((rows, cols))
    out[np.arange(rows), np.arange(rows) % cols] = sign
    norms = np.linalg.norm(out, axis=0)
    norms[norms == 0] = 1.0
    return out / norms


# sign of the banded pattern that P (pooling, entries <= 0) and R (phase
# coupling) start from, and are reset to by a training stage
BANDED_SIGNS = {"P": -1.0, "R": 1.0}


def banded_pattern(name, shape):
    """The banded identity pattern of tensor `name` ("P" or "R")."""
    return banded_identity(*shape, sign=BANDED_SIGNS[name])


def init_params(shape, seed, alpha=2.0):
    """Fresh parameters: unit-norm random C, small random W and Q, banded
    negative identity P, banded identity R, biases (2, -2, 0, 0).

    Deterministic for a fixed seed.
    """
    shape.validate()
    rng = np.random.default_rng(seed)
    D, F, L = shape.n_visible, shape.n_subspaces, shape.subspace_dim
    N, M = shape.n_pool_hidden, shape.n_mean_hidden
    G, T = shape.n_phase_factors, shape.n_phase_hidden

    C = rng.standard_normal((D, F, L))
    C /= np.linalg.norm(C, axis=0, keepdims=True)
    W = rng.standard_normal((D, M)) * np.sqrt(0.05)
    Q = rng.standard_normal((F, L, G)) * np.sqrt(0.1)
    P = banded_pattern("P", (F, N))
    R = banded_pattern("R", (G, T))

    return ModelParams(
        C=C, P=P, W=W, Q=Q, R=R,
        b_c=np.full(N, 2.0),
        b_m=np.full(M, -2.0),
        b_k=np.zeros(T),
        b_v=np.zeros(D),
        alpha=float(alpha),
    )


# scale factors within a few ulps of 1 are snapped to 1 so that the
# projection is exactly idempotent and frozen tensors keep their bits
_SNAP = 8 * np.finfo(np.float64).eps


def _unit_columns(mat, what):
    norms = np.linalg.norm(mat, axis=0)
    zero = norms == 0
    if np.any(zero):
        warnings.warn(f"{what}: {int(zero.sum())} all-zero column(s) left unnormalized")
        norms = np.where(zero, 1.0, norms)
    norms = np.where(np.abs(norms - 1.0) <= _SNAP, 1.0, norms)
    return mat / norms


def project_constraints(params):
    """Post-update projection: clamp P to <= 0 and unit-normalize its
    columns, rescale every C filter vector to the mean pre-projection
    length, unit-normalize R columns. Returns a new ModelParams."""
    P = _unit_columns(np.minimum(params.P, 0.0), "P")
    R = _unit_columns(params.R.copy(), "R")

    lengths = np.linalg.norm(params.C, axis=0)          # (F, L)
    mean_len = lengths.mean()
    scale = np.where(lengths > 0, mean_len / np.where(lengths > 0, lengths, 1.0), 1.0)
    scale = np.where(np.abs(scale - 1.0) <= _SNAP, 1.0, scale)
    C = params.C * scale

    return replace(params, C=C, P=P, R=R)


def save_checkpoint(params, optimizer_state, path):
    """Serialize params plus a flat name->scalar optimizer state."""
    tensors = dict(params.tensors())
    tensors["alpha"] = np.float64(params.alpha)
    tensors["L"] = np.float64(params.subspace_dim)
    for key, value in (optimizer_state or {}).items():
        tensors[f"opt.{key}"] = np.float64(value)
    container.write_container(path, tensors)


def load_checkpoint(path):
    """Inverse of save_checkpoint. A DataError names the file and the entry
    when a learnable tensor holds a non-finite value, when alpha, L or an
    opt.* entry is not a finite scalar, or when alpha <= 0, opt.iteration
    is not a whole number >= 0 or opt.step_size <= 0; tensor shapes that
    disagree are a ShapeError."""
    tensors = container.read_container(path)
    missing = [n for n in LEARNABLE_TENSORS + ("alpha", "L") if n not in tensors]
    if missing:
        raise ShapeError(f"{path}: checkpoint missing tensors {missing}")
    scalars = ["alpha", "L"] + [name for name in tensors if name.startswith("opt.")]
    container.check_entries(path, tensors, arrays=LEARNABLE_TENSORS, scalars=scalars)
    values = {name: float(tensors[name]) for name in scalars}
    for name, ok, rule in (("alpha", lambda x: x > 0, "> 0"),
                           ("opt.iteration", lambda x: x >= 0 and x % 1 == 0,
                            "a whole number >= 0"),
                           ("opt.step_size", lambda x: x > 0, "> 0")):
        if name in values and not ok(values[name]):
            raise DataError(f"{path}: {name} {values[name]:g} is not {rule}")
    params = ModelParams(**{name: tensors[name] for name in LEARNABLE_TENSORS},
                         alpha=values.pop("alpha"))
    _check_consistent(params, path, values.pop("L"))
    return params, {name[len("opt."):]: value for name, value in values.items()}


def _check_consistent(params, path, header_L):
    if params.C.ndim != 3 or params.Q.ndim != 3:
        raise ShapeError(f"{path}: C and Q must be rank 3")
    if {params.b_c.ndim, params.b_m.ndim, params.b_k.ndim} != {1}:
        raise ShapeError(f"{path}: b_c, b_m and b_k must be rank 1")
    D, F, L = params.C.shape
    N, M, T = params.b_c.shape[0], params.b_m.shape[0], params.b_k.shape[0]
    G = params.Q.shape[2]
    expected = {
        "P": (F, N),
        "W": (D, M),
        "Q": (F, L, G),
        "R": (G, T),
        "b_v": (D,),
    }
    for name, shape in expected.items():
        actual = getattr(params, name).shape
        if actual != shape:
            raise ShapeError(f"{path}: tensor {name} has shape {actual}, expected {shape}")
    if L != header_L:
        raise ShapeError(f"{path}: header L={header_L:g} but C has L={L}")
