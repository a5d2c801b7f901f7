"""Computed operation and byte counts for the three model kernels.

The counts come from tensor shapes alone, never from hardware counters:
this machine has no way to read those. A multiply-add counts as two
floating-point operations and every elementwise operation (exp, log1p,
sqrt, arctan2 and the like included) as one. Bytes count every float64
operand and every intermediate the code forms, each written once and read
once; numpy's hidden temporaries are not counted, so the byte figure is a
lower bound on memory traffic. Both figures are labelled "computed".

Shapes: batch B, visible D, subspaces F of dimension L, pooling hiddens N,
mean hiddens M, phase factors G, phase hiddens T.
"""

from dataclasses import dataclass

WORD = 8


@dataclass(frozen=True)
class Dims:
    B: int
    D: int
    F: int
    L: int
    N: int
    M: int
    G: int
    T: int

    @classmethod
    def of(cls, batch, params):
        D, F, L = params.C.shape
        return cls(B=batch, D=D, F=F, L=L, N=params.P.shape[1], M=params.W.shape[1],
                   G=params.Q.shape[2], T=params.R.shape[1])

    @property
    def param_words(self):
        d = self
        return (d.D * d.F * d.L + d.F * d.N + d.D * d.M + d.F * d.L * d.G + d.G * d.T
                + d.N + d.M + d.T + d.D)


def _forward(d, phase, projections):
    """Flops and intermediate words of the shared forward: normalisation,
    `projections` subspace projections, pooling, mean and phase drives."""
    B, D, F, L, N, M, G, T = d.B, d.D, d.F, d.L, d.N, d.M, d.G, d.T
    flops = (3 * B * D                              # norm and divide
             + projections * 2 * B * D * F * L      # C' u
             + 3 * B * F * L + B * F                # |y|^alpha, sum, root
             + 2 * B * F * N + B * N                # s P + b_c
             + 2 * B * D * M + B * M)               # v W + b_m
    words = B * D + projections * B * F * L + B * F + B * N + B * M
    if phase:
        flops += (8 * B * F                         # amplitude, angle, unit circle
                  + 2 * B * F * L * G               # Q' x
                  + B * G + 2 * B * G * T + B * T)  # q^2 R + b_k
        words += B * F * L + B * G + B * T
    return flops, words


def free_energy(d, phase=True):
    # energy.free_energy projects twice when phase units are on: once for
    # the pooling drive and once inside phase_features
    flops, words = _forward(d, phase, projections=2 if phase else 1)
    hidden = d.N + d.M + (d.T if phase else 0)
    flops += 6 * d.B * hidden + 4 * d.B * d.D       # softplus + sums, visible term
    return flops, words + d.B


def _backward_to_y(d, phase):
    """dF/dy through the pooling and phase paths."""
    B, F, L, N, G, T = d.B, d.F, d.L, d.N, d.G, d.T
    flops = 4 * B * (N + d.M) + 2 * B * N * F + 6 * B * F * L   # sigmoids, g_s, dsdy
    words = B * F + 2 * B * F * L
    if phase:
        flops += 4 * B * T + 2 * B * T * G + B * G + 2 * B * F * L * G + 14 * B * F
        words += B * G + B * F * L
    return flops, words


def grad_free_energy_v(d, phase=True):
    f1, w1 = _forward(d, phase, projections=1)
    f2, w2 = _backward_to_y(d, phase)
    B, D = d.B, d.D
    flops = (f1 + f2 + 2 * B * d.F * d.L * D        # dy C'
             + 5 * B * D                            # tangential projection
             + 2 * B * d.M * D + 2 * B * D)         # sig_m W', visible terms
    return flops, w1 + w2 + 2 * B * D


def grad_free_energy_params(d, phase=True):
    f1, w1 = _forward(d, phase, projections=1)
    f2, w2 = _backward_to_y(d, phase)
    B, D, F, L, N, M, G, T = d.B, d.D, d.F, d.L, d.N, d.M, d.G, d.T
    flops = (f1 + f2 + 2 * B * D * F * L + 2 * B * F * N + 2 * B * D * M
             + B * (N + M + D))                     # bias means
    if phase:
        flops += 2 * B * T * G + 2 * B * F * L * G + B * G + 2 * B * G * T + B * T
    return flops, w1 + w2 + d.param_words          # one gradient per parameter


KERNELS = {
    "energy.free_energy": free_energy,
    "grad.grad_free_energy_v": grad_free_energy_v,
    "grad.grad_free_energy_params": grad_free_energy_params,
}


def counts(kernel, batch, params, phase=True):
    """(flops, bytes) of one call of `kernel` on `batch` rows."""
    d = Dims.of(batch, params)
    flops, words = KERNELS[kernel](d, phase)
    # parameters are read once per call on top of the intermediates
    return flops, WORD * (words + d.param_words)
