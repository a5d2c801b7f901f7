"""Factorized third-order Boltzmann machines for image patches.

Covers the mcRBM/mpRBM/mpkRBM family: mean units, L_p-pooled subspace
units and phase-coupling units over quadrature subspace angles, trained
by CD-1 with hybrid Monte Carlo sampling of the visibles.
"""

from .energy import (
    HiddenActivations,
    PhaseFeatures,
    free_energy,
    hidden_conditionals,
    phase_coupling_matrix,
    phase_features,
    subspace_pool,
    total_energy,
)
from .grad import (
    ParamGradient,
    check_gradients,
    grad_free_energy_params,
    grad_free_energy_v,
)
from .params import (
    ModelParams,
    ModelShape,
    init_params,
    load_checkpoint,
    project_constraints,
    save_checkpoint,
)
from .preprocess import (
    WhiteningTransform,
    extract_patches,
    fit_whitening,
    normalize_visible,
)
from .sampler import Chain, HmcConfig, HmcStats, hmc_chain, leapfrog
from .synth import (
    VonMisesPair,
    quadrature_gabor_basis,
    render_quadrature_patches,
    sample_coupled_phases,
    von_mises_pair_pdf,
)
from .trainer import StageSpec, TrainerConfig, cd1_step, default_stages, train

__version__ = "0.1.0"
