"""Factorized third-order Boltzmann machines for image patches.

Covers the mcRBM/mpRBM/mpkRBM family: mean units, L_p-pooled subspace
units and phase-coupling units over quadrature subspace angles, trained
by CD-1 with hybrid Monte Carlo sampling of the visibles.
"""

__version__ = "0.1.0"
