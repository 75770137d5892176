"""Pseudo-spectral toolkit for the damped wave equation with mixed
local-nonlocal diffusion: exact Fourier kernels, radial-quadrature norm
verification, a periodic ETD2 solver, scaling experiments and the
test-function blow-up certificate.

The API is the submodules (mixwave.evolve, mixwave.blowup, ...); the package
namespace itself is empty.
"""
