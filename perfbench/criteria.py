"""Seed variants and verdict tolerances, shared by the harness and the workloads.

Seed 0 reproduces the acceptance criteria's exact inputs.  Other seeds scale
the data amplitude eps and the Gaussian datum width by factors within
+/-SPREAD.  Seeds that agree modulo VARIANTS give the same inputs, so every
seed has a stored reference.
"""
from __future__ import annotations

import math
import random

VARIANTS = 8
SPREAD = 0.03


def factors(seed: int) -> tuple[float, float]:
    """(eps factor, width factor) for a seed; exactly (1, 1) for variant 0."""
    variant = seed % VARIANTS
    if variant == 0:
        return 1.0, 1.0
    rng = random.Random(variant)
    return (1.0 + SPREAD * (2.0 * rng.random() - 1.0),
            1.0 + SPREAD * (2.0 * rng.random() - 1.0))


# criterion tolerance of each verdict quantity: drift = |value - reference| / tol;
# t_blowup uses criterion 7's 10% relative tolerance
TOLERANCES = {
    "lifespan": {"t_blowup": ("relative", 0.10)},
    "profile": {"l2_slope": ("absolute", 0.05), "ratio": ("absolute", 0.1),
                "duhamel_residual": ("absolute", 1e-6),
                "profile_collapse": ("absolute", 1.0 / 3.0)},
    "certificate": {"j4_exponent": ("absolute", 0.15),
                    "fraclap_change_0.5": ("absolute", 0.05),
                    "fraclap_change_1.5": ("absolute", 0.05)},
    "radial": {"c3_s0_sigma0.5": ("absolute", 0.03), "c3_s0.5_sigma0.5": ("absolute", 0.05),
               "c3_s0_sigma1.5": ("absolute", 0.03),
               "c4_ratio_sigma0.5": ("absolute", 1.0 / 3.0),
               "c4_ratio_sigma1.5": ("absolute", 1.0 / 3.0),
               "c4_exponent_sigma0.5": ("absolute", 0.15),
               "c4_exponent_sigma1.5": ("absolute", 0.15)},
}


def drift(workload: str, quantities: dict, reference: dict) -> float:
    """Largest |value - reference| / criterion tolerance over the verdict."""
    worst = 0.0
    for name, (kind, tol) in TOLERANCES[workload].items():
        ref = reference[name]
        scale = tol * abs(ref) if kind == "relative" else tol
        d = abs(quantities[name] - ref) / scale
        worst = max(worst, d if math.isfinite(d) else math.inf)
    return worst
