import math
from fractions import Fraction
from functools import partial

import numpy as np
import pytest

from mixwave.evolve import StepControl, resolution_horizon
from mixwave.kernels import profile_hat
from mixwave.params import P_RULES, OperatorParams, symbol, theorem_hypotheses
from mixwave.torus import Grid


def test_valid_params_and_derived():
    p = OperatorParams(1.0, 1.0, 0.5, 1)
    assert p.sigma_min == 0.5
    assert p.p_crit == 2.0

    q = OperatorParams(2.0, 3.0, 1.5, 2)
    assert q.sigma_min == 1.0
    assert q.p_crit == 2.0


@pytest.mark.parametrize("bad", [
    dict(a=0.0, b=1.0, sigma=0.5, n=1),
    dict(a=1.0, b=-1.0, sigma=0.5, n=1),
    dict(a=1.0, b=1.0, sigma=1.0, n=1),
    dict(a=1.0, b=1.0, sigma=0.0, n=1),
    dict(a=1.0, b=1.0, sigma=0.5, n=0),
])
def test_invalid_params_rejected(bad):
    with pytest.raises(ValueError):
        OperatorParams(**bad)


def test_every_range_rule_rejects_nan():
    for rules in (OperatorParams.RULES, Grid.RULES, StepControl.RULES, P_RULES):
        for field, (test, _) in rules.items():
            assert not test(math.nan), field


def test_symbol_values():
    p = OperatorParams(1.0, 1.0, 0.5, 1)
    assert symbol(p, 0.0) == 0.0
    assert symbol(p, 1.0) == 2.0
    assert symbol(OperatorParams(2.0, 3.0, 1.5, 1), 2.0) == 32.0  # 2*4 + 3*8


def test_symbol_monotone_and_vectorized():
    p = OperatorParams(0.7, 2.0, 0.8, 2)
    r = np.linspace(0.0, 5.0, 200)
    m = symbol(p, r)
    assert m[0] == 0.0
    assert np.all(np.diff(m) > 0)
    with pytest.raises(ValueError):
        symbol(p, -1.0)


def test_exponent_values():
    p = OperatorParams(1.0, 1.0, 0.5, 1)
    assert p.decay_rate(0.0) == pytest.approx(0.5)
    assert p.decay_rate(0.5) == pytest.approx(1.0)
    assert p.alpha_min == pytest.approx(1.0)  # min(2-2*0.5, 2*0.5)
    assert p.p_regime(1.5) == "sub-critical"
    assert p.lifespan_rate(1.5) == pytest.approx(-1.0)
    assert p.p_regime(2.0) == "critical"
    assert p.lifespan_rate(2.0) is None
    assert p.p_regime(3.0) == "super-critical"
    assert p.lifespan_rate(3.0) is None
    # the critical band is 1e-12 relative wide on both sides of p_crit
    assert p.p_regime(2.0 * (1 + 0.9e-12)) == "critical"
    assert p.p_regime(2.0 * (1 - 0.9e-12)) == "critical"
    assert p.p_regime(2.0 * (1 + 1.1e-12)) == "super-critical"
    assert p.p_regime(2.0 * (1 - 1.1e-12)) == "sub-critical"


def test_alpha_min_branches():
    assert OperatorParams(1, 1, 0.25, 1).alpha_min == pytest.approx(0.5)   # 2*sigma
    assert OperatorParams(1, 1, 0.9, 1).alpha_min == pytest.approx(0.2)    # 2-2*sigma
    assert OperatorParams(1, 1, 1.5, 1).alpha_min == pytest.approx(1.0)    # 2*sigma-2
    assert OperatorParams(1, 1, 4.0, 1).alpha_min == pytest.approx(2.0)


def test_diffusivity_is_the_dominant_coefficient():
    # b r^(2 sigma) dominates a r^2 at low frequency below sigma = 1, a r^2 above
    assert OperatorParams(2.0, 3.0, 0.5, 1).diffusivity == 3.0
    assert OperatorParams(2.0, 3.0, 0.999, 1).diffusivity == 3.0
    assert OperatorParams(2.0, 3.0, 1.001, 1).diffusivity == 2.0
    assert OperatorParams(2.0, 3.0, 4.0, 2).diffusivity == 2.0


@pytest.mark.parametrize("sigma", [0.1, 0.5, 0.9, 1.1, 1.5, 3.0, 10.0])
@pytest.mark.parametrize("a, b", [(1.0, 1.0), (0.3, 2.7)])
def test_regime_forms_match_the_two_branch_forms(a, b, sigma):
    # the single formulas through sigma_min and diffusivity give the bits of
    # the branch-per-regime forms they replace
    params = OperatorParams(a, b, sigma, 1)
    rng = np.random.default_rng(7)
    t = 10.0 ** rng.uniform(-2, 3, (50, 1))
    r = 10.0 ** rng.uniform(-4, 1, 200)
    boxes = (1.0, 7.3, 50.0, 2560.0)
    if sigma < 1:
        hat = np.exp(-b * r ** (2.0 * sigma) * t)
        alpha = min(2.0 - 2.0 * sigma, 2.0 * sigma)
        horizons = [(L / 4.0) ** (2.0 * sigma) / b for L in boxes]
    else:
        hat = np.exp(-a * r**2 * t)
        alpha = min(2.0, 2.0 * sigma - 2.0)
        horizons = [(L / 4.0) ** 2 / a for L in boxes]
    assert profile_hat(params, t, r).tobytes() == hat.tobytes()
    assert params.alpha_min == alpha
    assert [resolution_horizon(params, L) for L in boxes] == horizons


def test_p_regime_domain_check():
    p = OperatorParams(1.0, 1.0, 0.5, 1)
    for method in (p.p_regime, p.lifespan_rate, partial(theorem_hypotheses, p)):
        with pytest.raises(ValueError, match="p must exceed 1"):
            method(1.0)


@pytest.mark.parametrize("n", [1, 2, 3])
def test_typed_p_crit_is_critical(n):
    # p typed as the decimal of 1 + 2 sigma/n lies within an ulp or so of the
    # computed p_crit, on either side; every rule takes it as critical
    for k in range(1, 100):
        params = OperatorParams(1.0, 1.0, k / 100, n)
        p = float(Fraction(100 * n + 2 * k, 100 * n))
        assert params.p_regime(p) == "critical", (k, n)
        assert params.lifespan_rate(p) is None
        blowup = [note for note in theorem_hypotheses(params, p) if "blow-up range" in note]
        assert len(blowup) == 1, (k, n)
        relation = "<=" if p == params.p_crit else "~"
        assert blowup[0].startswith(f"p = {p} {relation} p_crit = {params.p_crit} ")


def test_theorem_hypotheses_flags():
    p = OperatorParams(1.0, 1.0, 0.5, 1)
    assert theorem_hypotheses(p, 3.0) == []
    notes = theorem_hypotheses(p, 1.5)
    assert any("p >= 2" in note for note in notes)
    assert any("blow-up range" in note for note in notes)
    # n = 2 > 2 sigma_min: p = 3 exceeds n/(n - 2 sigma_min) = 2
    notes = theorem_hypotheses(OperatorParams(1.0, 1.0, 0.5, 2), 3.0)
    assert notes == ["p = 3.0 > n/(n - 2 sigma_min) = 2.0"]
    # a critical p states "<=" only where it equals p_crit
    assert theorem_hypotheses(p, 2.0) == [
        "p = 2.0 <= p_crit = 2.0 (blow-up range; global existence not expected)"]
    assert theorem_hypotheses(OperatorParams(1.0, 1.0, 0.18, 1), 1.36)[-1] == (
        "p = 1.36 ~ p_crit = 1.3599999999999999 (blow-up range; global existence not expected)")
