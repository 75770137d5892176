import numpy as np
import pytest

from mixwave.evolve import resolution_horizon
from mixwave.kernels import profile_hat
from mixwave.params import OperatorParams, exponents, symbol, theorem_hypotheses


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


def test_exponent_report_values():
    p = OperatorParams(1.0, 1.0, 0.5, 1)
    rep = exponents(p, s=0.0, p=1.5)
    assert rep.decay_exp == pytest.approx(0.5)
    assert p.alpha_min == pytest.approx(1.0)  # min(2-2*0.5, 2*0.5)
    assert rep.lifespan_exp == pytest.approx(-1.0)
    assert not rep.is_critical

    crit = exponents(p, s=0.0, p=2.0)
    assert crit.is_critical
    assert crit.lifespan_exp is None

    above = exponents(p, s=0.5, p=3.0)
    assert above.lifespan_exp is None
    assert above.decay_exp == pytest.approx(1.0)


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


def test_exponents_domain_checks():
    p = OperatorParams(1.0, 1.0, 0.5, 1)
    with pytest.raises(ValueError):
        exponents(p, s=0.6, p=3.0)
    with pytest.raises(ValueError):
        exponents(p, s=0.0, p=1.0)


def test_theorem_hypotheses_flags():
    p = OperatorParams(1.0, 1.0, 0.5, 1)
    assert theorem_hypotheses(p, 3.0) == []
    notes = theorem_hypotheses(p, 1.5)
    assert any("p >= 2" in note for note in notes)
    assert any("blow-up range" in note for note in notes)
    # n = 2 > 2 sigma_min: p = 3 exceeds n/(n - 2 sigma_min) = 2
    notes = theorem_hypotheses(OperatorParams(1.0, 1.0, 0.5, 2), 3.0)
    assert notes == ["p = 3.0 > n/(n - 2 sigma_min) = 2.0"]
