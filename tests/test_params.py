import numpy as np
import pytest

from mixwave.params import OperatorParams, exponents, symbol, theorem_hypotheses


def test_valid_params_and_derived():
    p = OperatorParams(1.0, 1.0, 0.5, 1)
    assert p.sigma_min == 0.5
    assert p.sigma_max == 1.0
    assert p.sigma_min * p.sigma_max == p.sigma
    assert p.p_crit == 2.0

    q = OperatorParams(2.0, 3.0, 1.5, 2)
    assert q.sigma_min == 1.0 and q.sigma_max == 1.5
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
    assert rep.alpha_min == pytest.approx(1.0)  # min(2-2*0.5, 2*0.5)
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
