import pytest

from mixwave.evolve import RunStatus, StepControl, initial_state, run
from mixwave.params import OperatorParams
from mixwave.torus import Grid


@pytest.fixture(scope="session")
def stored_blowup():
    """The stored blow-up run of criterion 8 (N = 2048, sigma = 1/2, p = 1.5),
    built once per session for test_acceptance and test_blowup.  Every test
    that uses it shares its snapshots, so none may write into them."""
    grid = Grid(1, 2048, 50.0)
    state, u0, u1 = initial_state(grid, eps=1.0)
    ctrl = StepControl(t_end=100.0, dt_max=0.02, record_t0=0.02,
                       record_ratio=1.04, snapshots=True)
    out = run(OperatorParams(1.0, 1.0, 0.5, 1), state, ctrl, p=1.5, eps=1.0, u0=u0, u1=u1)
    assert out.status is RunStatus.BLEW_UP
    return out
