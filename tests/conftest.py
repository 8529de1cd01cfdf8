import numpy as np
import pytest

from dirac_sphere import gauge, oracle


@pytest.fixture
def forced_fault(monkeypatch):
    """Perturb one diagonal entry of every composed Dt*D, which
    f.matrix-symmetry reads, and add 1e-3 sech^2 w to the general j=2
    potential that f.isospectrality solves, so that both forced claims must
    fail."""
    compose = oracle.compose_factorized
    general = oracle.v_eff_general

    def faulty(A, k, grid):
        dtd, ddt = compose(A, k, grid)
        mid = grid.N // 2
        dtd.diag[mid] += 1e-3 * (1.0 + abs(dtd.diag[mid]))
        return dtd, ddt

    def bent(A, dA, k, j):
        pot = general(A, dA, k, j)
        if j == 1:
            return pot
        return gauge.EffectivePotential(lambda w: pot(w) + 1e-3 / np.cosh(w) ** 2)

    monkeypatch.setattr(oracle, "compose_factorized", faulty)
    monkeypatch.setattr(oracle, "v_eff_general", bent)


class _FailingFlapack:
    # scipy's f2py dsbev reporting LAPACK failure through info, as it does
    # when its QL/QR iteration fails to converge
    @staticmethod
    def dsbev(band, compute_v=1, lower=0, overwrite_ab=1):
        return np.zeros(band.shape[1]), np.zeros((1, 1)), 1


@pytest.fixture
def lapack_failure(monkeypatch):
    """Make every oracle eigensolve come back from LAPACK with info = 1."""
    monkeypatch.setattr(oracle, "_flapack", lambda: _FailingFlapack)
