import numpy as np
import pytest

from dirac_sphere import oracle


@pytest.fixture
def forced_fault(monkeypatch):
    """Perturb one diagonal entry of every composed Dt*D, so that both forced
    claims (f.matrix-symmetry and f.isospectrality) must fail."""
    compose = oracle.compose_factorized

    def faulty(A, k, grid):
        dtd, ddt = compose(A, k, grid)
        mid = grid.N // 2
        dtd.diag[mid] += 1e-3 * (1.0 + abs(dtd.diag[mid]))
        return dtd, ddt

    monkeypatch.setattr(oracle, "compose_factorized", faulty)


class _FailingLapack:
    # LAPACK dsbev reporting failure through info, as it does when its QL/QR
    # iteration fails to converge
    def dsbev(self, band):
        return np.zeros(band.shape[1]), 1


@pytest.fixture
def lapack_failure(monkeypatch):
    """Make every oracle eigensolve come back from LAPACK with info = 1."""
    monkeypatch.setattr(oracle, "_lapack", _FailingLapack)
