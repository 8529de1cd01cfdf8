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
