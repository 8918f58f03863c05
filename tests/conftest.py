import pytest

from dgmf import linalg


@pytest.fixture
def wrong_solve(monkeypatch):
    """Make ``dgmf.linalg.solve`` return a wrong solution: the exact one,
    moved along its first nonzero column, so that A x != b."""
    exact = linalg.solve

    def solve(matrix, rhs, field, col_order=None):
        x = exact(matrix, rhs, field, col_order=col_order)
        if x is not None:
            j = next(j for j in range(len(x)) if any(row[j] for row in matrix))
            x[j] = x[j] + field.one
        return x

    monkeypatch.setattr(linalg, "solve", solve)
