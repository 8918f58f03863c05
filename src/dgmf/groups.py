"""Finite symmetry groups acting on the variables of a weighted polynomial ring."""

from __future__ import annotations

from . import linalg
from .poly import _linear_forms


class GroupElement:
    """An invertible matrix of Scalars of finite multiplicative order.

    The matrix acts on the vector space V whose coordinates are the ring
    variables; the induced action on polynomials is by linear substitution
    (contragredient bookkeeping so that act(gh, p) = act(g, act(h, p))).
    """

    def __init__(self, ring, matrix):
        field = ring.field
        n = ring.nvars
        matrix = [[field.scalar(c) for c in row] for row in matrix]
        if len(matrix) != n or any(len(row) != n for row in matrix):
            raise ValueError(f"matrix must be {n}x{n} to act on {ring!r}")
        self.ring = ring
        self.matrix = matrix
        self.order = self._compute_order()
        if not self._commutes_with_r_charge():
            raise ValueError("group element does not commute with the R-charge action")

    def _compute_order(self):
        field = self.ring.field
        bound = 4 * max(field.order, 1)
        ident = linalg.identity(field, self.ring.nvars)
        power = self.matrix
        for k in range(1, bound + 1):
            if power == ident:
                return k
            power = linalg.mat_mul(power, self.matrix, field)
        raise ValueError(f"matrix has no multiplicative order <= {bound}; "
                         "not finite order or bound too small")

    def _commutes_with_r_charge(self):
        # commuting with diag(t^{w_i}) for all t forces zero entries between
        # variables of different weight
        w = self.ring.weights
        for i, row in enumerate(self.matrix):
            for j, c in enumerate(row):
                if c and w[i] != w[j]:
                    return False
        return True

    def __eq__(self, other):
        return (isinstance(other, GroupElement) and other.ring == self.ring
                and other.matrix == self.matrix)

    def __hash__(self):
        return hash((self.ring, tuple(tuple(row) for row in self.matrix)))

    def __mul__(self, other):
        if not isinstance(other, GroupElement):
            return NotImplemented
        return GroupElement(self.ring,
                            linalg.mat_mul(self.matrix, other.matrix, self.ring.field))

    def inverse(self):
        return GroupElement(self.ring, linalg.invert(self.matrix, self.ring.field))

    @classmethod
    def diagonal(cls, ring, entries):
        field = ring.field
        if len(entries) != ring.nvars:
            raise ValueError(f"a diagonal element needs {ring.nvars} entries to act "
                             f"on {ring!r}, got {len(entries)}")
        m = linalg.zeros(field, ring.nvars, ring.nvars)
        for i, e in enumerate(entries):
            m[i][i] = field.scalar(e)
        return cls(ring, m)

    def is_diagonal(self):
        return all(not c for i, row in enumerate(self.matrix)
                   for j, c in enumerate(row) if i != j)

    def diagonal_entries(self):
        return [row[i] for i, row in enumerate(self.matrix)]

    def commutes_with(self, other):
        return self.commutator_witness(other) is None

    def commutator_witness(self, other):
        """First (i, j, gh_ij, hg_ij) where gh and hg differ, else None."""
        f = self.ring.field
        ab = linalg.mat_mul(self.matrix, other.matrix, f)
        ba = linalg.mat_mul(other.matrix, self.matrix, f)
        for i in range(len(ab)):
            for j in range(len(ab)):
                if ab[i][j] != ba[i][j]:
                    return (i, j, ab[i][j], ba[i][j])
        return None

    def act(self, p):
        """Linear substitution action on a polynomial of the same ring."""
        if p.ring != self.ring:
            raise ValueError("polynomial ring does not match the group element")
        return p.substitute(_linear_forms(linalg.transpose(self.matrix), self.ring))

    def fixed_subspace(self):
        """Basis of V^g = ker(g - id), as column vectors of Scalars."""
        f = self.ring.field
        n = self.ring.nvars
        m = [[self.matrix[i][j] - (f.one if i == j else f.zero) for j in range(n)]
             for i in range(n)]
        return linalg.nullspace(m, f)

    def __repr__(self):
        rows = "; ".join(", ".join(str(c) for c in row) for row in self.matrix)
        return f"GroupElement([{rows}], order={self.order})"


def act(g, p):
    return g.act(p)


def is_invariant(p, generators):
    return all(g.act(p) == p for g in generators)
