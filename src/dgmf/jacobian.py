"""Bounded-degree Jacobian-ideal membership for quasihomogeneous potentials.

The Jacobian ring of W is H^0 of the derived critical locus Z(dW), the
dg-scheme ``derived_zero_locus(ring, partials)``: its weight-m piece
Jac(W)_m = H^0(Z(dW))_m is the cokernel of d from exterior degree -1 to
degree 0.  Nondegeneracy (isolated critical point at the origin) is decided,
when possible within a degree bound, by the rank of that d on each weight
piece: the potential is nondegenerate iff some power of the maximal ideal is
contained in the ideal of partial derivatives.  The third verdict
"inconclusive" is honest: the bound was too small, nothing more.
"""

from __future__ import annotations

from itertools import combinations

from . import linalg
from .factorizations import _d_system, derived_zero_locus


NONDEGENERATE = "nondegenerate"
DEGENERATE = "degenerate"
INCONCLUSIVE = "inconclusive"


def _degenerate_witness(ring, partials):
    """The first keep-set, in (size, lex) order, of a coordinate subspace on
    which the whole gradient vanishes identically, as a list of variable
    names; None if there is none.  A partial vanishes there iff each of its
    monomials has a positive exponent outside the keep-set."""
    n = ring.nvars
    for keep_size in range(1, n + 1):
        for keep in combinations(range(n), keep_size):
            if all(any(a for i, a in enumerate(e) if i not in keep)
                   for dW in partials for e in dW.terms):
                return [ring.names[i] for i in keep]
    return None


def nondegeneracy_check(W, degree_bound):
    """Returns (verdict, detail).

    verdict is one of NONDEGENERATE / DEGENERATE / INCONCLUSIVE.  For
    DEGENERATE the detail names the coordinate subspace where the gradient
    vanishes; for NONDEGENERATE it is the weight band at which the maximal
    ideal power falls inside the Jacobian ideal.  Verdicts are monotone in the
    bound: a definite answer never flips.  A negative bound is a ValueError.
    """
    if degree_bound < 0:
        raise ValueError(f"degree_bound must be >= 0, got {degree_bound}")
    ring = W.ring
    w, _ = W.weight()
    if w == "inhomogeneous":
        raise ValueError("nondegeneracy check requires a quasihomogeneous potential")
    partials = [W.derivative(i) for i in range(ring.nvars)]
    witness = _degenerate_witness(ring, partials)
    if witness is not None:
        return (DEGENERATE, witness)
    critical = derived_zero_locus(ring, partials)
    zero = critical.zero_element()
    band, run = max(ring.weights), 0
    for m in range(1, degree_bound + 1):
        full = (linalg.rank(_d_system(critical, zero, -1, m)[1], ring.field)
                == len(ring.monomials_of_weight(m)))
        run = run + 1 if full else 0
        if run == band:
            return (NONDEGENERATE, (m - band + 1, m))
    return (INCONCLUSIVE, None)
