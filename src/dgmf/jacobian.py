"""Bounded-degree Jacobian-ideal membership for quasihomogeneous potentials.

Nondegeneracy (isolated critical point at the origin) is decided, when
possible within a degree bound, by exact linear algebra in the weight-graded
pieces: the potential is nondegenerate iff some power of the maximal ideal is
contained in the ideal of partial derivatives.  The third verdict
"inconclusive" is honest: the bound was too small, nothing more.
"""

from __future__ import annotations

from itertools import combinations

from . import linalg


NONDEGENERATE = "nondegenerate"
DEGENERATE = "degenerate"
INCONCLUSIVE = "inconclusive"


def _graded_piece_in_jacobian(W, weight, partials):
    """True iff every monomial of the given weight lies in the span of
    monomial multiples of the partial derivatives."""
    ring = W.ring
    field = ring.field
    basis = ring.monomials_of_weight(weight)
    if not basis:
        return True
    index = {e: i for i, e in enumerate(basis)}
    columns = []
    for i, dW in enumerate(partials):
        if not dW:
            continue
        wi, _ = dW.weight()
        if wi == "zero":
            continue
        for mono in ring.monomials_of_weight(weight - wi):
            col = [field.zero] * len(basis)
            ok = True
            for e, c in dW.terms.items():
                prod = tuple(a + b for a, b in zip(e, mono))
                if prod not in index:
                    ok = False
                    break
                col[index[prod]] = col[index[prod]] + c
            if ok:
                columns.append(col)
    if not columns:
        return False
    matrix = [[col[r] for col in columns] for r in range(len(basis))]
    return linalg.rank(matrix, field) == len(basis)


def _degenerate_witness(W, partials):
    """Look for a coordinate subspace on which the whole gradient vanishes
    identically; returns the list of surviving variable names, or None."""
    ring = W.ring
    n = ring.nvars
    for keep_size in range(1, n + 1):
        for keep in combinations(range(n), keep_size):
            images = []
            for i in range(n):
                images.append(ring.gen(ring.names[i]) if i in keep else ring.zero)
            if all(not dW.substitute(images) for dW in partials):
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
    witness = _degenerate_witness(W, partials)
    if witness is not None:
        return (DEGENERATE, witness)
    band = max(ring.weights)
    checked = {}
    for m in range(1, degree_bound + 1):
        checked[m] = _graded_piece_in_jacobian(W, m, partials)
    for start in range(1, degree_bound - band + 2):
        if all(checked.get(start + k, False) for k in range(band)):
            return (NONDEGENERATE, (start, start + band - 1))
    return (INCONCLUSIVE, None)
