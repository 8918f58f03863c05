import random
from itertools import combinations

import pytest

from dgmf import (CyclotomicField, DEGENERATE, INCONCLUSIVE, NONDEGENERATE,
                  PolyRing, jacobian, linalg, nondegeneracy_check)

F = CyclotomicField(1)


def test_fermat_nondegenerate():
    R = PolyRing(F, ["x", "y"], [1, 1])
    verdict, _ = nondegeneracy_check(R.parse("x^3 + y^3"), 6)
    assert verdict == NONDEGENERATE


def test_quintic_one_variable():
    R = PolyRing(F, ["x"], [1])
    verdict, _ = nondegeneracy_check(R.parse("x^5"), 8)
    assert verdict == NONDEGENERATE


def test_loop_polynomial():
    R = PolyRing(F, ["x", "y"], [1, 1])
    verdict, _ = nondegeneracy_check(R.parse("x^2*y + y^2*x"), 6)
    assert verdict == NONDEGENERATE


def test_degenerate_with_witness():
    # all partials of x^2 y^2 vanish identically on both axes
    R = PolyRing(F, ["x", "y"], [1, 1])
    verdict, detail = nondegeneracy_check(R.parse("x^2*y^2"), 8)
    assert verdict == DEGENERATE
    assert detail  # coordinate-subspace witness


def test_inconclusive_at_tiny_bound():
    R = PolyRing(F, ["x", "y"], [1, 1])
    verdict, _ = nondegeneracy_check(R.parse("x^3 + y^3"), 1)
    assert verdict == INCONCLUSIVE


def test_monotone_in_bound():
    # once nondegenerate at some bound, larger bounds agree
    R = PolyRing(F, ["x", "y"], [1, 2])
    W = R.parse("x^4 + y^2")
    verdicts = [nondegeneracy_check(W, b)[0] for b in range(1, 9)]
    seen_nondeg = False
    for v in verdicts:
        if v == NONDEGENERATE:
            seen_nondeg = True
        if seen_nondeg:
            assert v == NONDEGENERATE
    assert seen_nondeg


def test_nondegeneracy_check_rejects_an_inhomogeneous_potential():
    R = PolyRing(F, ["x", "y"], [1, 1])
    with pytest.raises(ValueError, match="quasihomogeneous"):
        nondegeneracy_check(R.parse("x^3 + y^2"), 6)


def test_nondegeneracy_check_rejects_a_negative_bound():
    R = PolyRing(F, ["x", "y"], [1, 1])
    with pytest.raises(ValueError, match="degree_bound must be >= 0, got -1"):
        nondegeneracy_check(R.parse("x^3 + y^3"), -1)


# The matrix-building and substituting helpers that the derived critical
# locus replaced, kept verbatim as the reference for the corpus below.

def _reference_graded_piece_in_jacobian(W, weight, partials):
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


def _reference_degenerate_witness(W, partials):
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


def _reference_check(W, degree_bound):
    ring = W.ring
    partials = [W.derivative(i) for i in range(ring.nvars)]
    witness = _reference_degenerate_witness(W, partials)
    if witness is not None:
        return (DEGENERATE, witness)
    band = max(ring.weights)
    checked = {}
    for m in range(1, degree_bound + 1):
        checked[m] = _reference_graded_piece_in_jacobian(W, m, partials)
    for start in range(1, degree_bound - band + 2):
        if all(checked.get(start + k, False) for k in range(band)):
            return (NONDEGENERATE, (start, start + band - 1))
    return (INCONCLUSIVE, None)


SHAPES = {
    "fermat": (["x", "y", "z"], [1, 1, 1], ["x^3", "y^3", "z^3"]),
    "chain": (["x", "y"], [1, 3], ["x^3*y", "y^2"]),
    "loop": (["x", "y", "z"], [1, 1, 1], ["x^2*y", "y^2*z", "z^2*x"]),
    "weighted": (["x", "y", "z"], [2, 3, 6], ["x^3", "y^2", "z"]),
    "degenerate": (["x", "y"], [1, 1], ["x^2*y^2"]),
    "two_of_three": (["x", "y", "z"], [1, 1, 1], ["x^3", "y^3"]),
}


@pytest.mark.parametrize("order", [1, 4, 6, 12])
def test_nondegeneracy_check_matches_the_reference_on_a_seeded_corpus(order):
    field = CyclotomicField(order)
    rng = random.Random(f"jacobian:{order}")
    verdicts = set()
    for names, weights, monomials in SHAPES.values():
        R = PolyRing(field, names, weights)
        for _ in range(3):
            W = R.zero
            for mono in monomials:
                c = field.scalar(rng.choice([1, 2, -3])) * field.zeta ** rng.randrange(order)
                W = W + R.parse(mono) * R.constant(c)
            for bound in range(11):
                got = nondegeneracy_check(W, bound)
                assert got == _reference_check(W, bound), (str(W), bound)
                verdicts.add(got[0])
    assert verdicts == {NONDEGENERATE, DEGENERATE, INCONCLUSIVE}


def test_nondegeneracy_check_stops_at_the_first_full_band(monkeypatch):
    """The weight pieces are ranked upward and the scan returns at the first
    band of full pieces: the Fermat cubic in three variables is full from
    weight 4 on, so bound 10 ranks pieces 1..4 only, and a bound the band
    does not fit under ranks every piece up to it."""
    calls = []

    def counting(scheme, element, degree, weight):
        calls.append(weight)
        return real(scheme, element, degree, weight)

    real = jacobian._d_system
    monkeypatch.setattr(jacobian, "_d_system", counting)
    R = PolyRing(F, ["x", "y", "z"], [1, 1, 1])
    W = R.parse("x^3 + y^3 + z^3")
    assert nondegeneracy_check(W, 10) == (NONDEGENERATE, (4, 4))
    assert calls == [1, 2, 3, 4]
    calls.clear()
    assert nondegeneracy_check(W, 3) == (INCONCLUSIVE, None)
    assert calls == [1, 2, 3]
    calls.clear()
    R = PolyRing(F, ["x", "y"], [1, 3])  # band 3
    assert nondegeneracy_check(R.parse("x^3*y + y^2"), 10) == (NONDEGENERATE, (5, 7))
    assert calls == [1, 2, 3, 4, 5, 6, 7]
    calls.clear()
    # the empty weight-1 piece is full and x (weight 2) is not: the run restarts
    R = PolyRing(F, ["x", "y"], [2, 3])
    assert nondegeneracy_check(R.parse("x^3 + y^2"), 10) == (NONDEGENERATE, (3, 5))
    assert calls == [1, 2, 3, 4, 5]
