import random

import pytest
from hypothesis import given, settings, strategies as st

from dgmf import CyclotomicField, GroupElement, Poly, PolyRing, act, is_invariant

F5 = CyclotomicField(5)
R5 = PolyRing(F5, ["x"], [1])


def test_diagonal_action_example():
    g = GroupElement.diagonal(R5, [F5.zeta])
    assert g.act(R5.gen("x")) == F5.zeta * R5.gen("x")
    assert g.order == 5


def test_swap_action_example():
    F = CyclotomicField(1)
    R = PolyRing(F, ["x", "y"], [1, 1])
    swap = GroupElement(R, [[F.zero, F.one], [F.one, F.zero]])
    assert swap.act(R.parse("x^2*y")) == R.parse("y^2*x")
    assert swap.order == 2


def test_r_charge_commutation_enforced():
    F = CyclotomicField(2)
    R = PolyRing(F, ["x", "y"], [1, 2])
    # off-diagonal entry between variables of different weight
    with pytest.raises(ValueError):
        GroupElement(R, [[F.zero, F.one], [F.one, F.zero]])
    # same-weight mixing is fine
    R2 = PolyRing(F, ["x", "y"], [1, 1])
    GroupElement(R2, [[F.zero, F.one], [F.one, F.zero]])


def _elements(R, rng):
    # random invertible matrices of finite order: permutation * diagonal roots
    n = R.nvars
    perm = list(range(n))
    rng.shuffle(perm)
    # permutations must preserve weights; equal weights here
    m = [[R.field.zero] * n for _ in range(n)]
    for i, j in enumerate(perm):
        m[j][i] = R.field.zeta_power(rng.randrange(R.field.order))
    return GroupElement(R, m)


def test_action_is_a_homomorphism():
    F = CyclotomicField(4)
    R = PolyRing(F, ["x", "y", "w"], [1, 1, 1])
    rng = random.Random(17)
    for _ in range(25):
        g = _elements(R, rng)
        h = _elements(R, rng)
        p = Poly(R, {(rng.randint(0, 2), rng.randint(0, 2), rng.randint(0, 2)):
                     F.scalar(rng.randint(-3, 3))})
        assert (g * h).act(p) == g.act(h.act(p))
        assert g.act(g.inverse().act(p)) == p


def test_invariance():
    g = GroupElement.diagonal(R5, [F5.zeta])
    assert is_invariant(R5.parse("x^5"), [g])
    assert not is_invariant(R5.parse("x^3"), [g])


def test_commutator_witness():
    F = CyclotomicField(4)
    R = PolyRing(F, ["x", "y"], [1, 1])
    swap = GroupElement(R, [[F.zero, F.one], [F.one, F.zero]])
    d = GroupElement.diagonal(R, [F.zeta, F.one])
    assert not swap.commutes_with(d)
    assert swap.commutator_witness(d) is not None
    assert d.commutator_witness(GroupElement.diagonal(R, [F.one, F.zeta])) is None


def test_fixed_subspace():
    F = CyclotomicField(4)
    R = PolyRing(F, ["x", "y"], [1, 1])
    g = GroupElement.diagonal(R, [F.one, F.zeta])
    fixed = g.fixed_subspace()
    assert len(fixed) == 1
    assert fixed[0][0] == F.one and not fixed[0][1]


def test_diagonal_rejects_a_wrong_number_of_entries():
    # one entry used to raise "no multiplicative order", three an IndexError
    F = CyclotomicField(4)
    R = PolyRing(F, ["x", "y"], [1, 1])
    for entries in ([F.zeta], [F.zeta, F.one, F.one]):
        with pytest.raises(ValueError, match=f"needs 2 entries .* got {len(entries)}"):
            GroupElement.diagonal(R, entries)
    assert GroupElement.diagonal(R, [F.zeta, F.one]).order == 4
