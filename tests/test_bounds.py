from fractions import Fraction
from itertools import combinations_with_replacement

import pytest
from sympy import divisors, isprime
from sympy import factorint as sympy_factorint

from speclab.bounds import (
    GroupDescriptor,
    RamificationType,
    abc_exponent,
    bcl_cyclic_check,
    best_abc_exponent,
    beta_exponent,
    condition_eq1,
    condition_eq2,
    corollary_case_classifier,
    malle_alpha,
    rh_genus,
)


def rt(*indices, group=None):
    return RamificationType(tuple(indices), group)


class TestAlpha:
    def test_pins(self):
        assert malle_alpha(2) == Fraction(1, 1)
        assert malle_alpha(6) == Fraction(1, 3)
        assert malle_alpha(GroupDescriptor(15)) == Fraction(1, 10)
        assert malle_alpha(7) == Fraction(7, 42)

    def test_rejects_trivial(self):
        with pytest.raises(ValueError):
            malle_alpha(1)


class TestExponent:
    def test_hyperelliptic_law(self):
        # |G| = 2, all indices 2: e = 2 / (r - 4)
        for r in (6, 8, 10):
            assert abc_exponent(rt(*([2] * r)), 2) == Fraction(2, r - 4)

    def test_undefined_when_eq1_fails(self):
        with pytest.raises(ValueError):
            abc_exponent(rt(2, 2, 2, 2), 2)

    def test_best_over_subsets(self):
        t = rt(2, 2, 2, 2, 2, 2, 2, 2)
        e, pick = best_abc_exponent(t, [(2, 2, 2, 2, 2, 2)], 2)
        assert e == Fraction(1, 2) and len(pick) == 8
        with pytest.raises(ValueError):
            best_abc_exponent(t, [(3, 2)], 2)

    def test_best_over_subsets_picks_and_skips(self):
        # |G| = 6, indices (2, 3, 3, 3, 3, 3, 3): the full type gives 2/9,
        # six 3s give 1/6, and (3, 3) fails eq1, so it is skipped
        t = rt(2, 3, 3, 3, 3, 3, 3)
        assert abc_exponent(t, 6) == Fraction(2, 9)
        assert not condition_eq1(rt(3, 3))[0]
        assert best_abc_exponent(t, [(3,) * 6, (3, 3)], 6) == (Fraction(1, 6), (3,) * 6)
        assert best_abc_exponent(t, [(3, 3)], 6) == (Fraction(2, 9), t.indices)

    def test_genus_one_link(self):
        # r = 6 double cover: genus 2, e = 1/(g - 1) = 1
        t = rt(2, 2, 2, 2, 2, 2)
        g = rh_genus(2, t)
        assert g == 2
        assert abc_exponent(t, 2) == Fraction(1, g - 1)


class TestConditions:
    def test_eq1_cases(self):
        assert condition_eq1(rt(2, 2, 2, 2, 2)) == (True, 1)
        assert condition_eq1(rt(3, 3, 3, 3)) == (True, 2)
        assert condition_eq1(rt(5, 5, 5)) == (True, 3)
        assert condition_eq1(rt(2, 2, 2, 2)) == (False, None)
        assert condition_eq1(rt(3, 3, 3)) == (False, None)

    def test_eq2_cases(self):
        G2 = GroupDescriptor(2)
        assert condition_eq2(rt(*([2] * 7)), G2) == (True, "a")
        assert condition_eq2(rt(*([3] * 6)), GroupDescriptor(3)) == (True, "b")
        held, tag = condition_eq2(rt(*([5] * 5)), GroupDescriptor(5))
        assert held and tag == "c"
        held, tag = condition_eq2(rt(7, 7, 7, 7), GroupDescriptor(14))
        assert held and tag == "d"
        assert condition_eq2(rt(*([2] * 6)), G2) == (False, None)

    def test_eq2_needs_group(self):
        with pytest.raises(ValueError):
            condition_eq2(rt(2, 2, 2, 2, 2, 2, 2))

    def test_exhaustive_sweep(self):
        # orders <= 24, every multiset of indices with r <= 12 drawn from the
        # divisors > 1: eq2 holds iff e < alpha whenever e is defined, and
        # eq2 always implies eq1
        for order in range(2, 25):
            G = GroupDescriptor(order)
            alpha = malle_alpha(G)
            pool = [d for d in divisors(order) if d > 1]
            for r in range(1, 13):
                for idx in combinations_with_replacement(pool, r):
                    t = RamificationType(idx, G)
                    eq2, _ = condition_eq2(t, G)
                    eq1, _ = condition_eq1(t)
                    if eq2:
                        assert eq1
                    if eq1:
                        assert eq2 == (abc_exponent(t, order) < alpha)


    def test_integer_forms_match_fractions(self):
        # the Fraction forms of eq1, eq2 and e, with q0 from every index's
        # factorisation, as they were computed before the integer forms
        for order in range(2, 25):
            G = GroupDescriptor(order)
            p = min(sympy_factorint(order))
            pool = [d for d in divisors(order) if d > 1]
            for r in range(1, 9):
                for idx in combinations_with_replacement(pool, r):
                    t = RamificationType(idx, G)
                    e0, q0 = min(idx), min(min(sympy_factorint(e)) for e in idx)
                    assert t.q0 == q0
                    eq1 = r > 2 + Fraction(2, q0 - 1)
                    assert condition_eq1(t)[0] == eq1
                    eq2 = r > 2 * (Fraction(q0, q0 - 1) + Fraction((p - 1) * e0, p * (e0 - 1)))
                    assert condition_eq2(t, G)[0] == eq2
                    if eq1:
                        e = 2 * Fraction(1, order) / (1 - Fraction(1, e0)) / (r - 2 - Fraction(2, q0 - 1))
                        assert abc_exponent(t, order) == e


class TestBeta:
    def test_chain(self):
        for order in range(2, 101):
            for q in divisors(order):
                if q > 1 and isprime(q):
                    beta = beta_exponent(q, order)
                    assert malle_alpha(order) >= beta > Fraction(1, order)

    def test_rejects_nondivisor(self):
        with pytest.raises(ValueError):
            beta_exponent(5, 6)
        with pytest.raises(ValueError):
            beta_exponent(4, 8)


class TestGenus:
    def test_pins(self):
        assert rh_genus(2, rt(2, 2)) == 0
        assert rh_genus(2, rt(2, 2, 2, 2)) == 1
        assert rh_genus(2, rt(2, 2, 2, 2, 2, 2, 2, 2)) == 3
        assert rh_genus(6, rt(2, 3, 6)) == 1

    def test_rejects_inconsistent(self):
        with pytest.raises(ValueError):
            rh_genus(2, rt(2))
        with pytest.raises(ValueError):
            rh_genus(4, rt(3, 3, 3))

    def test_large_genus_forces_many_points(self):
        # g >= 2|G| - 1 forces r >= 7 for |G| <= 12, r <= 7 exhaustively
        for order in range(2, 13):
            pool = [d for d in divisors(order) if d > 1]
            for r in range(1, 8):
                for idx in combinations_with_replacement(pool, r):
                    try:
                        g = rh_genus(order, RamificationType(idx))
                    except ValueError:
                        continue
                    if g >= 2 * order - 1:
                        assert r >= 7


class TestCyclic:
    def test_consistent_examples(self):
        assert bcl_cyclic_check(2, rt(2, 2, 2, 2)) == []
        assert bcl_cyclic_check(15, rt(3, 5, 15, 15, 15, 15, 15, 15, 15, 15)) == []

    def test_violations(self):
        # Z/7 with r = 3: conjugate pack needs phi(7) = 6 points
        v = bcl_cyclic_check(7, rt(7, 7, 7))
        assert v and any("6" in s for s in v)
        # Z/2 with odd r
        v = bcl_cyclic_check(2, rt(2, 2, 2))
        assert any("even" in s for s in v)
        # proper subgroup
        v = bcl_cyclic_check(4, rt(2, 2, 2, 2))
        assert any("proper subgroup" in s for s in v)


class TestClassifier:
    def test_tags(self):
        assert corollary_case_classifier(GroupDescriptor(64, rank_lower=6)) == ["abc-a"]
        assert "abc-b" in corollary_case_classifier(
            GroupDescriptor(14, cyclic_quotient_orders=(14,))
        )
        assert "abc-c" in corollary_case_classifier(GroupDescriptor(49, nilpotent=True))
        assert corollary_case_classifier(GroupDescriptor(12)) == []
        assert corollary_case_classifier(GroupDescriptor(24)) == []
        assert corollary_case_classifier(GroupDescriptor(15)) == ["uni-b"]
        assert corollary_case_classifier(GroupDescriptor(40)) == ["uni-a"]

    def test_require_raises_on_missing_data(self):
        with pytest.raises(ValueError):
            corollary_case_classifier(GroupDescriptor(64), require="abc-a")
        with pytest.raises(ValueError):
            corollary_case_classifier(GroupDescriptor(14), require="abc-b")
        with pytest.raises(ValueError):
            corollary_case_classifier(GroupDescriptor(49), require="abc-c")

