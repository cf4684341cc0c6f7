from fractions import Fraction

from fdalg.fields import MR_PROVEN_BOUND, is_prime
from fdalg.polyfactor import rational_linear_factors

# psi_12 = 399165290221 * 798330580441 is a strong pseudoprime to every
# Miller-Rabin base fdalg uses
P1, P2 = 399165290221, 798330580441


def test_psi12_fools_fixed_base_miller_rabin():
    assert P1 * P2 == MR_PROVEN_BOUND
    assert is_prime(MR_PROVEN_BOUND)


def test_pseudoprime_constant_term_is_undecided():
    # (x - P1)(x - P2): trial division cannot split the constant term, and
    # the primality test is not proven there, so no verdict is certain
    roots, cofactor, decided = rational_linear_factors([P1 * P2, -(P1 + P2), 1])
    assert not decided
    assert roots == {}
    assert len(cofactor) == 3


def test_small_constant_term_still_decided():
    roots, cofactor, decided = rational_linear_factors([Fraction(6), Fraction(-5), Fraction(1)])
    assert decided
    assert roots == {Fraction(2): 1, Fraction(3): 1}
    assert cofactor == [Fraction(1)]


def test_rational_roots_are_canonical():
    # x^2 (x - 2)(2x - 1)(x^2 + 1) = 2x^6 - 5x^5 + 4x^4 - 5x^3 + 2x^2
    roots, cofactor, decided = rational_linear_factors([0, 0, 2, -5, 4, -5, 2])
    assert decided
    assert roots == {0: 2, Fraction(1, 2): 1, 2: 1}
    assert [type(r) for r in sorted(roots)] == [int, Fraction, int]
    assert cofactor == [1, 0, 1] and {type(c) for c in cofactor} == {int}
