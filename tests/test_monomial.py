import math
import random
from fractions import Fraction

import pytest

from mlvariety.errors import PreconditionError
from mlvariety.forms import ceil_log
from mlvariety.monomial import Monomial, _log_sign

from helpers import monomial_value


def _sign(x) -> int:
    return (x > 0) - (x < 0)


def _random_level(rng, p):
    """A density c in (0, 1], often sharing factors with 2 and p."""
    den = rng.choice([1, 2, 4, p, p * p, 2 * p, 5, 6, 7, 9, 12, 25, 64])
    return Fraction(1 + rng.randrange(den), den)


def _random_monomial(rng, p, c):
    coef = rng.choice([Fraction(1), Fraction(1, 2), Fraction(1, 8), Fraction(3, 4),
                       Fraction(1 + rng.randrange(20), 1 + rng.randrange(20))])
    return Monomial(coef, p, c, rng.randrange(-12, 13), rng.randrange(-12, 13))


def _random_rational(rng, p, value):
    choices = [
        value,                                   # an exact tie
        value * Fraction(1 + rng.randrange(5), 1 + rng.randrange(5)),
        Fraction(rng.randrange(0, 50), 1 + rng.randrange(50)),
        Fraction(p) ** rng.randrange(-6, 7),
        Fraction(math.floor(value)) if value >= 1 else Fraction(1),
    ]
    return rng.choice(choices)


@pytest.mark.parametrize("p", [2, 3])
def test_comparisons_match_exact_fractions(p):
    rng = random.Random(100 + p)
    for _ in range(600):
        c = _random_level(rng, p)
        m = _random_monomial(rng, p, c)
        value = monomial_value(m)
        r = _random_rational(rng, p, value)
        want = _sign(value - r)
        assert (m < r, m <= r, m > r, m >= r) == (want < 0, want <= 0, want > 0, want >= 0)
        # a second monomial of the same level, a tie half the time
        other = m if rng.randrange(2) else _random_monomial(rng, p, c)
        want = _sign(value - monomial_value(other))
        assert (m < other, m >= other) == (want < 0, want >= 0)
        assert monomial_value(m * other) == value * monomial_value(other)
        assert monomial_value(m * r) == value * r


@pytest.mark.parametrize("p", [2, 3])
def test_floor_ceil_and_least_t_match_exact_fractions(p):
    rng = random.Random(200 + p)
    for _ in range(400):
        c = _random_level(rng, p)
        m = _random_monomial(rng, p, c)
        n = rng.choice([1, p, p**3, 1 + rng.randrange(1000)])
        scaled = m * n
        value = monomial_value(scaled)
        assert math.floor(scaled) == math.floor(value)
        # a monomial is below the ceiling of its value exactly when the value is
        assert (scaled < math.ceil(value)) == (value < math.ceil(value))
        power = rng.randrange(1, 4)
        assert monomial_value(m**power) == monomial_value(m) ** power
        assert m.ceil_log_inverse() == ceil_log(p, 1 / monomial_value(m))


def test_near_ties_at_long_products_match_exact_fractions():
    # c**e with e in the hundreds, against the rationals a millionth apart
    # that enclose it: the brackets must get past several hundred bits
    rng = random.Random(7)
    for _ in range(40):
        p = rng.choice([2, 3])
        c = Fraction(1 + rng.randrange(6000), 6561)
        e = rng.randrange(200, 400)
        # p**a near 1/c**e, so the value lies within a few powers of p of 1
        a = round(e * math.log(1 / c, p)) + rng.randrange(-5, 20)
        m = Monomial(Fraction(1, 2 ** rng.randrange(9)), p, c, a, e)
        value = monomial_value(m)
        below = Fraction(math.floor(value * 10**6), 10**6)
        for r in (value, below, below + Fraction(1, 10**6)):
            want = _sign(value - r)
            assert (m < r, m > r) == (want < 0, want > 0)
        n = rng.randrange(1, 10**6)
        assert math.floor(m * n) == math.floor(value * n)
        assert (m * n < math.ceil(value * n)) == (value * n < math.ceil(value * n))
        assert m.ceil_log_inverse() == ceil_log(p, 1 / value)


def test_constructed_ties_are_exact():
    # (4/9)**e * 3**(2e) * 2**(-2e) = 1 and (1/9)**e * 3**(2e) = 1 at any e
    for e in (1, 7, 10**6):
        assert Monomial(Fraction(1, 4**e), 3, Fraction(4, 9), 2 * e, e) <= 1
        assert Monomial(Fraction(1, 4**e), 3, Fraction(4, 9), 2 * e, e) >= 1
        m = Monomial(Fraction(1), 3, Fraction(1, 9), 2 * e, e)
        assert math.floor(m) == 1 and m <= 1
        assert m.ceil_log_inverse() == 0
    # a power of p exactly equal to a point count
    m = Monomial(Fraction(1), 2, Fraction(1), -3)
    assert math.floor(m * 16) == 2 and m * 16 <= 2
    assert m.ceil_log_inverse() == 3
    # the arity-2 slice bound b / other_total against 2 c' / c, tied
    c = Fraction(5, 8)
    c_prime = Monomial(Fraction(1, 8), 2, c, -2, 2)
    bound = c_prime * Monomial(Fraction(2), 2, c, c_exp=-1)
    assert monomial_value(bound) == Fraction(5, 128)
    assert not bound > Fraction(10, 256) and not bound < Fraction(10, 256)
    assert math.floor(bound * 256) == 10


def test_huge_exponents_decide_without_powers():
    # arity-4 sized exponents: c' ~ c**14881 / p**29760, fiber floor ** 8
    c = Fraction(2187, 6561 - 17)
    c_prime = Monomial(Fraction(1, 2**7), 3, c, -29760, 14881)
    floor = c_prime**8
    assert floor.c_exp == 119048
    assert floor * 81 < 1
    assert math.floor(c_prime * 6561) == 0
    assert floor < Monomial(Fraction(1), 3, c, -4)
    assert (floor * Fraction(1, 2)).ceil_log_inverse() > 10**5


def test_monomials_of_different_levels_do_not_combine():
    a = Monomial(Fraction(1), 2, Fraction(1, 2), 1, 1)
    for b in (Monomial(Fraction(1), 3, Fraction(1, 2)), Monomial(Fraction(1), 2, Fraction(1, 4))):
        with pytest.raises(PreconditionError):
            a < b
        with pytest.raises(PreconditionError):
            a * b


def test_log_sign_matches_the_exact_product():
    """The bit-length brackets that settle most signs before any base is
    split agree with the exact product, powers of two and ties included."""
    rng = random.Random(11)
    for _ in range(3000):
        powers = [(rng.choice([1, 2, 3, 4, 6, 8, 9, 10, 27, 32, 1 + rng.randrange(200)]),
                   rng.randrange(-7, 8)) for _ in range(rng.randrange(1, 6))]
        if rng.random() < 0.2:
            b, x = powers[0]
            powers.append((b, -x))
        product = math.prod(Fraction(b) ** x for b, x in powers)
        assert _log_sign(powers) == _sign(product - 1), powers
