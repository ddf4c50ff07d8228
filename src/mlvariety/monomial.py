"""Exact monomials 2**two * p**p_exp * c**c_exp for the extraction ledger.

The ledger constants c', the fiber floor, c'' and epsilon are powers of the
level density c whose exponents grow with the budget-line constant K (4,960
at arity 3, about 1.84 million at arity 4), so written out as rationals they
run to millions of digits.  A Monomial keeps the integer exponents and
decides every comparison exactly without forming those powers:

* a ratio of two monomials, or of a monomial and a positive rational, is a
  product of integer powers; it is rewritten over pairwise coprime odd bases
  and a power of two, where it equals 1 exactly when every exponent is zero;
* otherwise it is not 1, and for j = 2**i, i = 0, 1, 2, 4, 8, ..., log2 of
  each odd base b is bracketed strictly between (L - 1)/j and L/j, L the
  bit length of b**j, until the brackets fix the sign.  b**j is exact while
  it is short and is kept to its leading bits, rounded down and up, once it
  is long, so the cost grows with log j, not with j or with the exponents.

No float enters a decision.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction

from .errors import PreconditionError


def _split_powers(powers) -> tuple[int, dict[int, int]]:
    """Rewrite prod b**x over integers b >= 1 as 2**two * prod d**y with the
    d odd, pairwise coprime and above 1, and every y nonzero."""
    two, basis, pending = 0, {}, []
    for b, x in powers:
        if x == 0 or b == 1:
            continue
        t = (b & -b).bit_length() - 1
        two += t * x
        b >>= t
        if b != 1:
            pending.append((b, x))
    while pending:
        b, x = pending.pop()
        for d in basis:
            g = math.gcd(b, d)
            if g > 1:
                y = basis.pop(d)
                pending += [(f, z) for f, z in ((d // g, y), (g, x + y), (b // g, x))
                            if f != 1 and z != 0]
                break
        else:
            basis[b] = x
    return two, basis


def _log2_bracket(b: int, i: int) -> tuple[int, int]:
    """Integers lo < 2**i * log2(b) < hi for an odd b > 1, with hi - lo <= 2.

    They are bit lengths of a lower and an upper bound on b**(2**i), got by
    squaring i times and keeping the leading 2i + 64 bits of each bound,
    rounded down and up; a power of an odd b > 1 is never a power of two, so
    both inequalities are strict.  Exact powers while they fit the width.
    """
    width = 2 * i + 64
    low = high = b
    shift = 0
    for _ in range(i):
        low, high, shift = low * low, high * high, 2 * shift
        cut = max(high.bit_length() - width, 0)
        low, high, shift = low >> cut, -(-high >> cut), shift + cut
    return low.bit_length() - 1 + shift, high.bit_length() + shift


def _log_sign(powers) -> int:
    """Sign of log(prod b**x) for (b, x) pairs with integers b >= 1.

    log2 b lies in [L - 1, L), L the bit length of b, so the sum lies in
    [lo, hi] for the brackets below, which settle most signs before any
    base is split.
    """
    lo = hi = 0
    for b, x in powers:
        if x and b > 1:
            length = b.bit_length()
            lo += x * (length - 1 if x > 0 else length)
            hi += x * (length if x > 0 else length - 1)
    if lo > 0:
        return 1
    if hi < 0:
        return -1
    two, basis = _split_powers(powers)
    if not basis:
        return (two > 0) - (two < 0)
    # Pairwise coprime odd bases above 1 are multiplicatively independent, so
    # the product is not 1 and the brackets, of width O(2**-i), settle its log.
    i = 0
    while True:
        lo = hi = two << i
        for b, x in basis.items():
            below, above = _log2_bracket(b, i)
            lo += x * (below if x > 0 else above)
            hi += x * (above if x > 0 else below)
        if lo >= 0:
            return 1
        if hi <= 0:
            return -1
        i = 2 * i or 1


def _least(holds) -> int:
    """Least integer t >= 0 with holds(t), for a predicate false below some
    t and true from there on, by doubling and then bisection."""
    if holds(0):
        return 0
    lo, hi = 0, 1
    while not holds(hi):
        lo, hi = hi, 2 * hi
    while hi - lo > 1:
        mid = (lo + hi) // 2
        lo, hi = (lo, mid) if holds(mid) else (mid, hi)
    return hi


@dataclass(frozen=True)
class Monomial:
    """The positive number 2**two * p**p_exp * c**c_exp, c the level density.

    Monomials multiply with monomials of the same level (same p and c),
    scale by powers of 2, p and c (times), take integer powers, and compare
    exactly with rationals and same-level monomials.  Equality (==) is
    structural, as for the other records; value comparisons use <, <=, >
    and >=.
    """

    p: int
    c: Fraction
    two: int = 0
    p_exp: int = 0
    c_exp: int = 0

    def times(self, two: int = 0, p_exp: int = 0, c_exp: int = 0) -> "Monomial":
        """self * 2**two * p**p_exp * c**c_exp."""
        return Monomial(self.p, self.c, self.two + two, self.p_exp + p_exp, self.c_exp + c_exp)

    def __mul__(self, other: "Monomial") -> "Monomial":
        if (other.p, other.c) != (self.p, self.c):
            raise PreconditionError("monomials of different ledger levels do not combine")
        return self.times(other.two, other.p_exp, other.c_exp)

    def __pow__(self, n: int) -> "Monomial":
        return Monomial(self.p, self.c, self.two * n, self.p_exp * n, self.c_exp * n)

    def _cmp(self, other) -> int:
        """Sign of self - other, other a same-level monomial or a rational."""
        if isinstance(other, Monomial):
            m, r = self * other**-1, 1
        elif other <= 0:
            return 1
        else:
            m, r = self, other
        return _log_sign([
            (2, m.two), (m.p, m.p_exp), (m.c.numerator, m.c_exp),
            (m.c.denominator, -m.c_exp), (r.numerator, -1), (r.denominator, 1),
        ])

    def __lt__(self, other):
        return self._cmp(other) < 0

    def __le__(self, other):
        return self._cmp(other) <= 0

    def __gt__(self, other):
        return self._cmp(other) > 0

    def __ge__(self, other):
        return self._cmp(other) >= 0

    def ceil_log_inverse(self) -> int:
        """Least t >= 0 with p**t >= 1/self, that is self * p**t >= 1."""
        return _least(lambda t: self.times(p_exp=t) >= 1)

    def __str__(self) -> str:
        return f"2^{self.two} * {self.p}^{self.p_exp} * ({self.c})^{self.c_exp}"
