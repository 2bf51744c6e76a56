"""Exact univariate polynomials and rational functions over Q.

A Polynomial is kept as integer numerators over one positive integer
denominator, in lowest terms, so its arithmetic and its evaluation at an
integer or a Fraction run on Python integers and build a Fraction once, at
the end.  Rational functions are kept normalized (coprime
numerator/denominator, monic denominator).  Equal values have identical
representations and serialize to canonical strings; nothing here uses
floating point.
"""

from __future__ import annotations

import math
from fractions import Fraction

from .errors import ValidationError


def _rational(x):
    """x itself when it is an int or a Fraction, both of which carry
    `numerator` and `denominator`; anything else is refused."""
    if isinstance(x, (int, Fraction)):
        return x
    raise ValidationError(f"exact arithmetic needs int or Fraction, got {type(x).__name__}")


def _from_ints(nums, den):
    """The Polynomial sum_i nums[i] x^i / den for integers nums and a
    positive integer den."""
    p = object.__new__(Polynomial)
    p._set(nums, den)
    return p


class Polynomial:
    """Dense polynomial over Q: sum_i nums[i] x^i / den.

    `nums` holds integers ascending by power with no trailing zero, `den`
    is a positive integer, and gcd(den, *nums) = 1 (den = 1 for the zero
    polynomial).  The form is canonical, so equal polynomials have equal
    fields."""

    __slots__ = ("nums", "den")

    def __init__(self, coeffs=()):
        cs = [_rational(c) for c in coeffs]
        den = math.lcm(*(c.denominator for c in cs))
        self._set([c.numerator * (den // c.denominator) for c in cs], den)

    def _set(self, nums, den):
        """Store nums / den in lowest terms, trailing zeros dropped."""
        end = len(nums)
        while end and not nums[end - 1]:
            end -= 1
        nums = tuple(nums[:end])
        if den != 1:
            g = math.gcd(den, *nums)
            if g != 1:
                den //= g
                nums = tuple(a // g for a in nums)
        self.nums = nums
        self.den = den

    @classmethod
    def x(cls):
        return cls((0, 1))

    @property
    def coeffs(self):
        """The coefficients as Fractions, ascending by power."""
        return tuple(Fraction(a, self.den) for a in self.nums)

    @property
    def degree(self):
        """Degree, with the zero polynomial by convention -1."""
        return len(self.nums) - 1

    def is_zero(self):
        return not self.nums

    def leading(self):
        return Fraction(self.nums[-1], self.den) if self.nums else Fraction(0)

    def order_at_zero(self):
        """Index of the lowest nonzero coefficient; inf for the zero poly."""
        for i, a in enumerate(self.nums):
            if a:
                return i
        return math.inf

    def __eq__(self, other):
        if isinstance(other, (int, Fraction)):
            other = Polynomial((other,))
        if not isinstance(other, Polynomial):
            return NotImplemented
        return self.nums == other.nums and self.den == other.den

    def __hash__(self):
        return hash((self.nums, self.den))

    def __add__(self, other):
        if isinstance(other, (int, Fraction)):
            other = Polynomial((other,))
        if not isinstance(other, Polynomial):
            return NotImplemented
        a, b, den = self.nums, other.nums, self.den
        if other.den != den:
            den = math.lcm(den, other.den)
            sa, sb = den // self.den, den // other.den
            a = [x * sa for x in a]
            b = [x * sb for x in b]
        if len(a) < len(b):
            a, b = b, a
        out = list(a)
        for i, c in enumerate(b):
            out[i] += c
        return _from_ints(out, den)

    __radd__ = __add__

    def __neg__(self):
        return _from_ints([-a for a in self.nums], self.den)

    def __sub__(self, other):
        return self + (-other if isinstance(other, Polynomial) else Polynomial((-_rational(other),)))

    def __rsub__(self, other):
        return (-self) + other

    def __mul__(self, other):
        if isinstance(other, (int, Fraction)):
            return _from_ints([a * other.numerator for a in self.nums],
                              self.den * other.denominator)
        if not isinstance(other, Polynomial):
            return NotImplemented
        if self.is_zero() or other.is_zero():
            return Polynomial()
        b = other.nums
        out = [0] * (len(self.nums) + len(b) - 1)
        for i, a in enumerate(self.nums):
            if a:
                for j, c in enumerate(b, i):
                    out[j] += a * c
        return _from_ints(out, self.den * other.den)

    __rmul__ = __mul__

    def __pow__(self, e):
        if e < 0:
            raise ValidationError("negative polynomial power")
        result = Polynomial((1,))
        base = self
        while e:
            if e & 1:
                result = result * base
            base = base * base
            e >>= 1
        return result

    def __call__(self, x):
        """The value at an int or Fraction x = p/q as one Fraction, from the
        homogeneous Horner sum sum_i nums[i] p^i q^(d-i) over den q^d."""
        x = _rational(x)
        p, q = x.numerator, x.denominator
        acc, qk = 0, 1
        for a in reversed(self.nums):
            acc = acc * p + a * qk
            qk *= q
        # qk = q^(d+1) after the d+1 steps
        return Fraction(acc * q, self.den * qk)

    def derivative(self, order=1):
        p = self
        for _ in range(order):
            p = _from_ints([i * a for i, a in enumerate(p.nums)][1:], p.den)
        return p

    def monic(self):
        if self.is_zero():
            return self
        lc = self.nums[-1]
        return _from_ints([a if lc > 0 else -a for a in self.nums], abs(lc))

    def divmod(self, other):
        if other.is_zero():
            raise ZeroDivisionError("polynomial division by zero")
        rem = list(self.coeffs)
        div = other.coeffs
        dd = len(div) - 1
        if len(rem) - 1 < dd:
            return Polynomial(), self
        quot = [Fraction(0)] * (len(rem) - dd)
        inv_lc = 1 / div[-1]
        for i in range(len(rem) - 1, dd - 1, -1):
            c = rem[i] * inv_lc
            if c != 0:
                quot[i - dd] = c
                for j in range(dd + 1):
                    rem[i - dd + j] -= c * div[j]
        return Polynomial(quot), Polynomial(rem)

    def gcd(self, other):
        a, b = self, other
        while not b.is_zero():
            a, b = b, a.divmod(b)[1]
        return a.monic()

    def to_json(self):
        return [str(c) for c in self.coeffs]

    def __repr__(self):
        if self.is_zero():
            return "Polynomial(0)"
        terms = []
        for i, c in enumerate(self.coeffs):
            if c == 0:
                continue
            if i == 0:
                terms.append(str(c))
            elif i == 1:
                terms.append(f"{c}*x")
            else:
                terms.append(f"{c}*x^{i}")
        return "Polynomial(" + " + ".join(terms) + ")"


class RationalFunction:
    """Quotient of two Polynomials, normalized coprime with monic denominator."""

    __slots__ = ("num", "den")

    def __init__(self, num, den=None):
        if isinstance(num, (int, Fraction)):
            num = Polynomial((num,))
        if den is None:
            den = Polynomial((1,))
        elif isinstance(den, (int, Fraction)):
            den = Polynomial((den,))
        if den.is_zero():
            raise ZeroDivisionError("zero denominator")
        if num.is_zero():
            num, den = Polynomial(), Polynomial((1,))
        else:
            g = num.gcd(den)
            if g.degree > 0:
                num = num.divmod(g)[0]
                den = den.divmod(g)[0]
            lc = den.leading()
            if lc != 1:
                num = num * (1 / lc)
                den = den * (1 / lc)
        self.num = num
        self.den = den

    def is_zero(self):
        return self.num.is_zero()

    def is_constant(self):
        return self.num.degree <= 0 and self.den.degree == 0

    def constant_value(self):
        if not self.is_constant():
            raise ValidationError("rational function is not constant")
        return self.num.leading() if not self.num.is_zero() else Fraction(0)

    def __eq__(self, other):
        if isinstance(other, (int, Fraction)):
            other = RationalFunction(other)
        if not isinstance(other, RationalFunction):
            return NotImplemented
        return self.num == other.num and self.den == other.den

    def __hash__(self):
        return hash((self.num, self.den))

    def __add__(self, other):
        if isinstance(other, (int, Fraction)):
            other = RationalFunction(other)
        if not isinstance(other, RationalFunction):
            return NotImplemented
        return RationalFunction(self.num * other.den + other.num * self.den,
                                self.den * other.den)

    __radd__ = __add__

    def __neg__(self):
        return RationalFunction(-self.num, self.den)

    def __sub__(self, other):
        if isinstance(other, (int, Fraction)):
            other = RationalFunction(other)
        return self + (-other)

    def __rsub__(self, other):
        return (-self) + other

    def __mul__(self, other):
        if isinstance(other, (int, Fraction)):
            other = RationalFunction(other)
        if not isinstance(other, RationalFunction):
            return NotImplemented
        return RationalFunction(self.num * other.num, self.den * other.den)

    __rmul__ = __mul__

    def __truediv__(self, other):
        if isinstance(other, (int, Fraction)):
            other = RationalFunction(other)
        if other.is_zero():
            raise ZeroDivisionError("division by zero rational function")
        return RationalFunction(self.num * other.den, self.den * other.num)

    def __rtruediv__(self, other):
        return RationalFunction(other) / self

    def __call__(self, x):
        d = self.den(x)
        if d == 0:
            raise ZeroDivisionError(f"pole at {x}")
        return self.num(x) / d

    def valuation_at_infinity(self):
        """deg(den) - deg(num); decay exponent at infinity.  inf if zero."""
        if self.num.is_zero():
            return math.inf
        return self.den.degree - self.num.degree

    def order_at_zero(self):
        if self.num.is_zero():
            return math.inf
        return self.num.order_at_zero() - self.den.order_at_zero()

    def to_json(self):
        return {"num": self.num.to_json(), "den": self.den.to_json()}

    def __repr__(self):
        return f"RationalFunction({self.num!r} / {self.den!r})"


def solve_exact(rows, rhs):
    """Solve a square linear system exactly by fraction-free (Bareiss)
    Gaussian elimination.

    Rows are scaled to integers first; pivoting picks the first nonzero
    entry.  Returns the solution as a list of Fractions.
    """
    m = len(rows)
    if any(len(r) != m for r in rows) or len(rhs) != m:
        raise ValidationError("system is not square")
    aug = []
    for row, b in zip(rows, rhs):
        vals = [Fraction(v) for v in row] + [Fraction(b)]
        scale = math.lcm(*(v.denominator for v in vals))
        aug.append([int(v * scale) for v in vals])

    prev = 1
    for col in range(m):
        piv = next((r for r in range(col, m) if aug[r][col] != 0), None)
        if piv is None:
            raise ValidationError("singular linear system")
        if piv != col:
            aug[col], aug[piv] = aug[piv], aug[col]
        pivot = aug[col][col]
        for r in range(col + 1, m):
            factor = aug[r][col]
            for c in range(col, m + 1):
                aug[r][c] = (aug[r][c] * pivot - factor * aug[col][c]) // prev
        prev = pivot

    sol = [Fraction(0)] * m
    for i in range(m - 1, -1, -1):
        acc = Fraction(aug[i][m])
        for j in range(i + 1, m):
            acc -= aug[i][j] * sol[j]
        sol[i] = acc / aug[i][i]
    return sol
