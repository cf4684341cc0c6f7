"""Exact scalar arithmetic: prime fields F_p and the rationals Q.

Scalars are plain Python values: residues 0..p-1 (int) over F_p, and over Q
an int when the value is integral, else a `fractions.Fraction` with
denominator > 1 (``rational``).  Both are canonical forms, so structural
equality of vectors and matrices is semantic equality, and arithmetic on
integral rationals stays machine-int arithmetic.
"""
from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from numbers import Integral

from .errors import BadParameter

_MR_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37)
# psi_12 (Sorenson and Webster, 2015): the least strong pseudoprime to all of
# the bases above, 399165290221 * 798330580441.  Below it ``is_prime`` is
# proven correct; at or above it the answer may be wrong.
MR_PROVEN_BOUND = 318665857834031151167461


def rational(x):
    """The canonical form of an int or Fraction: an int when it is integral."""
    return x.numerator if type(x) is Fraction and x.denominator == 1 else x


def is_prime(n: int) -> bool:
    """Miller-Rabin on fixed bases, deterministic for n < MR_PROVEN_BOUND."""
    if n < 2:
        return False
    for q in (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37):
        if n % q == 0:
            return n == q
    d = n - 1
    r = 0
    while d % 2 == 0:
        d //= 2
        r += 1
    for a in _MR_BASES:
        x = pow(a, d, n)
        if x in (1, n - 1):
            continue
        for _ in range(r - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


@dataclass(frozen=True)
class Field:
    """A ground field: either F_p (p prime, machine word) or Q."""

    kind: str  # "prime" | "rationals"
    p: int = 0

    @staticmethod
    def prime(p: int) -> "Field":
        if p >= 2 ** 63 or not is_prime(p):
            raise BadParameter(f"not a machine-word prime: {p}")
        return Field("prime", p)

    @staticmethod
    def rationals() -> "Field":
        return Field("rationals", 0)

    @staticmethod
    def parse(token: str) -> "Field":
        """Parse a field token: ``Q`` or ``Fp:<p>``."""
        token = token.strip()
        if token in ("Q", "QQ"):
            return Field.rationals()
        if token.startswith("Fp:"):
            try:
                p = int(token[3:])
            except ValueError:
                raise BadParameter(f"bad field token: {token!r}") from None
            return Field.prime(p)
        raise BadParameter(f"bad field token: {token!r}")

    @property
    def characteristic(self) -> int:
        return self.p

    @property
    def is_prime_field(self) -> bool:
        return self.kind == "prime"

    def __str__(self):
        return f"Fp:{self.p}" if self.kind == "prime" else "Q"

    # -- scalar arithmetic ------------------------------------------------

    def zero(self):
        return 0

    def one(self):
        return 1

    def coerce(self, x):
        """Canonicalize an int / Fraction / scalar string into this field."""
        if type(x) is int:
            if self.kind == "prime":
                return x % self.p if (x >= self.p or x < 0) else x
            return x
        if isinstance(x, str):
            return self.parse_scalar(x)
        if self.kind == "prime":
            if isinstance(x, Fraction):
                if x.denominator == 1:
                    return x.numerator % self.p
                return x.numerator % self.p * self.inv(x.denominator % self.p) % self.p
            return int(x) % self.p
        if type(x) is Fraction:
            return rational(x)
        if isinstance(x, Integral):  # bool, numpy integers: a Python int
            return int(x)
        return rational(Fraction(x))

    def add(self, a, b):
        return (a + b) % self.p if self.kind == "prime" else rational(a + b)

    def sub(self, a, b):
        return (a - b) % self.p if self.kind == "prime" else rational(a - b)

    def mul(self, a, b):
        return a * b % self.p if self.kind == "prime" else rational(a * b)

    def neg(self, a):
        return -a % self.p if self.kind == "prime" else -a

    def inv(self, a):
        if a == 0:
            raise ZeroDivisionError("inverse of zero")
        if self.kind == "prime":
            return pow(a, self.p - 2, self.p)
        return rational(Fraction(1, a))

    def div(self, a, b):
        return self.mul(a, self.inv(b))

    def parse_scalar(self, text: str):
        """Parse ``n`` or ``a/b`` into a canonical scalar; BadParameter names a
        token that is neither, or whose denominator is 0 in this field."""
        text = text.strip()
        try:
            if "/" not in text:
                return self.coerce(int(text))
            num, den = text.split("/", 1)
            a, b = int(num), int(den)
        except ValueError:
            raise BadParameter(f"bad scalar: {text!r}") from None
        if b == 0 or self.kind == "prime" and b % self.p == 0:
            raise BadParameter(f"zero denominator in scalar {text!r}")
        if self.kind == "prime":
            return a % self.p * self.inv(b % self.p) % self.p
        return rational(Fraction(a, b))

    def format_scalar(self, x) -> str:
        return str(x)


QQ = Field.rationals()


def GF(p: int) -> Field:
    return Field.prime(p)
