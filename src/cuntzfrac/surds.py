"""Exact arithmetic on quadratic irrationals (a + b*sqrt(d))/c with integer fields.

Values are kept canonical (c > 0, gcd(a, b, c) = 1, d squarefree) so that
structural equality coincides with equality of real numbers.  Everything is
big-integer exact; the only square roots ever taken are integer square roots
used to bracket floors.  All values are immutable and all operations pure.
"""

from __future__ import annotations

import functools
import math
import random
import re
import sys
from dataclasses import dataclass
from functools import lru_cache


class NotIrrational(ValueError):
    """The value is rational and has no surd representation."""


class ZeroDenominator(ZeroDivisionError):
    """Denominator c = 0."""


class DomainError(ValueError):
    """Argument lies outside the open unit interval (0, 1)."""


class ParseError(ValueError):
    """Text does not match the expected grammar."""


# ---------------------------------------------------------------------------
# integer factoring, only ever used to pull square factors out of radicands

def _sieve(limit: int) -> list[int]:
    flags = bytearray([1]) * limit
    flags[0:2] = b"\x00\x00"
    for i in range(2, math.isqrt(limit) + 1):
        if flags[i]:
            flags[i * i :: i] = bytes(len(range(i * i, limit, i)))
    return [i for i in range(limit) if flags[i]]


_SMALL_PRIMES = _sieve(1000)

_MR_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37)


def _is_probable_prime(n: int) -> bool:
    # deterministic for n < 3.3e24 with these bases
    if n < 2:
        return False
    for p in _MR_BASES:
        if n % p == 0:
            return n == p
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


def _pollard_brent(n: int) -> int:
    if n % 2 == 0:
        return 2
    rng = random.Random(0xC0FFEE ^ n)
    while True:
        y = rng.randrange(1, n)
        c = rng.randrange(1, n)
        m = 128
        g = r = q = 1
        x = ys = y
        while g == 1:
            x = y
            for _ in range(r):
                y = (y * y + c) % n
            k = 0
            while k < r and g == 1:
                ys = y
                for _ in range(min(m, r - k)):
                    y = (y * y + c) % n
                    q = q * abs(x - y) % n
                g = math.gcd(q, n)
                k += m
            r <<= 1
        if g == n:
            g = 1
            while g == 1:
                ys = (ys * ys + c) % n
                g = math.gcd(abs(x - ys), n)
        if g != n:
            return g


def _factor_into(n: int, out: dict[int, int]) -> None:
    if n == 1:
        return
    if _is_probable_prime(n):
        out[n] = out.get(n, 0) + 1
        return
    f = _pollard_brent(n)
    _factor_into(f, out)
    _factor_into(n // f, out)


@lru_cache(maxsize=None)
def squarefree_split(n: int) -> tuple[int, int]:
    """Split n >= 1 as s*s*f with f squarefree; returns (s, f)."""
    if n < 1:
        raise ValueError("squarefree_split needs n >= 1")
    s, f, m = 1, 1, n
    for p in _SMALL_PRIMES:
        if p * p > m:
            break
        if m % p == 0:
            e = 0
            while m % p == 0:
                m //= p
                e += 1
            s *= p ** (e // 2)
            if e % 2:
                f *= p
    if m > 1:
        r = math.isqrt(m)
        if r * r == m:
            s *= r
        elif _is_probable_prime(m):
            f *= m
        else:
            exps: dict[int, int] = {}
            _factor_into(m, exps)
            for p, e in exps.items():
                s *= p ** (e // 2)
                if e % 2:
                    f *= p
    return s, f


# ---------------------------------------------------------------------------
# value types

@dataclass(frozen=True)
class QuadraticSurd:
    """The real number (a + b*sqrt(d))/c in canonical form.

    Construct through :func:`normalize`; direct construction skips the
    canonicalization that structural equality relies on.
    """

    a: int
    b: int
    c: int
    d: int

    def __str__(self) -> str:
        return format_surd(self)


@dataclass(frozen=True)
class UnimodularMatrix:
    """2x2 integer matrix with determinant +1 or -1."""

    m11: int
    m12: int
    m21: int
    m22: int

    def __post_init__(self) -> None:
        if self.det not in (1, -1):
            raise ValueError(f"determinant must be +1 or -1, got {self.det}")

    @property
    def det(self) -> int:
        return self.m11 * self.m22 - self.m12 * self.m21

    @classmethod
    def identity(cls) -> "UnimodularMatrix":
        return cls(1, 0, 0, 1)

    def __matmul__(self, other: "UnimodularMatrix") -> "UnimodularMatrix":
        return UnimodularMatrix(
            self.m11 * other.m11 + self.m12 * other.m21,
            self.m11 * other.m12 + self.m12 * other.m22,
            self.m21 * other.m11 + self.m22 * other.m21,
            self.m21 * other.m12 + self.m22 * other.m22,
        )

    def inverse(self) -> "UnimodularMatrix":
        if self.det == 1:
            return UnimodularMatrix(self.m22, -self.m12, -self.m21, self.m11)
        return UnimodularMatrix(-self.m22, self.m12, self.m21, -self.m11)


# ---------------------------------------------------------------------------
# construction and exact comparisons

def _reduced(a: int, b: int, c: int, d: int) -> QuadraticSurd:
    # d already squarefree >= 2 and b != 0
    if c == 0:
        raise ZeroDenominator("denominator is zero")
    if c < 0:
        a, b, c = -a, -b, -c
    g = math.gcd(a, b, c)
    return QuadraticSurd(a // g, b // g, c // g, d)


def normalize(a: int, b: int, c: int, d: int) -> QuadraticSurd:
    """Canonical surd equal to (a + b*sqrt(d))/c.

    Square factors of d migrate into b; the gcd is cancelled and c made
    positive.  Raises NotIrrational when the value is in fact rational.
    """
    if c == 0:
        raise ZeroDenominator("denominator is zero")
    if d < 0:
        raise ValueError("radicand must be positive")
    if d == 0 or b == 0:
        raise NotIrrational(f"({a} + {b}*sqrt({d}))/{c} is rational")
    s, f = squarefree_split(d)
    b *= s
    if f == 1:
        raise NotIrrational(f"sqrt({d}) = {s} is an integer")
    return _reduced(a, b, c, f)


def _sign_linear(a: int, b: int, d: int) -> int:
    # sign of a + b*sqrt(d); b*b*d must not be a perfect square unless b == 0
    if b == 0:
        return (a > 0) - (a < 0)
    if b > 0:
        if a >= 0:
            return 1
        return 1 if b * b * d > a * a else -1
    return -_sign_linear(-a, -b, d)


def sign_of(x: QuadraticSurd) -> int:
    return _sign_linear(x.a, x.b, x.d)


def cmp_int(x: QuadraticSurd, k: int) -> int:
    """Sign of x - k, exactly."""
    return _sign_linear(x.a - k * x.c, x.b, x.d)


def in_omega(x: QuadraticSurd) -> bool:
    """True when 0 < x < 1."""
    return cmp_int(x, 0) > 0 and cmp_int(x, 1) < 0


def shift_by_int(x: QuadraticSurd, k: int) -> QuadraticSurd:
    """x + k; integer shifts preserve canonical form."""
    return QuadraticSurd(x.a + k * x.c, x.b, x.c, x.d)


def _floor_ratio(a: int, b: int, c: int, d: int) -> int:
    # floor((a + b*sqrt(d))/c), c != 0; b*sqrt(d) irrational unless b == 0
    if c < 0:
        a, b, c = -a, -b, -c
    if b == 0:
        return a // c
    s = math.isqrt(b * b * d)
    num = a + s if b > 0 else a - s - 1
    return num // c


def floor_of(x: QuadraticSurd) -> int:
    """Exact floor via integer square-root bracketing; no floating point."""
    return _floor_ratio(x.a, x.b, x.c, x.d)


# ---------------------------------------------------------------------------
# operations

def gauss_tau(x: QuadraticSurd) -> QuadraticSurd:
    """Gauss map 1/x - floor(1/x), exactly; defined on (0, 1)."""
    if not in_omega(x):
        raise DomainError(f"{x} is not inside (0, 1)")
    inv = _reduced(x.c * x.a, -x.c * x.b, x.a * x.a - x.b * x.b * x.d, x.d)
    return shift_by_int(inv, -floor_of(inv))


def mobius_apply(m: UnimodularMatrix, x: QuadraticSurd) -> QuadraticSurd:
    """Exact image (m11*x + m12)/(m21*x + m22); the radicand class is preserved."""
    na, nb = m.m11 * x.a + m.m12 * x.c, m.m11 * x.b
    da, db = m.m21 * x.a + m.m22 * x.c, m.m21 * x.b
    denom = da * da - db * db * x.d
    if denom == 0:
        raise NotIrrational("image denominator vanished")
    return _reduced(na * da - nb * db * x.d, nb * da - na * db, denom, x.d)


def poly_discriminant(x: QuadraticSurd) -> int:
    """Discriminant b^2 - 4ac of the primitive integral minimal polynomial of x."""
    qa = x.c * x.c
    qb = -2 * x.a * x.c
    qc = x.a * x.a - x.b * x.b * x.d
    g = math.gcd(qa, qb, qc)
    return (qb * qb - 4 * qa * qc) // (g * g)


def field_discriminant(x: QuadraticSurd) -> int:
    """Fundamental discriminant of the field Q(sqrt(d)): d if d = 1 mod 4, else 4d."""
    return x.d if x.d % 4 == 1 else 4 * x.d


# ---------------------------------------------------------------------------
# text and JSON forms

def unlimited_digits(fn):
    """Decorator: run fn with CPython's int<->str digit limit lifted.

    Coefficients have arbitrary precision, so their decimal text must too.
    The limit is lifted only while fn runs and restored afterwards, never
    changed process-wide; interpreters without the limit get fn unchanged.
    """
    if not hasattr(sys, "set_int_max_str_digits"):
        return fn

    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        saved = sys.get_int_max_str_digits()
        sys.set_int_max_str_digits(0)
        try:
            return fn(*args, **kwargs)
        finally:
            sys.set_int_max_str_digits(saved)

    return wrapper


_SURD_RE = re.compile(r"^\(([+-]?\d+)([+-]\d+)\*sqrt\((\d+)\)\)/([+-]?\d+)$")


@unlimited_digits
def format_surd(x: QuadraticSurd) -> str:
    return f"({x.a}{x.b:+d}*sqrt({x.d}))/{x.c}"


@unlimited_digits
def parse_surd(text: str) -> QuadraticSurd:
    """Parse `(<a>+<b>*sqrt(<d>))/<c>`, e.g. `(-1+1*sqrt(5))/2`."""
    m = _SURD_RE.match(re.sub(r"\s+", "", text))
    if not m:
        raise ParseError(f"not a surd literal: {text!r}")
    a, b, d, c = (int(g) for g in m.groups())
    return normalize(a, b, c, d)


@unlimited_digits
def surd_to_json(x: QuadraticSurd) -> dict[str, str]:
    return {"a": str(x.a), "b": str(x.b), "c": str(x.c), "d": str(x.d)}


@unlimited_digits
def surd_from_json(obj: dict) -> QuadraticSurd:
    try:
        return normalize(*(int(obj[k]) for k in ("a", "b", "c", "d")))
    except (KeyError, TypeError, ValueError) as exc:
        if isinstance(exc, (NotIrrational, ZeroDenominator)):
            raise
        raise ParseError(f"not a surd object: {obj!r}") from exc


@unlimited_digits
def approx_decimal(x: QuadraticSurd, digits: int) -> str:
    """Decimal expansion with `digits` fractional digits, truncated toward -inf.

    Computed by exact integer bracketing of x * 10^digits; never uses floats.
    """
    if digits < 0:
        raise ValueError("digits must be >= 0")
    scale = 10 ** digits
    k = _floor_ratio(x.a * scale, x.b, x.c, x.d * scale * scale)
    if digits == 0:
        return str(k)
    sign = "-" if k < 0 else ""
    mag = str(abs(k)).zfill(digits + 1)
    return f"{sign}{mag[:-digits]}.{mag[-digits:]}"
