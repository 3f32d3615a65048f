"""Exact arithmetic on quadratic irrationals (a + b*sqrt(d))/c with integer fields.

A value keeps the coefficients that gcds alone reduce (c > 0,
gcd(a, b, c) = 1); its radicand may still carry square factors.  Equality and
hashing go through the primitive integral minimal polynomial and the sign of
the square root's coefficient, so they coincide with equality of real numbers
without any factoring.  The canonical form with squarefree d, which the text
and JSON forms print, is computed on first use and kept on the value, and so
is its continued fraction expansion: a surd solved from a block carries that
block from the start.
Everything is big-integer exact; the only square roots ever taken are integer
square roots used to bracket floors.  All values are immutable and all
operations pure.
"""

from __future__ import annotations

import functools
import itertools
import math
import random
import re
from dataclasses import FrozenInstanceError, dataclass
from functools import lru_cache

from .words import _digits, _number, _shown


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
#
# The split needs the square part of n, not its primes, and reads it off gcds
# (Bernstein, "How to find smooth parts of integers", 2004).  A gcd with the
# product of the primes below 1,000 comes first; a cofactor m below 10**18
# then takes a gcd with the product of the primes from 1,000 up to the cube
# root of m.  What is left has at most two prime factors and one integer
# square root tells them apart.  Only cofactors of 10**18 and above go to
# Miller-Rabin and Pollard-Brent.

def _sieve(limit: int) -> list[int]:
    flags = bytearray([1]) * limit
    flags[0:2] = b"\x00\x00"
    for i in range(2, math.isqrt(limit) + 1):
        if flags[i]:
            flags[i * i :: i] = bytes(len(range(i * i, limit, i)))
    return [i for i in range(limit) if flags[i]]


_SMALL_BOUND = 1000
_SMALL_PRIMES = _sieve(_SMALL_BOUND)
_SMALL_PRODUCT = math.prod(_SMALL_PRIMES)
# the primes below _SMALL_BOUND sieve exactly as far as _WINDOWS_END, and a
# cofactor below _CERTIFIED_BELOW has its cube root below _WINDOWS_END
_WINDOWS_END = _SMALL_BOUND ** 2
_CERTIFIED_BELOW = _WINDOWS_END ** 3
# near 4,096 every window's product stays below about 7 kbit; wider windows
# make the first products large enough to slow splits of 10-12 digits
_WINDOW = 4096


@functools.cache
def _segment_product(k: int) -> int:
    """Product of the primes in the k-th _WINDOW-wide window of [_SMALL_BOUND, _WINDOWS_END)."""
    lo = _SMALL_BOUND + k * _WINDOW
    hi = min(lo + _WINDOW, _WINDOWS_END)
    flags = bytearray([1]) * (hi - lo)
    for p in _SMALL_PRIMES:  # lo > p, so no multiple crossed off is p itself
        start = -(-lo // p) * p
        flags[start - lo :: p] = bytes(len(range(start, hi, p)))
    return math.prod(itertools.compress(range(lo, hi), flags))


_MR_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41)


def _is_probable_prime(n: int) -> bool:
    # deterministic below 3.3e24 with these 13 bases; without 41 the bound is
    # 3.18e23, and 318665857834031151167461 = 399165290221 * 798330580441 passes
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
                    q = q * (x - y) % n
                g = math.gcd(q, n)
                k += m
            r <<= 1
        if g == n:
            g = 1
            while g == 1:
                ys = (ys * ys + c) % n
                g = math.gcd(x - ys, n)
        if g != n:
            return g


def _factor_into(n: int, out: dict[int, int]) -> None:
    if n == 1:
        return
    if _is_probable_prime(n):
        out[n] = out.get(n, 0) + 1
        return
    # divide each prime of the factor found out of n to its full power, so a
    # prime power costs one Pollard-Brent run, not one per exponent level
    primes: dict[int, int] = {}
    _factor_into(_pollard_brent(n), primes)
    for p in primes:
        e = 0
        while n % p == 0:
            n //= p
            e += 1
        out[p] = out.get(p, 0) + e
    _factor_into(n, out)


def _peel(m: int, h: int, s: int, f: int) -> tuple[int, int, int]:
    # h is the product of some primes of m, each once; divides them out of m
    # with their exponents, the square part into s and the odd part into f.
    # Level j >= 1 holds g, the primes of exponent >= 2**j, beside
    # t = g**(2**j); squaring t finds the top level, whose primes all have
    # that bit set in their exponent, and each level below divides out
    # p**(2**j) from the primes of g with bit j set.  So the gcd count is
    # logarithmic in the exponents, not linear
    g = math.gcd(m // h, h)  # level 1: the primes of exponent >= 2
    if g == 1:  # every exponent is 1 (or h is 1), the common case
        return m // h, s, f * h
    levels = [(g, g * g)]
    while True:
        g, t = levels[-1]
        t *= t
        # the primes of g whose power in t still divides m
        deeper = g // math.gcd(g, t // math.gcd(m, t))
        if deeper == 1:
            break
        levels.append((deeper, t if deeper == g else deeper ** (2 << len(levels))))
    for j in range(len(levels), 0, -1):
        g, t = levels[j - 1]
        if j < len(levels):  # at the top level every prime of g has bit j set
            g //= math.gcd(g, t // math.gcd(m, t))
        half = g ** (1 << (j - 1))
        s *= half
        m //= half * half
    g = math.gcd(m, h)  # bit 0: each prime of h is left at most once
    return m // g, s, f * g


@lru_cache(maxsize=4096)
def squarefree_split(n: int) -> tuple[int, int]:
    """Split n >= 1 as s*s*f with f squarefree; returns (s, f).

    A gcd with the product of the primes below 1,000 comes first.  A cofactor
    m below 10**18 is then split by gcds alone: h = gcd(m, product of the
    primes p >= 1,000 with p**3 <= m) holds each prime of m up to its cube
    root once, and gcds of m with h, h**2, h**4, ... read off their
    exponents bit by bit.  The rest has every prime factor above the cube
    root of m, so it is 1, p, p*p or p*q, and one integer square root
    decides which.  No prime is ever found and no primality test runs.
    Cofactors of 10**18 and above go to Miller-Rabin and Pollard-Brent.
    """
    if n < 1:
        raise ValueError("squarefree_split needs n >= 1")
    m, s, f = _peel(n, math.gcd(n, _SMALL_PRODUCT), 1, 1)
    if m < _CERTIFIED_BELOW:
        acc, k = 1, 0
        while (_SMALL_BOUND + k * _WINDOW) ** 3 <= m:
            acc = acc * (_segment_product(k) % m) % m
            k += 1
        m, s, f = _peel(m, math.gcd(m, acc), s, f)
    # a certified cofactor now has at most two prime factors
    r = math.isqrt(m)
    if r * r == m:
        s *= r
    elif m < _CERTIFIED_BELOW or _is_probable_prime(m):
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

class QuadraticSurd:
    """The real number (a + b*sqrt(d))/c.

    Construct through :func:`normalize`, which reduces the coefficients by
    gcds alone.  Equality and hashing compare the primitive minimal
    polynomial and the root it picks, so equal numbers are equal values
    whether or not d has square factors.  The fields ``a, b, c, d`` read the
    canonical form (c > 0, gcd(a, b, c) = 1, d squarefree); the first read
    factors d with :func:`squarefree_split` and the result is kept on the
    value.  Arithmetic inside the package reads the stored coefficients
    ``_a, _b, _c, _d`` and never factors.  ``_expansion`` holds the value's
    :class:`~cuntzfrac.cfe.PeriodicCFE` once one is known; a pickled value
    comes back without it, or its canonical view, and recomputes them.
    """

    __slots__ = ("_a", "_b", "_c", "_d", "_canonical", "_expansion")
    __match_args__ = ("a", "b", "c", "d")

    def __init__(self, a: int, b: int, c: int, d: int) -> None:
        # every slot is set, so the first read of _canonical or _expansion is
        # an `is None` test; the slot setters skip the frozen __setattr__
        _set_a(self, a)
        _set_b(self, b)
        _set_c(self, c)
        _set_d(self, d)
        _set_canonical(self, None)
        _set_expansion(self, None)

    def __setattr__(self, name, value):
        raise FrozenInstanceError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise FrozenInstanceError(f"cannot delete field {name!r}")

    def __reduce__(self):
        return QuadraticSurd, (self._a, self._b, self._c, self._d)

    def _view(self) -> tuple[int, int, int, int]:
        view = self._canonical
        if view is None:
            s, f = squarefree_split(self._d)
            view = (*_lowest_terms(self._a, self._b * s, self._c), f)
            _set_canonical(self, view)
        return view

    a = property(lambda self: self._view()[0])
    b = property(lambda self: self._view()[1])
    c = property(lambda self: self._view()[2])
    d = property(lambda self: self._view()[3])

    def _key(self) -> tuple[int, int, int, bool]:
        # the two roots of one polynomial differ in the sign of sqrt(d)
        return (*_min_poly(self), (self._b > 0) == (self._c > 0))

    def __eq__(self, other):
        if not isinstance(other, QuadraticSurd):
            return NotImplemented
        return self._key() == other._key()

    def __hash__(self) -> int:
        return hash(self._key())

    def __repr__(self) -> str:
        a, b, c, d = self._view()
        return f"QuadraticSurd(a={a!r}, b={b!r}, c={c!r}, d={d!r})"

    def __str__(self) -> str:
        return format_surd(self)


_set_a, _set_b, _set_c, _set_d, _set_canonical, _set_expansion = (
    getattr(QuadraticSurd, name).__set__ for name in QuadraticSurd.__slots__
)


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

def _lowest_terms(a: int, b: int, c: int) -> tuple[int, int, int]:
    # c != 0
    if c < 0:
        a, b, c = -a, -b, -c
    g = math.gcd(a, b, c)
    return a // g, b // g, c // g


def normalize(a: int, b: int, c: int, d: int) -> QuadraticSurd:
    """Surd equal to (a + b*sqrt(d))/c with c > 0 and gcd(a, b, c) = 1.

    Only gcds are taken: d is kept as given, square factors included, and
    factored only if the canonical fields are read.  Raises NotIrrational
    when the value is in fact rational, which an integer square root decides.
    """
    if c == 0:
        raise ZeroDenominator("denominator is zero")
    if d < 0:
        raise ValueError("radicand must be positive")
    if d == 0 or b == 0:
        raise NotIrrational(f"({_digits(a)} + {_digits(b)}*sqrt({_digits(d)}))/{_digits(c)} is rational")
    r = math.isqrt(d)
    if r * r == d:
        raise NotIrrational(f"sqrt({_digits(d)}) = {_digits(r)} is an integer")
    return QuadraticSurd(*_lowest_terms(a, b, c), d)


def _floor_pq(p: int, q: int, sd: int) -> int:
    # floor((p + sqrt(D))/q), q != 0, given sd = isqrt(D) of a non-square D;
    # the one exact floor, read by the order tests and the pre-period steps
    if q > 0:
        return (p + sd) // q
    return (-p - sd - 1) // -q


def _floor_ratio(a: int, b: int, c: int, d: int) -> int:
    # floor((a + b*sqrt(d))/c), c != 0 and b*b*d not a perfect square
    if b < 0:
        a, c = -a, -c
    return _floor_pq(a, c, math.isqrt(b * b * d))


def floor_of(x: QuadraticSurd) -> int:
    """Exact floor via integer square-root bracketing; no floating point."""
    return _floor_ratio(x._a, x._b, x._c, x._d)


def cmp_int(x: QuadraticSurd, k: int) -> int:
    """Sign of x - k, exactly; never 0, as x is irrational."""
    return 1 if floor_of(x) >= k else -1


def in_omega(x: QuadraticSurd) -> bool:
    """True when 0 < x < 1."""
    return floor_of(x) == 0


def _require_omega(x: QuadraticSurd) -> None:
    # the message shows the stored coefficients, so raising it never factors
    if not in_omega(x):
        raise DomainError(f"{_surd_text(x._a, x._b, x._c, x._d)} is not inside (0, 1)")


def shift_by_int(x: QuadraticSurd, k: int) -> QuadraticSurd:
    """x + k; integer shifts preserve c > 0 and gcd(a, b, c) = 1."""
    return QuadraticSurd(x._a + k * x._c, x._b, x._c, x._d)


# ---------------------------------------------------------------------------
# operations

def gauss_tau(x: QuadraticSurd) -> QuadraticSurd:
    """Gauss map 1/x - floor(1/x), exactly; defined on (0, 1)."""
    _require_omega(x)
    a, b, c, d = x._a, x._b, x._c, x._d
    # a*a - b*b*d != 0, as d is not a square and b != 0
    inv = QuadraticSurd(*_lowest_terms(c * a, -c * b, a * a - b * b * d), d)
    return shift_by_int(inv, -floor_of(inv))


def mobius_apply(m: UnimodularMatrix, x: QuadraticSurd) -> QuadraticSurd:
    """Exact image (m11*x + m12)/(m21*x + m22); the radicand class is preserved."""
    a, b, c, d = x._a, x._b, x._c, x._d
    na, nb = m.m11 * a + m.m12 * c, m.m11 * b
    da, db = m.m21 * a + m.m22 * c, m.m21 * b
    denom = da * da - db * db * d
    if denom == 0:
        raise NotIrrational("image denominator vanished")
    return QuadraticSurd(*_lowest_terms(na * da - nb * db * d, nb * da - na * db, denom), d)


def _min_poly(x: QuadraticSurd) -> tuple[int, int, int]:
    # (A, B, C) of the primitive integral A*t^2 + B*t + C with root x, A > 0
    a, b, c = x._a, x._b, x._c
    qa, qb, qc = c * c, -2 * a * c, a * a - b * b * x._d
    g = math.gcd(qa, qb, qc)
    return qa // g, qb // g, qc // g


def poly_discriminant(x: QuadraticSurd) -> int:
    """Discriminant b^2 - 4ac of the primitive integral minimal polynomial of x."""
    qa, qb, qc = _min_poly(x)
    return qb * qb - 4 * qa * qc


def field_discriminant(x: QuadraticSurd) -> int:
    """Fundamental discriminant of the field Q(sqrt(d)): d if d = 1 mod 4, else 4d."""
    d = x.d
    return d if d % 4 == 1 else 4 * d


# ---------------------------------------------------------------------------
# text and JSON forms

_SURD_RE = re.compile(r"^\(([+-]?\d+)([+-]\d+)\*sqrt\((\d+)\)\)/([+-]?\d+)$")


def _surd_text(a: int, b: int, c: int, d: int) -> str:
    return f"({_digits(a)}{'+' * (b >= 0)}{_digits(b)}*sqrt({_digits(d)}))/{_digits(c)}"


def format_surd(x: QuadraticSurd) -> str:
    return _surd_text(*x._view())


def parse_surd(text: str) -> QuadraticSurd:
    """Parse `(<a>+<b>*sqrt(<d>))/<c>`, e.g. `(-1+1*sqrt(5))/2`."""
    m = _SURD_RE.match("".join(text.split()))
    if not m:
        raise ParseError(f"not a surd literal: {text!r}")
    a, b, d, c = map(_number, m.groups())
    return normalize(a, b, c, d)


def surd_to_json(x: QuadraticSurd) -> dict[str, str]:
    a, b, c, d = x._view()
    return {"a": _digits(a), "b": _digits(b), "c": _digits(c), "d": _digits(d)}


def _json_int(v) -> int:
    # int() would truncate a float, read a bool as 0 or 1 and a string's
    # underscores as digit separators, which no text grammar accepts
    if isinstance(v, bool) or not isinstance(v, (int, str)) or isinstance(v, str) and "_" in v:
        raise ParseError(f"not an integer: {v!r}")
    try:
        return int(v)
    except ValueError:
        # past the digit limit: int() reads a signed digit run inside whitespace
        t = v.strip()
        if not (t[1:] if t[:1] in ("+", "-") else t).isdecimal():
            raise
        return _number(t)


def surd_from_json(obj: dict) -> QuadraticSurd:
    try:
        return normalize(*(_json_int(obj[k]) for k in ("a", "b", "c", "d")))
    except (KeyError, TypeError, ValueError) as exc:
        if isinstance(exc, (NotIrrational, ZeroDenominator)):
            raise
        raise ParseError(f"not a surd object: {_shown(obj)}") from exc


def approx_decimal(x: QuadraticSurd, digits: int) -> str:
    """Decimal expansion with `digits` fractional digits, truncated toward -inf.

    Computed by exact integer bracketing of x * 10^digits; never uses floats.
    """
    if digits < 0:
        raise ValueError("digits must be >= 0")
    scale = 10 ** digits
    k = _floor_ratio(x._a * scale, x._b, x._c, x._d * scale * scale)
    if digits == 0:
        return _digits(k)
    sign = "-" if k < 0 else ""
    mag = _digits(abs(k)).zfill(digits + 1)
    return f"{sign}{mag[:-digits]}.{mag[-digits:]}"
