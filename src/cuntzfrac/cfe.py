"""Continued fraction expansion of quadratic surds, and the inverse construction.

The expansion loop runs on an integer state (P, Q, D) representing
(P + sqrt(D))/Q with Q dividing D - P*P, so every quotient is produced by one
floor-division; a single integer square root per expansion drives the loop.
The next Q comes from the recurrence Q' = Q_prev + a*(P - P'), so no step
squares P or divides D - P'*P' by Q, which keeps each step linear in the bit
size of the state.
"""

from __future__ import annotations

import math
import re
from dataclasses import dataclass

from . import words
from .surds import (
    ParseError,
    QuadraticSurd,
    UnimodularMatrix,
    _require_omega,
    in_omega,
    mobius_apply,
    normalize,
    unlimited_digits,
)

Word = words.Word


def _check_quotients(w: Word) -> None:
    for n in w:
        if not isinstance(n, int) or n < 1:
            raise ValueError("partial quotients must be integers >= 1")


@dataclass(frozen=True)
class PeriodicCFE:
    """Eventually periodic partial-quotient sequence in canonical form.

    The period is primitive and the initial block cannot be shortened by
    rotating the period into it; together these make the representation of an
    eventually periodic sequence unique, so structural equality is equality
    of infinite sequences.  Build non-canonical data through
    :func:`minimal_period_normalize`.
    """

    initial: Word
    period: Word

    def __post_init__(self) -> None:
        if not self.period:
            raise ValueError("period must be nonempty")
        _check_quotients(self.initial + self.period)
        if not words.is_primitive(self.period):
            raise ValueError(f"period {self.period} is not primitive")
        if self.initial and self.initial[-1] == self.period[-1]:
            raise ValueError("initial block ends inside the period; not canonical")

    @classmethod
    def _trusted(cls, initial: Word, period: Word) -> "PeriodicCFE":
        # for blocks already canonical by construction: skips __post_init__
        e = object.__new__(cls)
        object.__setattr__(e, "initial", initial)
        object.__setattr__(e, "period", period)
        return e

    def __str__(self) -> str:
        return format_block(self)


@dataclass(frozen=True)
class PQState:
    """Integer expansion state for (P + sqrt(D))/Q with Q | D - P*P."""

    P: int
    Q: int
    D: int

    def __post_init__(self) -> None:
        if self.Q == 0:
            raise ValueError("Q must be nonzero")
        r = math.isqrt(self.D) if self.D > 0 else 0
        if self.D <= 0 or r * r == self.D:
            raise ValueError("D must be positive and not a perfect square")
        if (self.D - self.P * self.P) % self.Q:
            raise ValueError("Q must divide D - P*P")


def to_pq_form(x: QuadraticSurd) -> PQState:
    """Rewrite x as (P + sqrt(D))/Q with Q | D - P*P, scaling when needed.

    D is b*b*d from the stored coefficients, so no factoring happens; when d
    kept square factors the state is a common multiple of the one the
    canonical form gives, with the same complete quotients.
    """
    if x._b > 0:
        p, q = x._a, x._c
    else:
        p, q = -x._a, -x._c
    d = x._b * x._b * x._d
    if (d - p * p) % q:
        p, d, q = p * abs(q), d * q * q, q * abs(q)
    return PQState(p, q, d)


def _floor_pq(p: int, q: int, sd: int) -> int:
    # floor((p + sqrt(D))/q) given sd = isqrt(D)
    if q > 0:
        return (p + sd) // q
    return (-p - sd - 1) // -q


def _reciprocal_state(x: QuadraticSurd) -> tuple[int, int, int, int]:
    # (P, Q, Q_prev, D) of 1/x, the stream all partial quotients of x are read
    # from; Q_prev * Q = D - P*P, and x itself has Q_prev as its Q
    st = to_pq_form(x)
    return -st.P, (st.D - st.P * st.P) // st.Q, st.Q, st.D


def cfe_expand(x: QuadraticSurd, n: int) -> Word:
    """First n partial quotients of x in (0, 1)."""
    if n < 1:
        raise ValueError("need n >= 1")
    _require_omega(x)
    p, q, q_prev, d = _reciprocal_state(x)
    sd = math.isqrt(d)
    out = []
    for _ in range(n):
        a = _floor_pq(p, q, sd)
        out.append(a)
        p_next = a * q - p
        q, q_prev = q_prev + a * (p - p_next), q
        p = p_next
    return tuple(out)


def cfe_periodic(x: QuadraticSurd) -> PeriodicCFE:
    """Canonical eventually periodic expansion of a quadratic irrational.

    By Galois' theorem the expansion of a complete quotient (P + sqrt(D))/Q is
    purely periodic exactly when the quotient is reduced, which in integers
    reads 0 < P <= isqrt(D) and isqrt(D) - P < Q <= isqrt(D) + P.  The index
    of the first reduced state is therefore the exact pre-period, every later
    state is reduced too, and the number of steps until that state comes back
    is the primitive period.  The block is canonical as it stands, and beside
    the quotients themselves the loop keeps O(1) state.
    """
    _require_omega(x)
    p, q, q_prev, d = _reciprocal_state(x)
    sd = math.isqrt(d)
    quotients: list[int] = []
    while not (0 < p <= sd and sd - p < q <= sd + p):
        a = _floor_pq(p, q, sd)
        quotients.append(a)
        p_next = a * q - p
        q, q_prev = q_prev + a * (p - p_next), q
        p = p_next
    start = len(quotients)
    p0, q0 = p, q
    while True:
        a = (p + sd) // q  # q > 0 in every reduced state
        quotients.append(a)
        p_next = a * q - p
        q, q_prev = q_prev + a * (p - p_next), q
        p = p_next
        if p == p0 and q == q0:
            break
    return PeriodicCFE._trusted(tuple(quotients[:start]), tuple(quotients[start:]))


def minimal_period_normalize(initial: Word, period: Word) -> PeriodicCFE:
    """Canonical form of initial + period^infinity.

    The period is replaced by its primitive root, then trailing symbols of the
    initial block are folded into the period by rotating it; the represented
    infinite sequence never changes.
    """
    if not period:
        raise ValueError("period must be nonempty")
    _check_quotients(initial)
    _check_quotients(period)
    period = tuple(period[: words.primitive_root_length(period)])
    head = list(initial)
    while head and head[-1] == period[-1]:
        head.pop()
        period = period[-1:] + period[:-1]
    return PeriodicCFE._trusted(tuple(head), period)


def sigma_shift(e: PeriodicCFE) -> PeriodicCFE:
    """Drop the first symbol of the represented sequence."""
    if e.initial:
        return minimal_period_normalize(e.initial[1:], e.period)
    return minimal_period_normalize((), e.period[1:] + e.period[:1])


def block_prefix(e: PeriodicCFE, n: int) -> Word:
    """First n symbols of the represented infinite sequence."""
    if n <= len(e.initial):
        return e.initial[:n]
    need = n - len(e.initial)
    reps = -(-need // len(e.period))
    return e.initial + (e.period * reps)[:need]


def cfe_step_matrix(a: int) -> UnimodularMatrix:
    """Matrix of y -> 1/(a + y), the inverse of one expansion step."""
    return UnimodularMatrix(0, 1, 1, a)


# blocks at most this long are folded one matrix at a time
_FOLD_LEAF = 32


def _fold(w: Word, lo: int, hi: int) -> tuple[int, int, int, int]:
    # entries (p, q, r, s) of the product of cfe_step_matrix(a) over w[lo:hi];
    # halving keeps the operands of each big multiplication balanced
    if hi - lo <= _FOLD_LEAF:
        p, q, r, s = 1, 0, 0, 1
        for i in range(lo, hi):
            a = w[i]
            p, q, r, s = q, p + q * a, s, r + s * a
        return p, q, r, s
    mid = (lo + hi) // 2
    p1, q1, r1, s1 = _fold(w, lo, mid)
    p2, q2, r2, s2 = _fold(w, mid, hi)
    return p1 * p2 + q1 * r2, p1 * q2 + q1 * s2, r1 * p2 + s1 * r2, r1 * q2 + s1 * s2


def surd_from_cfe(e: PeriodicCFE) -> QuadraticSurd:
    """The unique x in (0, 1) whose expansion is the given block.

    The period's step matrices compose to [[p, q], [r, s]]; the purely
    periodic tail is the root of r*y^2 + (s-p)*y - q inside (0, 1), and the
    initial block is then applied as a single composed matrix.  Both products
    are built as product trees (binary splitting): halves are folded
    recursively and multiplied once, so the cost follows fast multiplication
    of the final entries instead of growing quadratically in their bit size.
    The quadratic is divided by its content first: that leaves the primitive
    minimal polynomial, whose discriminant stays at the scale of the field
    instead of inheriting the exponential growth of the matrix entries.
    """
    p, q, r, s = _fold(e.period, 0, len(e.period))
    g = math.gcd(r, s - p, q)
    rr, bb, qq = r // g, (s - p) // g, q // g
    disc = bb * bb + 4 * rr * qq
    y = normalize(-bb, 1, 2 * rr, disc)
    if not in_omega(y):
        y = normalize(-bb, -1, 2 * rr, disc)
    if e.initial:
        y = mobius_apply(UnimodularMatrix(*_fold(e.initial, 0, len(e.initial))), y)
    return y


# ---------------------------------------------------------------------------
# text and JSON forms

_PURE_RE = re.compile(r"^\((\d+(?:,\d+)*)\)$")
_MIXED_RE = re.compile(r"^(\d+(?:,\d+)*),\((\d+(?:,\d+)*)\)$")


@unlimited_digits
def format_block(e: PeriodicCFE) -> str:
    period = "(" + ",".join(map(str, e.period)) + ")"
    if not e.initial:
        return period
    return ",".join(map(str, e.initial)) + "," + period


@unlimited_digits
def parse_block(text: str) -> PeriodicCFE:
    """Parse `2,1,(3,1,4)` or `(1,2,3)`; the result is canonicalized."""
    t = re.sub(r"\s+", "", text)
    m = _PURE_RE.match(t)
    if m:
        initial: Word = ()
        period = tuple(int(n) for n in m.group(1).split(","))
    else:
        m = _MIXED_RE.match(t)
        if not m:
            raise ParseError(f"not a block literal: {text!r}")
        initial = tuple(int(n) for n in m.group(1).split(","))
        period = tuple(int(n) for n in m.group(2).split(","))
    if any(n < 1 for n in initial + period):
        raise ParseError(f"partial quotients must be >= 1: {text!r}")
    return minimal_period_normalize(initial, period)


def block_to_json(e: PeriodicCFE) -> dict[str, list[int]]:
    return {"initial": list(e.initial), "period": list(e.period)}


@unlimited_digits
def block_from_json(obj: dict) -> PeriodicCFE:
    try:
        initial = tuple(int(n) for n in obj["initial"])
        period = tuple(int(n) for n in obj["period"])
    except (KeyError, TypeError, ValueError) as exc:
        raise ParseError(f"not a block object: {obj!r}") from exc
    if any(n < 1 for n in initial + period):
        raise ParseError(f"partial quotients must be >= 1: {obj!r}")
    return minimal_period_normalize(initial, period)
