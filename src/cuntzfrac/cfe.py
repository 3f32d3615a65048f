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
from dataclasses import dataclass

from . import words
from .surds import (
    ParseError,
    QuadraticSurd,
    UnimodularMatrix,
    _floor_pq,
    _json_int,
    _require_omega,
    _set_expansion,
    mobius_apply,
    unlimited_digits,
)

Word = words.Word

# cfe_periodic reflects a symmetric cycle only after this many reduced steps,
# so a cycle that comes back sooner pays for no slices; a larger value walks
# more of each mid-length cycle before it reflects
_REFLECT_FROM = 8


def _check_quotients(w: Word, what: str = "partial quotients") -> None:
    for n in w:
        if isinstance(n, bool) or not isinstance(n, int) or n < 1:
            raise ValueError(f"{what} must be integers >= 1")


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
        object.__setattr__(self, "initial", tuple(self.initial))
        object.__setattr__(self, "period", tuple(self.period))
        if not self.period:
            raise ValueError("period must be nonempty")
        _check_quotients(self.initial + self.period)
        if not words.is_primitive(self.period):
            raise ValueError(f"period {self.period} is not primitive")
        if self.initial and self.initial[-1] == self.period[-1]:
            raise ValueError("initial block ends inside the period; not canonical")

    @classmethod
    def _trusted(cls, initial: Word, period: Word) -> "PeriodicCFE":
        # for blocks already canonical by construction: skips __post_init__.
        # Filling e.__dict__ directly builds faster, but a materialized dict
        # makes every later read, hash and == of the fields slower
        e = object.__new__(cls)
        object.__setattr__(e, "initial", initial)
        object.__setattr__(e, "period", period)
        return e

    def __str__(self) -> str:
        return format_block(self)


def _reciprocal_state(x: QuadraticSurd) -> tuple[int, int, int, int]:
    # (P, Q, Q_prev, D) of 1/x, the stream all partial quotients of x are read
    # from; Q_prev * Q = D - P*P, x itself is (-P + sqrt(D))/Q_prev, scaled by
    # |Q_prev| when Q_prev does not divide D - P*P as read off x
    if x._b > 0:
        p, q = x._a, x._c
    else:
        p, q = -x._a, -x._c
    d = x._b * x._b * x._d
    if (d - p * p) % q:
        p, d, q = p * abs(q), d * q * q, q * abs(q)
    return -p, (d - p * p) // q, q, d


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

    Many periods are symmetric: every period of sqrt(d), and every cycle of an
    ambiguous class.  With Q_prev * Q = D - P*P, the swapped state
    (P + sqrt(D))/Q_prev is -1/conj(x) and expands to the quotients before x
    in reverse, so a step of the reduced walk is a centre exactly when it
    keeps P (at step k, a[k+j] = a[k-j]) or keeps Q (a[k+1+j] = a[k-j]).  A
    symmetric cycle has two centres, half a period apart.  The walk stops at
    the first centre after the start; the same step run on the swapped start
    (P, Q_prev), with Q as its predecessor, walks backward to the centre
    before it, and one reflection of the window between them gives the whole
    period in about half of its steps.  A cycle with no centre is walked to
    its return, and so is one that comes back within _REFLECT_FROM steps.

    The expansion is kept on x, so a value is walked at most once, and a value
    built by :func:`surd_from_cfe` is never walked.
    """
    e = x._expansion
    if e is None:
        e = _walk(x)
        _set_expansion(x, e)
    return e


def _walk(x: QuadraticSurd) -> PeriodicCFE:
    # cfe_periodic's walk, which runs once per value
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
    p0, q0, q_back = p, q, q_prev
    while True:
        a = (p + sd) // q  # q > 0 in every reduced state
        quotients.append(a)
        p_next = a * q - p
        q, q_prev = q_prev + a * (p - p_next), q
        # the return is tested first, so a one-quotient cycle never reflects
        if p_next == p0 and q == q0:
            return PeriodicCFE._trusted(tuple(quotients[:start]), tuple(quotients[start:]))
        if p_next == p or q == q_prev:
            break
        p = p_next
    # a centre that keeps P sits on a quotient, which its reflection must not
    # repeat; one that keeps Q sits between two quotients
    centre, fwd_on_quotient = len(quotients), p_next == p
    # a cycle that comes back within _REFLECT_FROM steps is walked to its
    # return, which costs less than reflecting it
    while len(quotients) - start < _REFLECT_FROM:
        p = p_next
        a = (p + sd) // q
        quotients.append(a)
        p_next = a * q - p
        q, q_prev = q_prev + a * (p - p_next), q
        if p_next == p0 and q == q0:
            return PeriodicCFE._trusted(tuple(quotients[:start]), tuple(quotients[start:]))
    del quotients[centre:]
    back: list[int] = []
    p, q, q_prev = p0, q_back, q0
    back_on_quotient = False
    while q != q_prev:  # keeps Q; before any step, the centre between the two walks
        a = (p + sd) // q
        back.append(a)
        p_next = a * q - p
        q, q_prev = q_prev + a * (p - p_next), q
        if p_next == p:
            back_on_quotient = True
            break
        p = p_next
    # the period from the start: forward to the centre, back by reflection,
    # on through the quotients walked backward (they continue the reflection),
    # and by reflecting those about the other centre back to the start
    quotients += reversed(quotients[start : len(quotients) - fwd_on_quotient])
    quotients += back[: len(back) - back_on_quotient]
    quotients += reversed(back)
    return PeriodicCFE._trusted(tuple(quotients[:start]), tuple(quotients[start:]))


def minimal_period_normalize(initial: Word, period: Word) -> PeriodicCFE:
    """Canonical form of initial + period^infinity.

    The period is replaced by its primitive root, then trailing symbols of the
    initial block are folded into the period by rotating it; the represented
    infinite sequence never changes.
    """
    if not period:
        raise ValueError("period must be nonempty")
    _check_quotients((*initial, *period))
    return _canonical(tuple(initial), tuple(period))


def _canonical(initial: Word, period: Word) -> PeriodicCFE:
    # trusted: int tuples >= 1, period nonempty
    return _fold_in(initial, period[: words.primitive_root_length(period)])


def _fold_in(initial: Word, period: Word) -> PeriodicCFE:
    # trusted: int tuples >= 1, period primitive; the k trailing symbols of
    # the initial block that the period repeats fold in as one rotation by k
    n = len(period)
    k = 0
    while k < len(initial) and initial[-1 - k] == period[n - 1 - k % n]:
        k += 1
    r = n - k % n
    return PeriodicCFE._trusted(initial[: len(initial) - k], period[r:] + period[:r])


def sigma_shift(e: PeriodicCFE) -> PeriodicCFE:
    """Drop the first symbol of the represented sequence; canonical as built,
    since the initial block keeps its last symbol and rotations stay primitive."""
    if e.initial:
        return PeriodicCFE._trusted(e.initial[1:], e.period)
    return PeriodicCFE._trusted((), e.period[1:] + e.period[:1])


def block_prefix(e: PeriodicCFE, n: int) -> Word:
    """First n symbols of the represented infinite sequence."""
    if n < 0:
        raise ValueError("need n >= 0")
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
# periods longer than this are solved from their fold mod _FOLD_MOD first; the
# measured crossover, below which the exact tree is faster than the guess
_GUESS_FROM = 20_000
# a Mersenne prime: every residue but 0 inverts
_FOLD_MOD = 2**127 - 1


def _fold(w: Word, lo: int, hi: int, m: int = 0) -> tuple[int, int, int, int]:
    # entries (p, q, r, s) of the product of cfe_step_matrix(a) over w[lo:hi],
    # reduced mod m when m is set; halving keeps the operands of each big
    # multiplication balanced
    if hi - lo <= _FOLD_LEAF:
        p, q, r, s = 1, 0, 0, 1
        for i in range(lo, hi):
            a = w[i]
            p, q, r, s = q, p + q * a, s, r + s * a
    else:
        mid = (lo + hi) // 2
        p1, q1, r1, s1 = _fold(w, lo, mid, m)
        p2, q2, r2, s2 = _fold(w, mid, hi, m)
        p, q, r, s = p1 * p2 + q1 * r2, p1 * q2 + q1 * s2, r1 * p2 + s1 * r2, r1 * q2 + s1 * s2
    if m:
        return p % m, q % m, r % m, s % m
    return p, q, r, s


def _rational(u: int, m: int, bound: int) -> tuple[int, int] | None:
    # n/d in lowest terms with n = u*d mod m, |n| <= bound and 0 < d <= bound,
    # by the half extended Euclidean algorithm (Wang); unique when
    # 2*bound*bound < m
    r0, r1, t0, t1 = m, u, 0, 1
    while r1 > bound:
        k = r0 // r1
        r0, r1, t0, t1 = r1, r0 - k * r1, t1, t0 - k * t1
    if t1 < 0:
        r1, t1 = -r1, -t1
    if t1 > bound or math.gcd(r1, t1) != 1:
        return None
    return r1, t1


def _certified(a: int, b: int, c: int, period: Word) -> bool:
    # does the root of a*y^2 + b*y - c in (0, 1) have the purely periodic
    # expansion (period)?  Its reciprocal (b + sqrt(D))/(2c) is positive, as
    # a, c > 0 make sqrt(D) > |b|; if it reads the period quotient by quotient
    # and comes back, it is a positive fixed point of the period's map, which
    # fixes only the purely periodic number: True is a proof, reduced start or
    # not.  A square D is refused, which keeps every Q nonzero (Q*Q' = D - P'^2).
    # The step is cfe_periodic's, inline: a call per quotient costs about 40% more
    d = b * b + 4 * a * c
    sd = math.isqrt(d)
    p, q, q_prev = b, 2 * c, 2 * a
    if sd * sd == d:
        return False
    for want in period:
        k = (p + sd) // q
        if k != want:
            return False
        p_next = k * q - p
        q, q_prev = q_prev + k * (p - p_next), q
        p = p_next
    return p == b and q == 2 * c


def _guess(period: Word) -> tuple[int, int, int] | None:
    # the primitive (A, B, C) of the period read off its fold mod _FOLD_MOD by
    # rational reconstruction of B/A and C/A, or None unless certified
    m = _FOLD_MOD
    p, q, r, s = _fold(period, 0, len(period), m)
    if not r:
        return None
    inv = pow(r, -1, m)
    bound = math.isqrt(m // 2)
    ba = _rational((s - p) * inv % m, m, bound)
    ca = _rational(q * inv % m, m, bound)
    if ba is None or ca is None:
        return None
    # lowest terms on both sides make (a, b, c) primitive with a > 0
    a = math.lcm(ba[1], ca[1])
    b, c = ba[0] * (a // ba[1]), ca[0] * (a // ca[1])
    if c <= 0 or not _certified(a, b, c, period):
        return None
    return a, b, c


def surd_from_cfe(e: PeriodicCFE) -> QuadraticSurd:
    """The unique x in (0, 1) whose expansion is the given block.

    The period's step matrices compose to [[p, q], [r, s]]; the purely
    periodic tail is the root of r*y^2 + (s-p)*y - q inside (0, 1), and the
    initial block is then applied as a single composed matrix.  Exact
    products are product trees (binary splitting): halves are folded
    recursively and multiplied once, so the cost follows fast multiplication
    of the final entries instead of growing quadratically in their bit size.
    The quadratic is divided by its content, leaving the primitive minimal
    polynomial, whose coefficients stay at the scale of the field while the
    matrix entries grow like the fundamental unit.

    So a period longer than ``_GUESS_FROM`` is first folded mod the prime
    2**127 - 1, and rational reconstruction reads a candidate polynomial off
    the residues.  It is kept only if its root re-expands to the period: the
    reciprocal state is reduced, every quotient matches, and the state comes
    back after the last one.  A purely periodic number is fixed by its
    period, so this is a proof and the prime only guides the search.  Any
    failure falls back to the exact product; the initial block is always
    folded exactly.  Either way e is proved to be the expansion of the root,
    which keeps it, so :func:`cfe_periodic` returns e without a walk.
    """
    abc = _guess(e.period) if len(e.period) > _GUESS_FROM else None
    if abc is None:
        p, q, r, s = _fold(e.period, 0, len(e.period))
        g = math.gcd(r, s - p, q)
        abc = r // g, (s - p) // g, q // g
    rr, bb, qq = abc
    disc = bb * bb + 4 * rr * qq
    # rr, qq > 0, so the positive root is in (0, 1); what normalize checks holds:
    # b = 1 makes the gcd 1, 2*rr > 0, and disc is no square, the value irrational
    y = QuadraticSurd(-bb, 1, 2 * rr, disc)
    if e.initial:
        y = mobius_apply(UnimodularMatrix(*_fold(e.initial, 0, len(e.initial))), y)
    _set_expansion(y, e)
    return y


# ---------------------------------------------------------------------------
# text and JSON forms

@unlimited_digits
def format_block(e: PeriodicCFE) -> str:
    period = "(" + words._joined(e.period) + ")"
    if not e.initial:
        return period
    return words._joined(e.initial) + "," + period


@unlimited_digits
def parse_block(text: str) -> PeriodicCFE:
    """Parse `2,1,(3,1,4)` or `(1,2,3)`; the result is canonicalized.

    Whitespace (str.isspace) is dropped anywhere; every entry is a nonempty
    run of decimal digits (str.isdecimal).
    """
    head, _, body = "".join(text.split()).partition("(")
    first = head[:-1].split(",") if head else []
    rest = body[:-1].split(",")
    if head[-1:] not in ("", ",") or body[-1:] != ")" or not (
        all(map(str.isdecimal, first)) and all(map(str.isdecimal, rest))
    ):
        raise ParseError(f"not a block literal: {text!r}")
    initial = words._entries(first)
    period = words._entries(rest)
    if 0 in initial or 0 in period:  # decimal digits admit no other bad value
        raise ParseError(f"partial quotients must be >= 1: {text!r}")
    return _canonical(initial, period)


def block_to_json(e: PeriodicCFE) -> dict[str, list[int]]:
    return {"initial": list(e.initial), "period": list(e.period)}


@unlimited_digits
def block_from_json(obj: dict) -> PeriodicCFE:
    try:
        if not all(isinstance(obj[k], (list, tuple)) for k in ("initial", "period")):
            raise TypeError("initial and period must be arrays")
        if not obj["period"]:
            raise ValueError("period must be nonempty")
        initial = tuple(_json_int(n) for n in obj["initial"])
        period = tuple(_json_int(n) for n in obj["period"])
    except (KeyError, TypeError, ValueError) as exc:
        raise ParseError(f"not a block object: {obj!r}") from exc
    if any(n < 1 for n in initial + period):
        raise ParseError(f"partial quotients must be >= 1: {obj!r}")
    return _canonical(initial, period)
