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
import sys
from itertools import repeat

from . import words
from .surds import (
    ParseError,
    QuadraticSurd,
    UnimodularMatrix,
    _floor_pq,
    _Frozen,
    _json_int,
    _min_poly,
    _mobius,
    _require_omega,
    _set_expansion,
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


class PeriodicCFE(_Frozen):
    """Eventually periodic partial-quotient sequence in canonical form.

    The period is primitive and the initial block cannot be shortened by
    rotating the period into it; together these make the representation of an
    eventually periodic sequence unique, so structural equality is equality
    of infinite sequences.  Build non-canonical data through
    :func:`minimal_period_normalize`.
    """

    __slots__ = __match_args__ = ("initial", "period")

    def __init__(self, initial: Word, period: Word) -> None:
        _set_initial(self, tuple(initial))
        _set_period(self, tuple(period))
        if not self.period:
            raise ValueError("period must be nonempty")
        _check_quotients(self.initial + self.period)
        if not words.is_primitive(self.period):
            raise ValueError(f"period {words._shown(self.period)} is not primitive")
        if self.initial and self.initial[-1] == self.period[-1]:
            raise ValueError("initial block ends inside the period; not canonical")

    @classmethod
    def _trusted(cls, initial: Word, period: Word) -> "PeriodicCFE":
        # for blocks already canonical by construction: skips the checks
        e = object.__new__(cls)
        _set_initial(e, initial)
        _set_period(e, period)
        return e

    # the fields compared directly: labels are compared and hashed in bulk
    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self.initial == other.initial and self.period == other.period

    def __hash__(self) -> int:
        return hash((self.initial, self.period))

    def __str__(self) -> str:
        return format_block(self)


_set_initial, _set_period = PeriodicCFE._setters()


def _reciprocal_state(x: QuadraticSurd) -> tuple[int, int, int, int]:
    # (P, Q, Q_prev, D) of 1/x, which all partial quotients of x are read from:
    # _certified's state of (A, B, -C), for _min_poly(x) = (A, B, C) negated
    # when x._b < 0, so x = (-B + sqrt(D))/(2A) and D = poly_discriminant(x);
    # Q, Q_prev are even and every state is the form (Q/2, P, -Q_prev/2) of D
    a, b, c = _min_poly(x)
    if x._b < 0:
        a, b, c = -a, -b, -c
    return b, -2 * c, 2 * a, b * b - 4 * a * c


def cfe_expand(x: QuadraticSurd, n: int) -> Word:
    """First n partial quotients of x in (0, 1)."""
    if n < 1:
        raise ValueError("need n >= 1")
    _require_omega(x)
    return _expand(*_reciprocal_state(x), n)


def _expand(p: int, q: int, q_prev: int, d: int, n: int) -> Word:
    # the first n quotients of (P + sqrt(D))/Q, Q_prev * Q = D - P*P, D no
    # square, from any state.  As in _walk, every state after the first
    # reduced one is reduced, with q > 0, and the step is inline
    sd = math.isqrt(d)
    out = []
    while len(out) < n and not (0 < p <= sd and sd - p < q <= sd + p):
        a = _floor_pq(p, q, sd)
        out.append(a)
        p_next = a * q - p
        q, q_prev = q_prev + a * (p - p_next), q
        p = p_next
    for _ in range(n - len(out)):
        a = (p + sd) // q
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

    The walk starts from the reciprocal state of x; :func:`surd_from_cfe`
    certifies a guessed answer with the same walk.  The expansion is kept on
    x, so a value is walked at most once, and a value built by
    :func:`surd_from_cfe` is never walked.
    """
    e = x._expansion
    if e is None:
        _require_omega(x)
        e = _walk(*_reciprocal_state(x))
        _set_expansion(x, e)
    return e


def _walk(p: int, q: int, q_prev: int, d: int, limit: int = sys.maxsize) -> PeriodicCFE | None:
    """Expansion of (P + sqrt(D))/Q, Q_prev * Q = D - P*P, D no square, walked
    as :func:`cfe_periodic` says; None where it would read more than limit
    quotients over its four loops (pre-period, forward, _REFLECT_FROM tail,
    backward).  No memory holds a walk as long as the default.  The step stays
    inline, as a call per quotient costs about 40% more, and the long loops
    count in repeat(): range makes a new int per step past 256.
    """
    sd = math.isqrt(d)
    quotients: list[int] = []
    while not (0 < p <= sd and sd - p < q <= sd + p):
        if len(quotients) == limit:
            return None
        a = _floor_pq(p, q, sd)
        quotients.append(a)
        p_next = a * q - p
        q, q_prev = q_prev + a * (p - p_next), q
        p = p_next
    start = len(quotients)
    p0, q0, q_back = p, q, q_prev
    for _ in repeat(None, limit - start):
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
    else:
        return None
    # a centre that keeps P sits on a quotient, which its reflection must not
    # repeat; one that keeps Q sits between two quotients
    centre, fwd_on_quotient = len(quotients), p_next == p
    # a cycle that comes back within _REFLECT_FROM steps is walked to its
    # return, which costs less than reflecting it
    while len(quotients) - start < _REFLECT_FROM:
        if len(quotients) == limit:
            return None
        p = p_next
        a = (p + sd) // q
        quotients.append(a)
        p_next = a * q - p
        q, q_prev = q_prev + a * (p - p_next), q
        if p_next == p0 and q == q0:
            return PeriodicCFE._trusted(tuple(quotients[:start]), tuple(quotients[start:]))
    back: list[int] = []
    p, q, q_prev = p0, q_back, q0
    back_on_quotient = False
    if q != q_prev:  # keeps Q: the start is the centre between the two walks
        for _ in repeat(None, limit - len(quotients)):
            a = (p + sd) // q
            back.append(a)
            p_next = a * q - p
            q, q_prev = q_prev + a * (p - p_next), q
            if p_next == p or q == q_prev:
                break
            p = p_next
        else:
            return None
        back_on_quotient = p_next == p
    # the period from the start: forward to the centre, back by reflection,
    # on through the quotients walked backward (they continue the reflection),
    # and by reflecting those about the other centre back to the start
    del quotients[centre:]
    quotients += reversed(quotients[start : centre - fwd_on_quotient])
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
# periods longer than this are solved from a short prefix first.  The guess
# reads at most n/32 quotients from each end and its first try reads 8, so it
# can start at 256; on sqrt(d) periods it beats the exact tree from about 64
_GUESS_FROM = 256


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


def _pinned(a: int, b: int, c: int, d: int) -> tuple[int, int] | None:
    # the rational h/k of least denominator strictly between a/b and c/d, for
    # 0 <= a/b < c/d with b, d > 0, in lowest terms: the continued fraction
    # the two ends share, closed by the least integer above the lower end
    # where they part.  None unless the interval is narrower than 1/k^2, which
    # makes h/k the only rational of denominator at most k inside it
    width, scale = c * b - a * d, b * d
    h0, h1, k0, k1 = 0, 1, 1, 0
    while True:
        t = a // b + 1
        if t * d < c:
            h, k = h1 * t + h0, k1 * t + k0
            return (h, k) if k * k * width < scale else None
        t -= 1
        h0, h1, k0, k1 = h1, h1 * t + h0, k1, k1 * t + k0
        a, b, c, d = d, c - t * d, b, a - t * b


def _certified(a: int, b: int, c: int, period: Word, prefix: int = 0) -> bool:
    """Does the root y of a*y^2 + b*y - c in (0, 1) expand to (period)?

    a, c > 0.  1/y = (b + sqrt(D))/(2c) has the state (P, Q, Q_prev) =
    (b, 2c, 2a); a square D is refused, which keeps every Q nonzero.  True
    means :func:`_walk` expands the state to no initial block (the start is
    reduced) and exactly the period, a proof.  The right candidate reads at
    most n + _REFLECT_FROM quotients: n with no centre, else the larger of
    _REFLECT_FROM and the steps to the first centre, plus those back to the
    other.  A wrong candidate's cycle can be far longer, so its walk is cut.
    The first prefix quotients are compared before the walk: a wrong guess
    from m quotients at each end parts from the period within about m, and
    :func:`_guess` passes 2m, which refuses it at a share of the walk.
    """
    d = b * b + 4 * a * c
    if math.isqrt(d) ** 2 == d or _expand(b, 2 * c, 2 * a, d, prefix) != period[:prefix]:
        return False
    e = _walk(b, 2 * c, 2 * a, d, len(period) + _REFLECT_FROM)
    return e is not None and e.initial == () and e.period == period


def _guess(period: Word) -> tuple[int, int, int] | None:
    # the primitive (A, B, C) of the period read off its first m quotients,
    # m = 8, 16, ... while m <= n/32, or None unless certified; past n/32 a
    # failed guess would cost a growing share of the exact fold.  By Galois's
    # theorem the other root of A*y^2 + B*y - C is -z with
    # z = [a_n; (a_{n-1}, ..., a_1, a_n)], so B/A = z - x and C/A = x*z.  The
    # fold (p, q, r, s) of x's first m quotients maps (0, 1) onto an interval
    # around x with ends q/s < (p + q)/(r + s), in this order as m is even;
    # z - a_n is bracketed alike by the fold of the m quotients before a_n in
    # reverse, the transpose of the fold of period[n-1-m : n-1] since every
    # step matrix is symmetric.  Once the brackets of z - x and x*z are
    # narrower than 1/A^2, the simplest rational in each is the only one with
    # denominator at most A, so it is B/A or C/A; a try whose brackets pin no
    # rational is skipped, which keeps a failed guess at a share of the fold
    n = len(period)
    an = period[-1]
    fp, fq, fr, fs = gp, gq, gr, gs = 1, 0, 0, 1
    read, m = 0, 8
    while m <= n >> 5:
        p, q, r, s = _fold(period, read, m)
        fp, fq, fr, fs = fp * p + fq * r, fp * q + fq * s, fr * p + fs * r, fr * q + fs * s
        p, q, r, s = _fold(period, n - 1 - m, n - 1 - read)
        gp, gq, gr, gs = p * gp + q * gr, p * gq + q * gs, r * gp + s * gr, r * gq + s * gs
        xn1, xd1, xn2, xd2 = fq, fs, fp + fq, fr + fs
        zn1, zd1, zn2, zd2 = an * gs + gr, gs, an * (gq + gs) + gp + gr, gq + gs
        ba = _pinned(zn1 * xd2 - xn2 * zd1, zd1 * xd2, zn2 * xd1 - xn1 * zd2, zd2 * xd1)
        ca = ba and _pinned(xn1 * zn1, xd1 * zd1, xn2 * zn2, xd2 * zd2)
        if ca:
            # lowest terms on both sides make (a, b, c) primitive with a > 0
            a = math.lcm(ba[1], ca[1])
            b, c = ba[0] * (a // ba[1]), ca[0] * (a // ca[1])
            if _certified(a, b, c, period, 2 * m):
                return a, b, c
        read, m = m, 2 * m
    return None


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

    So a period longer than ``_GUESS_FROM`` is first read from its ends.  By
    Galois's theorem on purely periodic expansions the other root is minus
    the value of the reversed period, so the folds of the first m quotients
    and of the m before the last one bracket both roots, and the simplest
    rationals in the brackets of their difference and product give a
    candidate polynomial; m doubles from 8 while it is at most n/32.  A
    candidate is kept only if its root re-expands to the period
    (:func:`_certified`): its first 2m quotients must be the period's, which
    refuses a wrong one early, and the root's reciprocal state is walked as
    :func:`cfe_periodic` walks a value, for at most n + _REFLECT_FROM
    quotients, and must give exactly the block (period).  So the answer is
    proved, and the prefix only guides the search.  If no candidate is kept,
    the exact product answers; the initial block is always folded exactly.
    Either way e is proved to be the expansion of the root, which keeps it,
    so :func:`cfe_periodic` returns e without a walk.
    """
    abc = _guess(e.period) if len(e.period) > _GUESS_FROM else None
    if abc is None:
        p, q, r, s = _fold(e.period, 0, len(e.period))
        g = math.gcd(r, s - p, q)
        abc = r // g, (s - p) // g, q // g
    rr, bb, qq = abc
    disc = bb * bb + 4 * rr * qq
    # rr, qq > 0, so the positive root is in (0, 1); what normalize checks holds:
    # b = 1 makes the gcd 1, 2*rr > 0, and disc is no square, the value irrational;
    # the initial block's fold, unimodular as built, maps those coefficients as integers
    if e.initial:
        y = _mobius(*_fold(e.initial, 0, len(e.initial)), -bb, 1, 2 * rr, disc)
    else:
        y = QuadraticSurd(-bb, 1, 2 * rr, disc)
    _set_expansion(y, e)
    return y


# ---------------------------------------------------------------------------
# text and JSON forms

def format_block(e: PeriodicCFE) -> str:
    period = "(" + words._joined(e.period) + ")"
    if not e.initial:
        return period
    return words._joined(e.initial) + "," + period


def parse_block(text: str) -> PeriodicCFE:
    """Parse `2,1,(3,1,4)` or `(1,2,3)`; the result is canonicalized.

    Whitespace (str.isspace) is dropped anywhere; every entry is a nonempty
    run of decimal digits (str.isdecimal).
    """
    head, _, body = "".join(text.split()).partition("(")
    first = head[:-1].split(",") if head else []
    rest = body[:-1].split(",")
    shaped = head[-1:] in ("", ",") and body[-1:] == ")"
    try:
        if not shaped:
            raise ValueError
        initial = words._entries(first)  # checks each entry it reads, zeros too
        period = words._entries(rest)
    except ValueError:
        # a block of decimal runs was refused for a zero, the one bad value
        # that digits admit; any other refused entry makes it no block literal
        zero = shaped and all(map(str.isdecimal, first + rest))
        what = "partial quotients must be >= 1" if zero else "not a block literal"
        raise ParseError(f"{what}: {text!r}") from None
    return _canonical(initial, period)


def block_to_json(e: PeriodicCFE) -> dict[str, list[int]]:
    return {"initial": list(e.initial), "period": list(e.period)}


def block_from_json(obj: dict) -> PeriodicCFE:
    try:
        if not all(isinstance(obj[k], (list, tuple)) for k in ("initial", "period")):
            raise TypeError("initial and period must be arrays")
        if not obj["period"]:
            raise ValueError("period must be nonempty")
        initial = tuple(_json_int(n) for n in obj["initial"])
        period = tuple(_json_int(n) for n in obj["period"])
    except (KeyError, TypeError, ValueError) as exc:
        raise ParseError(f"not a block object: {words._shown(obj)}") from exc
    if any(n < 1 for n in initial + period):
        raise ParseError(f"partial quotients must be >= 1: {words._shown(obj)}")
    return _canonical(initial, period)
