"""Modular equivalence of quadratic surds, decided through expansion tails."""

from __future__ import annotations

from . import words
from .cfe import PeriodicCFE, cfe_periodic
from .surds import (
    NotIrrational,
    QuadraticSurd,
    UnimodularMatrix,
    _require_omega,
    floor_of,
    mobius_apply,
    poly_discriminant,
    shift_by_int,
)


class DegenerateImage(ArithmeticError):
    """A modular image collapsed to a rational; impossible for irrational input."""


def tail_equivalent(a: PeriodicCFE, b: PeriodicCFE) -> bool:
    """True when the sequences agree after finitely many shifts on each side.

    For eventually periodic sequences this holds exactly when the primitive
    periods are rotations of each other; initial blocks are irrelevant.
    """
    return words.canonical_rotation(a.period) == words.canonical_rotation(b.period)


def modular_equivalent(x: QuadraticSurd, y: QuadraticSurd) -> bool:
    """Decide x ~ y under integer Moebius maps of determinant +-1.

    Maps of determinant +-1 preserve the discriminant of the primitive
    minimal polynomial, so differing discriminants answer at once; otherwise
    repeating blocks are compared, which is exact and terminating.  No
    witness matrix is ever searched for.
    """
    for v in (x, y):
        _require_omega(v)
    if poly_discriminant(x) != poly_discriminant(y):
        return False
    return tail_equivalent(cfe_periodic(x), cfe_periodic(y))


def apply_and_reduce(m: UnimodularMatrix, x: QuadraticSurd) -> QuadraticSurd:
    """Unimodular image reduced by its integer part, back inside (0, 1).

    The reduction y - floor(y) is itself a modular map, so the result stays
    equivalent to x.
    """
    _require_omega(x)
    try:
        y = mobius_apply(m, x)
    except NotIrrational as exc:
        raise DegenerateImage(str(exc)) from exc
    return shift_by_int(y, -floor_of(y))


def omega_class_label(x: QuadraticSurd) -> words.Word:
    """Canonical label of the equivalence class of x: the least rotation of
    its repeating block.  Equal labels are equivalent to modular equivalence."""
    _require_omega(x)
    return words.canonical_rotation(cfe_periodic(x).period)
