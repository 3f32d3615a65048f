"""Modular equivalence of quadratic surds: discriminants, then class labels."""

from __future__ import annotations

from . import words
from .cfe import cfe_periodic
from .surds import (
    QuadraticSurd,
    UnimodularMatrix,
    _require_omega,
    floor_of,
    mobius_apply,
    poly_discriminant,
    shift_by_int,
)


def modular_equivalent(x: QuadraticSurd, y: QuadraticSurd) -> bool:
    """Decide x ~ y under integer Moebius maps of determinant +-1.

    Maps of determinant +-1 preserve the discriminant of the primitive
    minimal polynomial, so differing discriminants answer at once; otherwise
    the class labels are compared, which is exact and terminating.  No
    witness matrix is ever searched for.
    """
    for v in (x, y):
        _require_omega(v)
    if poly_discriminant(x) != poly_discriminant(y):
        return False
    return omega_class_label(x) == omega_class_label(y)


def apply_and_reduce(m: UnimodularMatrix, x: QuadraticSurd) -> QuadraticSurd:
    """Unimodular image reduced by its integer part, back inside (0, 1).

    The reduction y - floor(y) is itself a modular map, so the result stays
    equivalent to x.
    """
    _require_omega(x)
    y = mobius_apply(m, x)
    return shift_by_int(y, -floor_of(y))


def omega_class_label(x: QuadraticSurd) -> words.Word:
    """Canonical label of the equivalence class of x: the least rotation of
    its repeating block.  Equal labels are equivalent to modular equivalence."""
    return words.canonical_rotation(cfe_periodic(x).period)
