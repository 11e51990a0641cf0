"""Indicial families of the cusp model operator and their root structure.

The boundary model of the shifted Laplacian transverse to a divisor is the
one-parameter family

    P(z) = (c/2) (z^2 + z) - lambda - nu,

acting on each eigenspace of the divisor Laplacian with eigenvalue -nu.
Its non-invertibility locus is given by the exponents z solving

    (z + 1/2)^2 = 2 (lambda + nu) / c + 1/4,

one symmetric pair about z = -1/2 per eigenvalue, degenerating to a single
double root at z = -1/2 when the right-hand side vanishes.  These roots
drive which terms x^z (log x)^k can appear in solution expansions; the
functions below enumerate the raw pole set and the shift-augmented index
set that accounts for accidental multiplicities (a root landing an integer
above another root stacks an extra log power).  The shift-augmented set
is one ascending sweep over the chains z, z+1, ... that start at the roots
above alpha, summing the pole orders met along the way.  Exponents are
compared only through ``indexsets``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from fractions import Fraction

from .indexsets import (
    Exponent,
    IndexSet,
    IndexTerm,
    as_exponent,
    exponent_gt,
    exponents_equal,
    is_exact,
    rational_sqrt,
    sweep_shifts,
)

HALF = Fraction(1, 2)


@dataclass(frozen=True)
class IndicialFamily:
    """Spectral data of the model operator: shift, cusp constant, spectrum.

    ``spectrum`` lists the values nu_j >= 0 (the divisor Laplacian has
    eigenvalues -nu_j), strictly increasing; ``multiplicities`` the
    corresponding eigenspace dimensions.  Rational inputs are kept exact.
    """

    lam: Exponent
    c: Exponent
    spectrum: tuple[Exponent, ...]
    multiplicities: tuple[int, ...] = field(default=())

    def __post_init__(self):
        object.__setattr__(self, "lam", as_exponent(self.lam))
        object.__setattr__(self, "c", as_exponent(self.c))
        spec = tuple(as_exponent(nu) for nu in self.spectrum)
        object.__setattr__(self, "spectrum", spec)
        mult = self.multiplicities or tuple(1 for _ in spec)
        mult = tuple(int(m) for m in mult)
        object.__setattr__(self, "multiplicities", mult)
        if not self.c > 0:   # exact: a tiny rational c floats to 0
            raise ValueError(f"cusp constant c must be positive, got {self.c}")
        if len(mult) != len(spec):
            raise ValueError("multiplicities must match the spectrum in length")
        if any(m < 1 for m in mult):
            raise ValueError("multiplicities must be >= 1")
        if any(nu < 0 for nu in spec):
            raise ValueError("spectrum values must be >= 0")
        for a, b in zip(spec, spec[1:]):
            if not exponent_gt(b, a):
                raise ValueError("spectrum must be strictly increasing")
        for nu in spec:   # each root needs its discriminant as a finite float
            _discriminant(self, nu)


@dataclass(frozen=True)
class IndicialRoot:
    """A real root z of the indicial quadratic, with its pole order."""

    z: Exponent
    order: int  # 1, or 2 for the double root at z = -1/2
    eigenvalue_index: int
    multiplicity: int


def _discriminant(family: IndicialFamily, nu: Exponent) -> Exponent:
    """2(lambda + nu)/c + 1/4, exact for exact data; a ValueError where its
    float is not finite, since the roots are compared and written as floats."""
    lam, c = family.lam, family.c
    try:
        if is_exact(lam) and is_exact(c) and is_exact(nu):
            disc = 2 * (lam + nu) / c + Fraction(1, 4)
            finite = math.isfinite(float(disc))
        else:   # 0/c is 0 also where a tiny rational c floats to 0
            s = float(lam) + float(nu)
            disc = (2.0 * s / float(c) if s else 0.0) + 0.25
            finite = math.isfinite(disc)
    except (OverflowError, ZeroDivisionError):   # 1/c overflows
        finite = False
    if not finite:
        raise ValueError(f"the discriminant 2(lambda + nu)/c + 1/4 at spectrum value "
                         f"nu={float(nu):.6g} is not a finite float")
    return disc


def spec_b_roots(family: IndicialFamily) -> list[IndicialRoot]:
    """All real exponents z with (z + 1/2)^2 = 2(lambda + nu)/c + 1/4.

    Returns one order-1 pair per eigenvalue with positive discriminant and a
    single order-2 root at z = -1/2 when the discriminant vanishes.
    Eigenvalues with negative discriminant contribute no real root; they are
    counted by :func:`count_complex_root_eigenvalues`.
    """
    roots: list[IndicialRoot] = []
    for j, (nu, mult) in enumerate(zip(family.spectrum, family.multiplicities)):
        disc = _discriminant(family, nu)
        if exponents_equal(disc, 0):
            roots.append(IndicialRoot(-HALF if is_exact(disc) else -0.5, 2, j, mult))
        elif exponent_gt(disc, 0):
            s = (rational_sqrt(disc) if is_exact(disc) else None) or math.sqrt(float(disc))
            roots.append(IndicialRoot(-HALF + s, 1, j, mult))
            roots.append(IndicialRoot(-HALF - s, 1, j, mult))
    roots.sort(key=lambda r: float(r.z))
    return roots


def count_complex_root_eigenvalues(family: IndicialFamily) -> int:
    """Number of eigenvalues whose indicial roots are a complex pair.

    These occur only for lambda < -nu - c/8 and are excluded from the real
    index sets produced here.
    """
    return sum(exponent_gt(0, _discriminant(family, nu)) for nu in family.spectrum)


def index_set_Eplus(family: IndicialFamily, alpha: float, cutoff) -> IndexSet:
    """Raw pole set: terms (z, k) with z a real root above alpha, k < order.

    Enumerated up to the cutoff.  Deliberately not closed under integer
    shifts; apply :func:`cuspasym.indexsets.closure` for the closed version.
    """
    alpha, cutoff = as_exponent(alpha), as_exponent(cutoff)
    if exponent_gt(alpha, cutoff):
        raise ValueError(f"cutoff {cutoff} must be >= alpha {alpha}")
    terms = []
    for r in spec_b_roots(family):
        if exponent_gt(r.z, alpha) and not exponent_gt(r.z, cutoff):
            for k in range(r.order):
                terms.append(IndexTerm(r.z, k))
    return IndexSet(tuple(terms), cutoff)


def index_set_hatEplus(family: IndicialFamily, alpha: float, cutoff) -> IndexSet:
    """Shift-augmented index set including accidental log multiplicities.

    One ascending sweep follows the chains z, z + 1, ... <= cutoff from the
    real roots above alpha; (z, k) is included for k below the sum of the
    pole orders met on the chains into z.  Closed by construction.
    """
    alpha, cutoff = as_exponent(alpha), as_exponent(cutoff)
    if exponent_gt(alpha, cutoff):
        raise ValueError(f"cutoff {cutoff} must be >= alpha {alpha}")
    heads = [(r.z, r.order) for r in spec_b_roots(family) if exponent_gt(r.z, alpha)]
    return IndexSet(tuple(IndexTerm(z, k) for z, total in sweep_shifts(heads, cutoff, sum)
                          for k in range(total)), cutoff)
