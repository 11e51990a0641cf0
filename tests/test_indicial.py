"""Indicial roots and the derived index sets."""

import random
from fractions import Fraction

import numpy as np
import pytest

from cuspasym.indexsets import IndexTerm, closure, extended_union
from cuspasym.indicial import (
    IndicialFamily,
    count_complex_root_eigenvalues,
    index_set_Eplus,
    index_set_hatEplus,
    spec_b_roots,
)


def quadratic_roots(lam, c, nu):
    """Independent oracle: numpy root-finder on (c/2) z^2 + (c/2) z - (lam + nu)."""
    return sorted(np.roots([c / 2.0, c / 2.0, -(lam + nu)]).real)


def test_unit_family_roots_exact():
    fam = IndicialFamily(1, 1, (0,))
    roots = spec_b_roots(fam)
    assert [r.z for r in roots] == [Fraction(-2), Fraction(1)]
    assert all(isinstance(r.z, Fraction) for r in roots)
    assert all(r.order == 1 for r in roots)
    oracle = quadratic_roots(1.0, 1.0, 0.0)
    assert max(abs(float(r.z) - o) for r, o in zip(roots, oracle)) < 1e-12


def test_zero_shift_roots():
    fam = IndicialFamily(0, 1, (0,))
    assert [r.z for r in spec_b_roots(fam)] == [Fraction(-1), Fraction(0)]


def test_double_root_at_minus_half():
    # discriminant 2(lam + nu)/c + 1/4 = 0 at lam = -nu - c/8
    fam = IndicialFamily(Fraction(-1, 4), 2, (0,))
    roots = spec_b_roots(fam)
    assert len(roots) == 1
    assert roots[0].z == Fraction(-1, 2) and roots[0].order == 2
    oracle = quadratic_roots(-0.25, 2.0, 0.0)
    assert max(abs(o + 0.5) for o in oracle) < 1e-12
    # the same family in floats: the discriminant vanishes within tolerance
    roots = spec_b_roots(IndicialFamily(-0.25, 2.0, (0,)))
    assert len(roots) == 1 and roots[0].order == 2
    assert isinstance(roots[0].z, float) and roots[0].z == -0.5


def test_irrational_discriminant_uses_floats():
    fam = IndicialFamily(1, 3, (0,))
    roots = spec_b_roots(fam)
    assert all(isinstance(r.z, float) for r in roots)
    oracle = quadratic_roots(1.0, 3.0, 0.0)
    assert max(abs(r.z - o) for r, o in zip(roots, oracle)) < 1e-12


def test_complex_pair_counted_and_excluded():
    fam = IndicialFamily(-5, 1, (0, 1))
    # nu=0: disc = -10 + 1/4 < 0; nu=1: disc = -8 + 1/4 < 0
    assert spec_b_roots(fam) == []
    assert count_complex_root_eigenvalues(fam) == 2
    mixed = IndicialFamily(-5, 1, (0, 10))
    assert count_complex_root_eigenvalues(mixed) == 1
    assert len(spec_b_roots(mixed)) == 2


def test_family_validation():
    with pytest.raises(ValueError, match="positive"):
        IndicialFamily(1, 0, (0,))
    with pytest.raises(ValueError, match="positive"):
        IndicialFamily(1, -2, (0,))
    with pytest.raises(ValueError, match="increasing"):
        IndicialFamily(1, 1, (1, 1))
    with pytest.raises(ValueError, match=">= 0"):
        IndicialFamily(1, 1, (-1,))
    with pytest.raises(ValueError, match="multiplicities"):
        IndicialFamily(1, 1, (0, 1), (1,))


def test_eplus_examples():
    fam = IndicialFamily(1, 1, (0,))
    assert index_set_Eplus(fam, 0, 3).pairs() == [(1.0, 0)]
    assert index_set_Eplus(fam, -3, 3).pairs() == [(-2.0, 0), (1.0, 0)]
    assert index_set_Eplus(fam, 2, 3).pairs() == []
    with pytest.raises(ValueError, match="cutoff"):
        index_set_Eplus(fam, 4, 3)


def test_eplus_is_raw_not_closed():
    fam = IndicialFamily(1, 1, (0,))
    E = index_set_Eplus(fam, 0, 3)
    assert not E.is_closed()  # (2,0) deliberately absent


def test_hat_eplus_single_root_chain():
    fam = IndicialFamily(1, 1, (0,))
    assert index_set_hatEplus(fam, 0, 4).pairs() == [
        (1.0, 0), (2.0, 0), (3.0, 0), (4.0, 0)]


def test_hat_eplus_accidental_multiplicity():
    # nu = 2 gives the root z = 2 one integer above the root z = 1, so the
    # shifted pole orders stack and (2, 1) appears
    fam = IndicialFamily(1, 1, (0, 2))
    E = index_set_hatEplus(fam, 0, 3)
    assert E.contains(2, 1)
    assert E.contains(3, 1)
    assert E.is_closed()


def test_hat_eplus_empty_above_all_roots():
    fam = IndicialFamily(1, 1, (0,))
    assert index_set_hatEplus(fam, 5, 5).pairs() == []


def test_hat_eplus_double_root_gives_log():
    fam = IndicialFamily(Fraction(-1, 4), 2, (0,))
    E = index_set_hatEplus(fam, -1, 1)
    assert E.contains(Fraction(-1, 2), 0) and E.contains(Fraction(-1, 2), 1)


def random_rational_families(count, seed=20250808):
    rng = random.Random(seed)
    lams = [Fraction(0), Fraction(1, 2), Fraction(1), Fraction(2), Fraction(5, 2)]
    cs = [Fraction(1, 2), Fraction(1), Fraction(2), Fraction(3)]
    nus = [Fraction(0), Fraction(1, 2), Fraction(1), Fraction(2), Fraction(3),
           Fraction(9, 2), Fraction(6)]
    out = []
    for _ in range(count):
        spectrum = tuple(sorted(rng.sample(nus, rng.randrange(1, 4))))
        out.append(IndicialFamily(rng.choice(lams), rng.choice(cs), spectrum))
    return out


def test_roots_symmetric_about_minus_half():
    for fam in random_rational_families(30):
        roots = spec_b_roots(fam)
        zs = sorted(float(r.z) for r in roots)
        for z in zs:
            mirror = -1.0 - z
            assert any(abs(float(r.z) - mirror) < 1e-12 for r in roots)


def test_positive_shift_root_split():
    # lam > 0: each eigenvalue has exactly one root above 0 and one below -1
    for fam in random_rational_families(30, seed=7):
        if float(fam.lam) <= 0:
            continue
        roots = spec_b_roots(fam)
        per_eig = {}
        for r in roots:
            per_eig.setdefault(r.eigenvalue_index, []).append(float(r.z))
        for zs in per_eig.values():
            assert sum(1 for z in zs if z > 0) == 1
            assert sum(1 for z in zs if z < -1) == 1


def test_hat_eplus_contains_closure_of_eplus():
    for fam in random_rational_families(30, seed=99):
        E = index_set_Eplus(fam, 0, 4)
        hatE = index_set_hatEplus(fam, 0, 4)
        assert set(closure(E.terms, 4).pairs()) <= set(hatE.pairs())


def test_eplus_treats_a_root_within_tolerance_of_zero_as_zero():
    # the root 1e-13 is within EXPONENT_TOL of alpha = 0, so not above it
    near_zero = IndicialFamily(1e-13, 1.0, (0,))
    assert index_set_Eplus(near_zero, 0, 2).terms == ()


#: shifted roots near 2 at 2 - 8e-13 (from -1 - 8e-13, which is not above
#: alpha = -1), 2 + 1.6e-13 and 2 + 8e-13: a chain of tolerance coincidences
TOLERANCE_CHAIN_FAMILY = IndicialFamily(4e-13, 1, (0, Fraction(1, 3), 2, Fraction(5, 2), 3),
                                        (1, 2, 1, 2, 2))


def test_hat_eplus_tolerance_chain_is_one_exponent():
    E = index_set_hatEplus(TOLERANCE_CHAIN_FAMILY, -1, 4)
    for n in (2, 3):
        near = [tm for tm in E if abs(float(tm.z) - n) <= 2e-12]
        assert len({tm.z for tm in near}) == 1, near
        assert sorted(tm.k for tm in near) == [0, 1]
    assert E.is_closed()


def test_deterministic_enumeration():
    fam = IndicialFamily(1, 1, (0, 2))
    a = index_set_hatEplus(fam, 0, 3).pairs()
    b = index_set_hatEplus(fam, 0, 3).pairs()
    assert a == b


def brute_force_hat_eplus(roots, alpha, cutoff, tol=1e-12):
    """Independent oracle: exhaustive r-shift enumeration of (z, k) pairs
    in plain float arithmetic from a (root, order) list."""
    def order_at(z):
        for z0, order in roots:
            if abs(z - z0) <= tol:
                return order
        return 0

    pairs = set()
    for z0, _ in roots:
        shift = 0
        while z0 + shift <= cutoff + tol:
            z = z0 + shift
            best = 0
            for r in range(0, int(cutoff - alpha) + 3):
                if z <= alpha + r + tol:
                    continue
                if order_at(z - r) == 0:
                    continue
                best = max(best, sum(order_at(z - j) for j in range(r + 1)))
            for k in range(best):
                pairs.add((round(z, 9), k))
            shift += 1
    return pairs


def random_real_families(count, seed):
    """Irrational (c = 3) and float (lam = 0.7) families: roots are floats."""
    rng = random.Random(seed)
    out = []
    for fam in random_rational_families(count, seed=seed):
        if rng.random() < 0.5:
            out.append(IndicialFamily(fam.lam, 3, fam.spectrum))
        else:
            out.append(IndicialFamily(0.7, float(fam.c), fam.spectrum))
    return out


def test_hat_eplus_matches_brute_force_oracle():
    families = random_rational_families(40, seed=321) + random_real_families(40, seed=654)
    for fam in families:
        roots = [(float(r.z), r.order) for r in spec_b_roots(fam)]
        for alpha in (0, Fraction(-3, 2), Fraction(1, 2)):
            got = {(round(z, 9), k)
                   for z, k in index_set_hatEplus(fam, alpha, 4).pairs()}
            expected = brute_force_hat_eplus(roots, float(alpha), 4.0)
            assert got == expected, (fam, alpha, sorted(got), sorted(expected))


def test_float_family_index_algebra_properties():
    """Closure idempotence, a closed Ê+ and a commutative extended union
    containing its inputs, on families whose roots are floats."""
    rng = random.Random(4242)
    for i, fam in enumerate(random_rational_families(200, seed=4242)):
        mult = tuple(rng.randrange(1, 4) for _ in fam.spectrum)
        if i % 2:
            fam = IndicialFamily(0.7, rng.choice([Fraction(1, 2), 1, 2]), fam.spectrum, mult)
        else:
            fam = IndicialFamily(rng.choice([0, 1, Fraction(5, 2)]), 3, fam.spectrum, mult)
        alpha = rng.choice([0, Fraction(-3, 2), Fraction(1, 2), -1.0])
        cutoff = rng.choice([Fraction(3), Fraction(7, 2), 5.5])
        hatE = index_set_hatEplus(fam, alpha, cutoff)
        assert hatE.is_closed(), fam
        pool = [r.z for r in spec_b_roots(fam)] + [Fraction(1), Fraction(3, 2)]
        C = closure(tuple(IndexTerm(rng.choice(pool), rng.randrange(3))
                          for _ in range(rng.randrange(1, 4))), cutoff)
        for S in (C, closure(index_set_Eplus(fam, alpha, cutoff).terms, cutoff)):
            assert repr(closure(S.terms, cutoff)) == repr(S), fam
        U = extended_union(hatE, C)
        assert repr(U) == repr(extended_union(C, hatE)), fam
        assert all(U.contains(tm.z, tm.k) for tm in hatE.terms + C.terms), fam


@pytest.mark.parametrize("lam, c, nu", [
    (Fraction(10 ** 308), 1, 0),        # exact: once an OverflowError from spec_b_roots
    (1, 1, 1e308),                      # float: once roots of -inf and inf
    (1e308, 1e-300, 0),
    (1, Fraction(1, 10 ** 400), 0),     # once refused as "c must be positive"
    (1.5, Fraction(1, 10 ** 400), 0),   # a float lambda over a c that floats to 0
])
def test_discriminant_must_be_a_finite_float(lam, c, nu):
    with pytest.raises(ValueError, match=r"discriminant 2\(lambda \+ nu\)/c \+ 1/4 .* "
                                         r"not a finite float"):
        IndicialFamily(lam, c, (nu,))


def test_signs_of_c_and_nu_are_compared_exactly():
    tiny = Fraction(1, 10 ** 400)   # floats to 0
    roots = spec_b_roots(IndicialFamily(0, tiny, (0,)))   # discriminant exactly 1/4
    assert [r.z for r in roots] == [-1, 0]
    roots = spec_b_roots(IndicialFamily(-0.5, tiny, (0.5,)))   # in float arithmetic
    assert [r.z for r in roots] == [-1, 0]
    with pytest.raises(ValueError, match="spectrum values must be >= 0"):
        IndicialFamily(1, 1, (-tiny,))
