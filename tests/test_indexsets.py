"""Index-set algebra: closure rules, extended unions, serialization."""

import random
import time
from fractions import Fraction

import pytest

from cuspasym import indexsets
from cuspasym.indexsets import (
    IndexSet,
    IndexTerm,
    as_exponent,
    closure,
    extended_union,
    exponents_equal,
)
from cuspasym.indicial import IndicialFamily, index_set_hatEplus


def pairs(s):
    return set(s.pairs())


def test_closure_of_log_generator():
    C = closure((IndexTerm(1, 1),), 3)
    assert C.pairs() == [(1.0, 0), (1.0, 1), (2.0, 0), (2.0, 1), (3.0, 0), (3.0, 1)]
    assert C.is_closed()


def test_closure_of_empty_set():
    C = closure((), 5)
    assert C.pairs() == []
    assert C.is_closed()


def test_closure_smooth_index_set():
    # the smooth expansion set N0 x {0}, truncated
    C = closure((IndexTerm(0, 0),), 2)
    assert C.pairs() == [(0.0, 0), (1.0, 0), (2.0, 0)]


def test_closure_idempotent():
    C = closure((IndexTerm(Fraction(1, 2), 2), IndexTerm(1, 0)), 4)
    again = closure(C.terms, 4)
    assert again.pairs() == C.pairs()


def test_extended_union_stacks_logs():
    A = closure((IndexTerm(1, 0),), 3)
    B = closure((IndexTerm(1, 0),), 3)
    U = extended_union(A, B)
    assert U.contains(1, 0) and U.contains(1, 1)
    assert U.is_closed()


def test_extended_union_with_empty_is_identity():
    A = closure((IndexTerm(1, 0), IndexTerm(Fraction(5, 2), 1)), 4)
    E = IndexSet((), 4)
    assert pairs(extended_union(E, A)) == pairs(A)
    assert pairs(extended_union(A, E)) == pairs(A)


def test_extended_union_adds_l1_plus_l2_plus_1():
    A = closure((IndexTerm(1, 1),), 3)
    B = closure((IndexTerm(1, 0),), 3)
    U = extended_union(A, B)
    assert U.contains(1, 2) and U.contains(1, 1) and U.contains(1, 0)


def test_extended_union_mismatched_cutoffs_rejected():
    A = closure((IndexTerm(1, 0),), 3)
    B = closure((IndexTerm(1, 0),), 4)
    with pytest.raises(ValueError, match="cutoff"):
        extended_union(A, B)


def test_extended_union_commutative_and_contains_union():
    rng = random.Random(20240817)
    choices = [Fraction(0), Fraction(1, 2), Fraction(1), Fraction(3, 2),
               Fraction(2), Fraction(7, 3)]
    for _ in range(25):
        gens_a = tuple(IndexTerm(rng.choice(choices), rng.randrange(3))
                       for _ in range(rng.randrange(1, 4)))
        gens_b = tuple(IndexTerm(rng.choice(choices), rng.randrange(3))
                       for _ in range(rng.randrange(1, 4)))
        A, B = closure(gens_a, 4), closure(gens_b, 4)
        U1, U2 = extended_union(A, B), extended_union(B, A)
        assert pairs(U1) == pairs(U2)
        assert pairs(A) | pairs(B) <= pairs(U1)


def test_canonical_merge_prefers_exact_exponent():
    S = IndexSet((IndexTerm(1.0 + 1e-14, 0), IndexTerm(Fraction(1), 1)), 2)
    zs = {tm.z for tm in S.terms}
    assert zs == {Fraction(1)}
    assert S.contains(1, 0) and S.contains(1, 1)


def test_exponent_equality_tolerance():
    assert exponents_equal(1.0, 1.0 + 5e-13)
    assert not exponents_equal(1.0, 1.0 + 5e-12)
    assert exponents_equal(Fraction(1, 3), Fraction(1, 3))
    assert not exponents_equal(Fraction(1, 3), Fraction(1, 3) + Fraction(1, 10**15))


def test_term_validation():
    with pytest.raises(ValueError):
        IndexTerm(1, -1)
    with pytest.raises(ValueError):
        IndexTerm(float("inf"), 0)


def test_a_term_hashes_as_its_pair_and_hashes_its_exponent_once():
    hashed = []

    class CountingFraction(Fraction):
        def __hash__(self):
            hashed.append(self)
            return super().__hash__()

    term = IndexTerm(CountingFraction(3, 2), 1)
    assert hash(term) == hash(term) == hash((Fraction(3, 2), 1)) and len(hashed) == 1
    for z, k in ((Fraction(3, 2), 1), (2, 0), (0.25, 3), (1 / 3, 0)):
        assert hash(IndexTerm(z, k)) == hash((as_exponent(z), k))
    # equal terms, one exact and one float, are one cache key
    assert IndexTerm(0.5, 2) == IndexTerm(Fraction(1, 2), 2)
    assert hash(IndexTerm(0.5, 2)) == hash(IndexTerm(Fraction(1, 2), 2))
    assert len({IndexTerm(0.5, 2), IndexTerm(Fraction(1, 2), 2)}) == 1


def test_terms_beyond_cutoff_rejected():
    with pytest.raises(ValueError, match="cutoff"):
        IndexSet((IndexTerm(5, 0),), 3)


def test_json_round_trip_sorted():
    S = closure((IndexTerm(Fraction(1, 2), 1), IndexTerm(2, 0)), 3)
    data = S.to_json_dict()
    assert data["cutoff"] == 3.0
    keys = [(item["z"], item["k"]) for item in data["terms"]]
    assert keys == sorted(keys)
    back = IndexSet.from_json_dict(data)
    assert pairs(back) == pairs(S)


def test_enumeration_deterministic():
    gens = (IndexTerm(Fraction(1, 2), 1), IndexTerm(1, 0), IndexTerm(2, 2))
    a = closure(gens, 4).pairs()
    b = closure(tuple(reversed(gens)), 4).pairs()
    assert a == b


def brute_force_extended_union(a_pairs, b_pairs, cutoff, tol=1e-12):
    """Independent oracle: the defining set formula plus exhaustive closure,
    all in plain float arithmetic."""
    out = set(a_pairs) | set(b_pairs)
    for z1, k1 in a_pairs:
        for z2, k2 in b_pairs:
            if abs(z1 - z2) <= tol:
                out.add((z1, k1 + k2 + 1))
    changed = True
    while changed:
        changed = False
        for z, k in list(out):
            if z + 1 <= cutoff + tol and (z + 1, k) not in out:
                out.add((z + 1, k))
                changed = True
            if k > 0 and (z, k - 1) not in out:
                out.add((z, k - 1))
                changed = True
    return out


def test_extended_union_matches_brute_force_oracle():
    rng = random.Random(424242)
    choices = [0.0, 0.5, 1.0, 1.5, 2.0, 2.5]
    for _ in range(40):
        gens_a = tuple(IndexTerm(rng.choice(choices), rng.randrange(3))
                       for _ in range(rng.randrange(1, 4)))
        gens_b = tuple(IndexTerm(rng.choice(choices), rng.randrange(3))
                       for _ in range(rng.randrange(1, 4)))
        A, B = closure(gens_a, 4), closure(gens_b, 4)
        got = set(extended_union(A, B).pairs())
        expected = brute_force_extended_union(A.pairs(), B.pairs(), 4.0)
        assert got == expected


def test_extended_union_of_stacked_hat_eplus_is_near_linear():
    # lambda = c = 1 and nu_j = j(j+3)/2 give the roots 1, 2, ..., 12 above
    # alpha = -1, one integer apart, so every exponent stacks log powers
    fam = IndicialFamily(1, 1, tuple(Fraction(j * (j + 3), 2) for j in range(12)))
    E = index_set_hatEplus(fam, -1, 8)
    U = extended_union(E, E)
    assert set(U.pairs()) == brute_force_extended_union(E.pairs(), E.pairs(), 8.0)
    assert len(U) == 72
    E = index_set_hatEplus(fam, -1, 32)
    start = time.perf_counter()
    U = extended_union(E, E)
    elapsed = time.perf_counter() - start
    assert len(U) == 636 and U.is_closed()
    assert elapsed < 1.0, f"extended_union took {elapsed:.2f} s at cutoff 32"


def brute_force_is_closed(s_pairs, cutoff, tol=1e-12):
    """Independent oracle: both closure rules checked term by term in plain
    float arithmetic."""
    def has(z, k):
        return any(k2 == k and abs(z2 - z) <= tol for z2, k2 in s_pairs)

    return all((k == 0 or has(z, k - 1)) and (z + 1 > cutoff + tol or has(z + 1, k))
               for z, k in s_pairs)


def test_is_closed_matches_brute_force_oracle():
    rng = random.Random(777)
    # float exponents within 4e-13 of an exact one merge with it
    choices = [Fraction(0), Fraction(1, 2), Fraction(1), Fraction(7, 3), 1.0 + 4e-13,
               2.0 - 3e-13, 0.5 + 2e-13, 0.7, 1.25]
    seen = set()
    for _ in range(300):
        cutoff = rng.choice([Fraction(3), Fraction(7, 2), 4.5])
        gens = tuple(IndexTerm(rng.choice(choices), rng.randrange(3))
                     for _ in range(rng.randrange(1, 4)))
        drop = rng.choice([0.0, 0.1, 0.3])
        S = IndexSet(tuple(tm for tm in closure(gens, cutoff) if rng.random() >= drop),
                     cutoff)
        expected = brute_force_is_closed(S.pairs(), float(cutoff))
        assert S.is_closed() == expected, (S, expected)
        seen.add(expected)
    assert seen == {True, False}


def test_a_chain_longer_than_the_shift_bound_is_refused_before_it_is_followed():
    # a cutoff of 1e308 once never returned, its memory growing all the time
    bound = indexsets._MAX_SHIFTS
    assert len(closure((IndexTerm(1, 0),), 1 + bound)) == bound + 1
    for cutoff in (2 + bound, 1e308, Fraction(10 ** 300, 3)):
        with pytest.raises(ValueError, match=f"cutoff .* more than {bound} integer shifts"):
            closure((IndexTerm(1, 0), IndexTerm(Fraction(5, 2), 1)), cutoff)


def test_an_exponent_needs_a_finite_float_value():
    # an exact 10^400 once passed, then failed as an OverflowError wherever it was floated
    assert indexsets.as_exponent(10 ** 308) == 10 ** 308
    for value in (10 ** 400, Fraction(-(10 ** 400), 7), float("nan")):
        with pytest.raises(ValueError, match="exponent must be finite"):
            indexsets.as_exponent(value)
