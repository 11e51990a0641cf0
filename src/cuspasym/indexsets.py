"""Index sets for polyhomogeneous expansions.

An index set prescribes which terms x^z (log x)^k may occur in an
asymptotic expansion at x = 0.  Sets are kept closed under the two
generation rules

    (z, k) present  =>  (z + p, k) present for every integer p >= 1,
    (z, k) present  =>  (z, j) present for every 0 <= j <= k,

and enumerated only up to a finite cutoff order, since the full sets are
infinite.  Exponents are exact ``fractions.Fraction`` values whenever the
input data is rational and stays rational, and floats otherwise; float
exponents are compared with an absolute tolerance so that coincidence
decisions (which drive log-term stacking) are not corrupted by roundoff.
This module is the one owner of that rule: code elsewhere that decides
whether exponents coincide or order calls :func:`exponents_equal` or
:func:`exponent_gt` and applies no tolerance of its own.
"""

from __future__ import annotations

import heapq
import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Iterable, Iterator, Union

Exponent = Union[Fraction, float]

#: Tolerance for deciding that two float exponents coincide.
EXPONENT_TOL = 1e-12
#: the most integer shifts a chain may take from its head to the cutoff (see
#: ``sweep_shifts``); ``indicial`` on one chain to that cutoff (lambda = c = 1,
#: spectrum 0) takes about 1 s in-process on a 2-vCPU shared Xeon
_MAX_SHIFTS = 25_000


def as_exponent(value) -> Exponent:
    """Normalize a number to an exact Fraction when possible, else float.
    Either kind must have a finite float value: exponents are ordered and
    written as floats."""
    if isinstance(value, int):
        value = Fraction(value)
    if isinstance(value, Fraction):
        try:
            float(value)
        except OverflowError:
            raise ValueError("exponent must be finite, got a rational beyond "
                             "the float range") from None
        return value
    value = float(value)
    if not math.isfinite(value):
        raise ValueError(f"exponent must be finite, got {value!r}")
    return value


def is_exact(value) -> bool:
    """Rationals (``Fraction`` or ``int``) compare exactly, floats do not."""
    return isinstance(value, (Fraction, int))


def exponents_equal(a, b) -> bool:
    """Exact comparison on rationals, tolerance comparison otherwise."""
    if is_exact(a) and is_exact(b):
        return a == b
    return abs(float(a) - float(b)) <= EXPONENT_TOL


def exponent_gt(a, b) -> bool:
    """Strict a > b, treating within-tolerance float values as equal."""
    if is_exact(a) and is_exact(b):
        return a > b
    return not exponents_equal(a, b) and float(a) > float(b)


def rational_sqrt(q: Fraction) -> Fraction | None:
    """Exact square root of a nonnegative rational, or None if irrational."""
    if q < 0:
        raise ValueError("rational_sqrt requires a nonnegative argument")
    num, den = q.numerator, q.denominator
    rn, rd = math.isqrt(num), math.isqrt(den)
    if rn * rn == num and rd * rd == den:
        return Fraction(rn, rd)
    return None


@dataclass(frozen=True)
class IndexTerm:
    """One admissible term x^z (log x)^k: exponent z and log power k >= 0.
    Its hash, that of (z, k), is taken once: cached fit designs are looked
    up by their terms, and a ``Fraction`` hashes slowly."""

    z: Exponent
    k: int

    def __post_init__(self):
        object.__setattr__(self, "z", as_exponent(self.z))
        if not isinstance(self.k, int) or self.k < 0:
            raise ValueError(f"log power k must be a nonnegative integer, got {self.k!r}")
        object.__setattr__(self, "_hash", hash((self.z, self.k)))

    def __hash__(self) -> int:
        return self._hash


def _heap(pairs: Iterable[tuple]) -> list:
    """Entries ``(float(z), base, p, value)``, z = base + p, for pairs (z, value)."""
    heap = [(float(z), z, 0, value) for z, value in pairs]
    heapq.heapify(heap)
    return heap


def _clusters(heap: list) -> Iterator[tuple]:
    """Pop ``heap`` one cluster of coinciding exponents at a time, ascending,
    as ``(base, p, values)``; entries pushed between yields are seen.  Each
    entry is compared with the representative: the first entry popped, or
    the first exact member, so that arithmetic stays rational."""
    while heap:
        _, base, p, value = heapq.heappop(heap)
        z, values = base + p, [value]
        while heap and exponents_equal(z, heap[0][1] + heap[0][2]):
            _, b, q, value = heapq.heappop(heap)
            if is_exact(b) and not is_exact(z):
                base, p, z = b, q, b + q
            values.append(value)
        yield base, p, values


def sweep_shifts(heads: Iterable[tuple], cutoff, combine) -> Iterator[tuple]:
    """``(z, combine(values))`` for each exponent z <= cutoff, ascending, of
    the chains z, z + 1, ... from ``heads``, pairs (z, value).  The values
    at z are its heads' and the one carried up from z - 1.  A cutoff more
    than ``_MAX_SHIFTS`` above the lowest head is a ValueError, raised
    before any chain is followed."""
    heap = _heap(heads)
    if heap and cutoff > heap[0][1] + _MAX_SHIFTS:   # exact, a float against a Fraction too
        raise ValueError(f"cutoff {cutoff} lies more than {_MAX_SHIFTS} integer shifts "
                         f"above the lowest exponent {heap[0][1]}")
    for base, p, values in _clusters(heap):
        z = base + p
        if exponent_gt(z, cutoff):
            return
        value = combine(values)
        heapq.heappush(heap, (float(base + (p + 1)), base, p + 1, value))
        yield z, value


def _canonical_terms(terms: Iterable[IndexTerm]) -> tuple[IndexTerm, ...]:
    """Sort, merge exponents that coincide within tolerance, and dedup: a
    :func:`_clusters` sweep with no pushes, so each base is its exponent.
    A scan over all clusters agrees when representatives are > 2 EXPONENT_TOL apart."""
    return tuple(IndexTerm(z, k)
                 for z, _, ks in _clusters(_heap((tm.z, tm.k) for tm in terms))
                 for k in sorted(set(ks)))


@dataclass(frozen=True)
class IndexSet:
    """A finite enumeration of admissible (z, k) pairs up to a cutoff order.

    ``terms`` is the canonical sorted enumeration.  Sets produced by
    :func:`closure`, :func:`extended_union` and the indicial-root machinery
    satisfy both closure rules up to the cutoff; the raw pole enumeration
    (see ``index_set_Eplus``) is deliberately not closed and says so.
    """

    terms: tuple[IndexTerm, ...]
    cutoff: Exponent

    def __post_init__(self):
        object.__setattr__(self, "cutoff", as_exponent(self.cutoff))
        object.__setattr__(self, "terms", _canonical_terms(self.terms))
        for tm in self.terms:
            if exponent_gt(tm.z, self.cutoff):
                raise ValueError(
                    f"term {tm} exceeds the enumeration cutoff {self.cutoff}")

    def __iter__(self) -> Iterator[IndexTerm]:
        return iter(self.terms)

    def __len__(self) -> int:
        return len(self.terms)

    def contains(self, z, k: int) -> bool:
        z = as_exponent(z)
        return any(tm.k == k and exponents_equal(tm.z, z) for tm in self.terms)

    def pairs(self) -> list[tuple[float, int]]:
        return [(float(tm.z), tm.k) for tm in self.terms]

    def is_closed(self) -> bool:
        """Check both closure rules on the enumeration up to the cutoff."""
        return len(closure(self.terms, self.cutoff)) == len(self)

    def to_json_dict(self) -> dict:
        return {
            "cutoff": float(self.cutoff),
            "terms": [{"z": float(tm.z), "k": tm.k} for tm in self.terms],
        }

    @classmethod
    def from_json_dict(cls, data: dict) -> "IndexSet":
        """Inverse of :meth:`to_json_dict`.  A ValueError names the field
        (``terms``, ``terms[i].z``, ``terms[i].k``, ``cutoff``) that is
        missing or ill-typed."""
        terms = tuple(IndexTerm(_json_field(item, f"terms[{i}]", "z", as_exponent),
                                _json_field(item, f"terms[{i}]", "k", _json_int))
                      for i, item in enumerate(_json_field(data, "", "terms", _json_list)))
        return cls(terms, _json_field(data, "", "cutoff", as_exponent))


def _json_list(value) -> list:
    if not isinstance(value, list):
        raise TypeError(f"expected a list, got {type(value).__name__}")
    return value


def _json_int(value) -> int:
    if type(value) is not int:  # bool is an int subclass, and no JSON integer
        raise TypeError(f"expected an integer, got {value!r}")
    return value


def _json_field(obj, where: str, key: str, parse):
    """``parse(obj[key])`` for the JSON object ``obj`` found at ``where``
    ("" for the top level); a ValueError names the field when ``obj`` is no
    object, lacks ``key`` or ``parse`` rejects the value."""
    if not isinstance(obj, dict):
        raise ValueError(f"{where or 'the top level'} must be a JSON object, "
                         f"got {type(obj).__name__}")
    name = f"{where}.{key}" if where else key
    if key not in obj:
        raise ValueError(f"missing field '{name}'")
    try:
        return parse(obj[key])
    except (TypeError, ValueError) as exc:
        raise ValueError(f"ill-typed field '{name}': {exc}") from None


def closure(terms: Iterable[IndexTerm], cutoff) -> IndexSet:
    """Smallest index set containing ``terms``, enumerated up to ``cutoff``:
    one ascending sweep carries the largest log power met on the chains
    into each exponent, and every lower power is listed with it."""
    cutoff = as_exponent(cutoff)
    tops = sweep_shifts(((tm.z, tm.k) for tm in terms), cutoff, max)
    return IndexSet(tuple(IndexTerm(z, k) for z, top in tops for k in range(top + 1)),
                    cutoff)


def extended_union(E: IndexSet, F: IndexSet) -> IndexSet:
    """Union of two index sets plus log-stacked terms at shared exponents.

    Wherever an exponent z occurs in both sets, with top log powers l1 and
    l2, the term (z, l1 + l2 + 1) is added; the result is re-closed up to
    the common cutoff.  Commutative, and always contains the plain union.
    """
    if not exponents_equal(E.cutoff, F.cutoff):
        raise ValueError(
            f"extended_union requires a common cutoff, got {E.cutoff} and {F.cutoff}")
    heads = []
    for z, _, values in _clusters(_heap((tm.z, (side, tm.k))
                                        for side, S in enumerate((E, F)) for tm in S)):
        # the largest log power at z in E and in F, -1 where a set has none
        top = [max((k for s, k in values if s == side), default=-1) for side in (0, 1)]
        heads.append(IndexTerm(z, sum(top) + 1 if min(top) >= 0 else max(top)))
    return closure(heads, E.cutoff)
