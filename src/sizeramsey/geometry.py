"""Finite fields GF(p^k) and affine planes AG(2, q), built from scratch.

Fields are represented on the element set 0..q-1.  An element of GF(p^k)
encodes the coefficients of a polynomial over GF(p) of degree below k in
base-p digits (low-order digit = constant term), so for prime q it is the
residue mod p.  Both q x q tables are built directly: addition digit by
digit mod p, multiplication by shifting digits up and folding the top
digit back through the modulus x^k + low(x), the lexicographically first
monic irreducible of degree k (see make_field).  Negation and inverse
tables are read off them, so every field operation is a lookup.  All four
are cheap for the supported range q <= 64 and built once per field.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

from .errors import DomainError

__all__ = [
    "MAX_FIELD_SIZE",
    "prime_power_decompose",
    "is_prime_power",
    "FiniteField",
    "make_field",
    "AffinePlane",
    "make_affine_plane",
    "q_for_ramsey",
    "q_for_partition",
]

MAX_FIELD_SIZE = 64


def prime_power_decompose(q: int) -> tuple[int, int] | None:
    """(p, k) with q = p**k and p prime, or None if q is not a prime power."""
    if q < 2:
        raise DomainError(f"prime power query needs q >= 2, got {q}")
    # the least divisor above 1; q itself when q is prime
    p = next((c for c in range(2, math.isqrt(q) + 1) if q % c == 0), q)
    k = 0
    rest = q
    while rest % p == 0:
        rest //= p
        k += 1
    return (p, k) if rest == 1 else None


def is_prime_power(q: int) -> bool:
    return prime_power_decompose(q) is not None


@dataclass(frozen=True)
class FiniteField:
    """GF(q) on elements 0..q-1 with precomputed operation tables."""

    q: int
    p: int
    k: int
    modulus: tuple[int, ...] | None
    _add: tuple[tuple[int, ...], ...] = field(repr=False)
    _mul: tuple[tuple[int, ...], ...] = field(repr=False)
    _neg: tuple[int, ...] = field(repr=False)
    # _inv[0] is a placeholder: zero has no inverse
    _inv: tuple[int, ...] = field(repr=False)

    def add(self, a: int, b: int) -> int:
        return self._add[a][b]

    def mul(self, a: int, b: int) -> int:
        return self._mul[a][b]

    def sub(self, a: int, b: int) -> int:
        return self._add[a][self._neg[b]]

    def inv(self, a: int) -> int:
        if a == 0:
            raise DomainError("zero has no multiplicative inverse")
        return self._inv[a]

    def div(self, a: int, b: int) -> int:
        return self.mul(a, self.inv(b))


_FIELD_CACHE: dict[int, FiniteField] = {}


def _quotient_mul(add: tuple[tuple[int, ...], ...], times_x: list[int], p: int
                  ) -> tuple[tuple[int, ...], ...] | None:
    """Multiplication table of the quotient ring whose multiplication by x
    is times_x, or None as soon as a nonzero row holds no 1, i.e. some
    nonzero element has no inverse and the ring is not a field."""
    q = len(add)
    rows = []
    for a in range(q):
        # b = b % p + x*(b // p), and b // p < b once b >= p
        row = [0]
        for b in range(1, q):
            row.append(add[row[-1]][a] if b < p
                       else add[times_x[row[b // p]]][row[b % p]])
        if a and 1 not in row:
            return None
        rows.append(tuple(row))
    return tuple(rows)


def make_field(q: int) -> FiniteField:
    """Construct GF(q); q must be a prime power with q <= MAX_FIELD_SIZE.

    Candidate moduli x^k + low(x) are tried in increasing order of low's
    base-p code, and the first whose quotient ring is a field is kept:
    F_p[x]/(f) is a field exactly when f is irreducible.
    """
    if q in _FIELD_CACHE:
        return _FIELD_CACHE[q]
    if q < 2 or q > MAX_FIELD_SIZE:
        raise DomainError(f"field size must be in [2, {MAX_FIELD_SIZE}], got {q}")
    pk = prime_power_decompose(q)
    if pk is None:
        raise DomainError(f"{q} is not a prime power")
    p, k = pk
    digits = [[a // p ** i % p for i in range(k)] for a in range(q)]

    def code(ds: list[int]) -> int:
        return sum(d * p ** i for i, d in enumerate(ds))

    add = tuple(tuple(code([(x + y) % p for x, y in zip(da, db)])
                      for db in digits) for da in digits)
    for low in digits:
        # x*a shifts a's digits up and folds the top one back: x^k = -low(x)
        times_x = [code([(s - d[-1] * c) % p for s, c in zip([0] + d[:-1], low)])
                   for d in digits]
        mul = _quotient_mul(add, times_x, p)
        if mul is not None:
            break
    else:
        raise AssertionError(f"no irreducible polynomial of degree {k} over GF({p})")
    modulus = tuple(low) + (1,) if k > 1 else None
    # every row of add holds a 0, and every nonzero row of mul a 1
    neg = tuple(row.index(0) for row in add)
    inv = (0,) + tuple(row.index(1) for row in mul[1:])
    fieldobj = FiniteField(q, p, k, modulus, add, mul, neg, inv)
    _FIELD_CACHE[q] = fieldobj
    return fieldobj


# ---------------------------------------------------------------------------
# affine planes


@dataclass(frozen=True)
class AffinePlane:
    """AG(2, q): q^2 points, q^2 + q lines, q + 1 parallel classes.

    Point (x, y) has index x*q + y.  Parallel classes 0..q-1 collect the
    lines y = m*x + b of slope m; class q holds the vertical lines x = c.
    """

    q: int
    field: FiniteField
    lines: tuple[frozenset[int], ...]
    classes: tuple[tuple[int, ...], ...]

    @property
    def point_count(self) -> int:
        return self.q * self.q

    def class_of_pair(self, p1: int, p2: int) -> int:
        """Parallel-class index of the unique line through two distinct points."""
        if p1 == p2:
            raise DomainError("two distinct points are required")
        f = self.field
        q = self.q
        x1, y1 = divmod(p1, q)
        x2, y2 = divmod(p2, q)
        if x1 == x2:
            return q
        slope = f.div(f.sub(y2, y1), f.sub(x2, x1))
        return slope

    def line_through(self, p1: int, p2: int) -> tuple[int, int]:
        """(line index, class index) for the unique line through two points."""
        cls = self.class_of_pair(p1, p2)
        f = self.field
        q = self.q
        x1, y1 = divmod(p1, q)
        if cls == q:
            return self.classes[q][x1], q
        # b = y1 - slope*x1 identifies the line within its class
        b = f.sub(y1, f.mul(cls, x1))
        return self.classes[cls][b], cls


def make_affine_plane(q: int) -> AffinePlane:
    """Build AG(2, q) over GF(q)."""
    f = make_field(q)
    lines: list[frozenset[int]] = []
    classes: list[tuple[int, ...]] = []
    for m in range(q):
        ids = []
        for b in range(q):
            pts = frozenset(
                x * q + f.add(f.mul(m, x), b) for x in range(q)
            )
            ids.append(len(lines))
            lines.append(pts)
        classes.append(tuple(ids))
    vertical_ids = []
    for c in range(q):
        pts = frozenset(c * q + y for y in range(q))
        vertical_ids.append(len(lines))
        lines.append(pts)
    classes.append(tuple(vertical_ids))
    return AffinePlane(q, f, tuple(lines), tuple(classes))


# ---------------------------------------------------------------------------
# parameter selection for the coloring constructions


def q_for_ramsey(r: int) -> int:
    """Smallest prime power in [ceil((r+1)/2), r-1]; needs r >= 3.

    Bertrand's postulate guarantees a prime in the window, so the scan
    cannot run off the end.
    """
    if r < 3:
        raise DomainError(f"q_for_ramsey needs r >= 3, got {r}")
    lo = (r + 2) // 2
    for q in range(lo, r):
        if is_prime_power(q):
            return q
    raise AssertionError(f"no prime power in [{lo}, {r - 1}]")


def q_for_partition(r: int) -> int:
    """Smallest prime power >= r; needs r >= 2.  Always at most 2r - 2."""
    if r < 2:
        raise DomainError(f"q_for_partition needs r >= 2, got {r}")
    q = r
    while not is_prime_power(q):
        q += 1
    if q > 2 * r - 2:
        raise AssertionError(f"prime power gap violation at r={r}")
    return q
