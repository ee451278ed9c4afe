"""Finite fields, affine planes, and the prime-power pickers.

The field axioms are checked exhaustively for every constructible order up
to 16, which covers both the prime case and the polynomial-quotient case
(4, 8, 9, 16).
"""

import hashlib
import itertools

import pytest

import helpers

from sizeramsey import (
    DomainError,
    MAX_FIELD_SIZE,
    is_prime_power,
    make_affine_plane,
    make_field,
    prime_power_decompose,
    q_for_partition,
    q_for_ramsey,
)

PRIME_POWERS_16 = [2, 3, 4, 5, 7, 8, 9, 11, 13, 16]


def test_prime_power_decompose():
    assert prime_power_decompose(8) == (2, 3)
    assert prime_power_decompose(9) == (3, 2)
    assert prime_power_decompose(7) == (7, 1)
    assert prime_power_decompose(12) is None
    with pytest.raises(DomainError):
        prime_power_decompose(1)
    assert is_prime_power(49)
    assert not is_prime_power(6)


@pytest.mark.parametrize("q", PRIME_POWERS_16)
def test_field_axioms_exhaustive(q):
    f = make_field(q)
    els = range(q)
    assert f.add(0, 1) == 1
    for a, b in itertools.product(els, els):
        assert f.add(a, b) == f.add(b, a)
        assert f.mul(a, b) == f.mul(b, a)
        assert f.sub(f.add(a, b), b) == a
        if b != 0:
            assert f.div(f.mul(a, b), b) == a
    for a, b, c in itertools.product(els, els, els):
        assert f.add(f.add(a, b), c) == f.add(a, f.add(b, c))
        assert f.mul(f.mul(a, b), c) == f.mul(a, f.mul(b, c))
        assert f.mul(a, f.add(b, c)) == f.add(f.mul(a, b), f.mul(a, c))
    for a in els:
        assert f.add(a, 0) == a
        assert f.mul(a, 1) == a
        assert f.add(a, f.sub(0, a)) == 0
        if a != 0:
            assert f.mul(a, f.inv(a)) == 1
            # the multiplicative group's order divides q-1
            power = 1
            for _ in range(q - 1):
                power = f.mul(power, a)
            assert power == 1


def test_field_characteristic():
    f = make_field(8)
    assert (f.p, f.k) == (2, 3)
    # adding one to itself p times returns to zero
    acc = 1
    for _ in range(f.p - 1):
        acc = f.add(acc, 1)
    assert f.add(acc, 0) != 0 or f.p == 2
    total = 0
    for _ in range(f.p):
        total = f.add(total, 1)
    assert total == 0


def test_fields_are_pinned():
    # one digest over every constructible field's order, characteristic,
    # degree, modulus and both tables; the modulus is the lexicographically
    # first monic irreducible, so the digest holds however it is found
    digest = hashlib.sha256()
    for q in range(2, MAX_FIELD_SIZE + 1):
        if is_prime_power(q):
            f = make_field(q)
            digest.update(repr((f.q, f.p, f.k, f.modulus, f._add, f._mul)).encode())
    assert digest.hexdigest() == (
        "3a80a3ff372d118ee51a016bfbdc081a92f2115f7b6bb67e4666b129935f8312")
    assert make_field(4).modulus == (1, 1, 1)  # x^2 + x + 1
    assert make_field(9).modulus == (1, 0, 1)  # x^2 + 1
    assert make_field(7).modulus is None


def test_make_field_rejects_bad_orders():
    with pytest.raises(DomainError):
        make_field(6)
    with pytest.raises(DomainError):
        make_field(1)
    with pytest.raises(DomainError):
        make_field(MAX_FIELD_SIZE + 1)
    with pytest.raises(DomainError):
        make_field(8).inv(0)


@pytest.mark.parametrize("q", [2, 3, 4, 5, 7, 8, 9])
def test_affine_plane_axioms(q):
    helpers.check_plane_axioms(make_affine_plane(q))


def test_class_of_pair_consistency():
    plane = make_affine_plane(3)
    for p1, p2 in itertools.combinations(range(9), 2):
        lid, cid = plane.line_through(p1, p2)
        assert plane.class_of_pair(p1, p2) == cid
        assert lid in plane.classes[cid]
    with pytest.raises(DomainError):
        plane.class_of_pair(4, 4)


def test_vertical_class_is_last():
    plane = make_affine_plane(4)
    q = plane.q
    # two points with the same x coordinate lie on a vertical line
    # point (x, y) has index x*q + y
    assert plane.class_of_pair(2 * q + 0, 2 * q + 3) == q
    assert plane.class_of_pair(0 * q + 1, 1 * q + 1) == 0


def test_make_affine_plane_rejects_non_prime_power():
    with pytest.raises(DomainError):
        make_affine_plane(6)


def test_q_for_ramsey():
    # smallest prime power q with (r+1)/2 <= q <= r-1
    assert q_for_ramsey(3) == 2
    assert q_for_ramsey(4) == 3
    assert q_for_ramsey(5) == 3
    assert q_for_ramsey(6) == 4
    assert q_for_ramsey(7) == 4
    assert q_for_ramsey(8) == 5
    for r in range(3, 40):
        q = q_for_ramsey(r)
        assert is_prime_power(q)
        assert 2 * q >= r + 1 and q <= r - 1
    with pytest.raises(DomainError):
        q_for_ramsey(2)


def test_q_for_partition():
    assert q_for_partition(2) == 2
    assert q_for_partition(5) == 5
    assert q_for_partition(6) == 7
    for r in range(2, 40):
        q = q_for_partition(r)
        assert is_prime_power(q)
        assert r <= q <= 2 * r - 2 or r == 2
