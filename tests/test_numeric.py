"""Unit tests for the arithmetic primitives."""

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from polymulgen.errors import InexactDivision
from polymulgen.numeric import (
    INF,
    ArithMode,
    exact_div,
    fits,
    join,
    oracle_mul,
    signed_eval,
    split,
)


def test_oracle_integer_matches_product():
    rng = random.Random(11)
    for _ in range(200):
        a = rng.getrandbits(64)
        b = rng.getrandbits(64)
        assert oracle_mul(a, b) == a * b


def test_oracle_integer_examples():
    assert oracle_mul(0xAB, 0xCD) == 0x88EF
    assert oracle_mul(0, 12345) == 0
    assert oracle_mul(1, 12345) == 12345


def test_oracle_carryless_basics():
    # (x+1)*(x+1) = x^2+1 over GF(2)
    assert oracle_mul(0b11, 0b11, ArithMode.CARRYLESS) == 0b101
    assert oracle_mul(0b10, 0b11, ArithMode.CARRYLESS) == 0b110
    assert oracle_mul(0, 0xFF, ArithMode.CARRYLESS) == 0


def test_oracle_carryless_is_commutative_and_linear():
    rng = random.Random(12)
    for _ in range(100):
        a = rng.getrandbits(48)
        b = rng.getrandbits(48)
        c = rng.getrandbits(48)
        pa = oracle_mul(a, b, ArithMode.CARRYLESS)
        assert pa == oracle_mul(b, a, ArithMode.CARRYLESS)
        assert oracle_mul(a, b ^ c, ArithMode.CARRYLESS) == pa ^ oracle_mul(a, c, ArithMode.CARRYLESS)


def _clmul_bits(a: int, b: int) -> int:
    """Carry-less product by definition: one shifted copy of a per set bit of b."""
    acc = 0
    i = 0
    while b >> i:
        if (b >> i) & 1:
            acc ^= a << i
        i += 1
    return acc


def _corners(m: int) -> tuple:
    """The corner operands of tests/test_interp.py at width m >= 0."""
    if not m:
        return (0,)
    ones = (1 << m) - 1
    alt = int("01" * m, 2) & ones
    return (0, 1, ones, 1 << (m - 1), alt, ones ^ alt)


@st.composite
def _operand_pairs(draw):
    m = draw(st.integers(0, 1100))
    operand = st.sampled_from(_corners(m)) | st.integers(0, (1 << m) - 1)
    return draw(operand), draw(operand)


@settings(derandomize=True, max_examples=300, deadline=None)
@given(_operand_pairs())
def test_oracle_carryless_matches_bit_serial_property(pair):
    a, b = pair
    assert oracle_mul(a, b, ArithMode.CARRYLESS) == _clmul_bits(a, b)


@pytest.mark.parametrize("m", [1, 2, 3, 4, 5, 8, 13, 571, 1024])
def test_oracle_carryless_matches_bit_serial_on_corners(m):
    for a in _corners(m):
        for b in _corners(m):
            assert oracle_mul(a, b, ArithMode.CARRYLESS) == _clmul_bits(a, b), (m, a, b)


def test_oracle_rejects_negative():
    with pytest.raises(ValueError):
        oracle_mul(-1, 2)


def test_fits():
    assert fits(0, 1)
    assert fits(255, 8)
    assert not fits(256, 8)
    assert not fits(-1, 8)


def test_split_join_roundtrip():
    rng = random.Random(13)
    for _ in range(100):
        parts = rng.randint(1, 6)
        w = rng.randint(1, 40)
        v = rng.getrandbits(parts * w)
        limbs = split(v, parts, w)
        assert len(limbs) == parts
        assert all(0 <= x < (1 << w) for x in limbs)
        assert join(limbs, w) == v


def test_split_overflow():
    with pytest.raises(OverflowError):
        split(1 << 16, 2, 8)


def test_join_carryless_uses_xor():
    # overlapping limbs combine with XOR instead of carrying
    assert join([0b11, 0b11], 1, ArithMode.CARRYLESS) == 0b101
    assert join([0b11, 0b11], 1, ArithMode.INTEGER) == 9  # 3 + (3 << 1)


def test_exact_div():
    assert exact_div(21, 3) == 7
    assert exact_div(-35, 5) == -7
    assert exact_div(0, 3) == 0
    with pytest.raises(InexactDivision):
        exact_div(22, 3)


def test_signed_eval_points():
    limbs = [1, 2, 3]
    assert signed_eval(limbs, 0) == 1
    assert signed_eval(limbs, 1) == 6
    assert signed_eval(limbs, -1) == 2
    assert signed_eval(limbs, 2) == 17
    assert signed_eval(limbs, -2) == 9
    assert signed_eval(limbs, INF) == 3
