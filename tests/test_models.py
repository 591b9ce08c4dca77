"""Cycle-accurate behavioral model tests."""

import random
import types

import pytest

from polymulgen import models
from polymulgen.errors import BadDigit, BadParams, InternalInterpolationError
from polymulgen.generators import GenParams, generate
from polymulgen.models import (
    ArchKind,
    cycle_contract,
    run_digit_serial,
    run_karatsuba2,
    run_model,
    run_sbm,
    run_toom3,
    run_toom4,
    toom3_interpolate,
    toom4_interpolate,
)
from polymulgen.numeric import TOOM3_POINTS, TOOM4_POINTS, ArithMode, oracle_mul, signed_eval


def test_sbm_example():
    t = run_sbm(0xAB, 0xCD, 8)
    assert t.product == 0x88EF
    assert t.cycles == 8


def test_karatsuba_example():
    t = run_karatsuba2(0xAB, 0xCD, 8)
    assert t.product == 0x88EF
    assert t.cycles == 5
    assert t.sub_mults == 3


def test_toom3_max_operands():
    # worst case drives every interpolation divisor path
    t = run_toom3(0x3FFFF, 0x3FFFF, 18)
    assert t.product == 0x3FFFF * 0x3FFFF
    assert t.cycles == 8
    assert t.sub_mults == 5


def test_toom4_max_operands():
    t = run_toom4(0xFFFFFF, 0xFFFFFF, 24)
    assert t.product == 0xFFFFFF * 0xFFFFFF
    assert t.cycles == 9
    assert t.sub_mults == 7


def test_digit_serial_digit_count():
    t = run_digit_serial(0xFFFF, 0xFFFF, 16, 5)
    assert t.product == 0xFFFF * 0xFFFF
    assert t.cycles == 20  # ceil(16/5)=4 digits of 5 cycles
    assert t.sub_mults == 4


def test_digit_serial_degenerates_to_inner():
    t = run_digit_serial(0xAB, 0xCD, 8, 8)
    assert t.product == 0x88EF
    assert t.cycles == 8
    assert t.sub_mults == 1


def test_cycle_contracts():
    assert cycle_contract(ArchKind.SBM, 192) == 192
    assert cycle_contract(ArchKind.KARATSUBA2, 192) == 97
    assert cycle_contract(ArchKind.TOOM3, 192) == 66
    assert cycle_contract(ArchKind.TOOM4, 192) == 51
    assert cycle_contract(ArchKind.DIGIT_SERIAL, 521, 32) == 544
    assert cycle_contract(ArchKind.DIGIT_SERIAL, 1024, 64) == 1024


def test_cycle_contract_odd_widths():
    assert cycle_contract(ArchKind.KARATSUBA2, 163) == 83
    assert cycle_contract(ArchKind.TOOM3, 163) == 57
    assert cycle_contract(ArchKind.TOOM4, 163) == 44


def test_models_match_oracle_integer():
    rng = random.Random(21)
    for m in (8, 16, 24, 48, 64):
        for _ in range(50):
            a = rng.getrandbits(m)
            b = rng.getrandbits(m)
            want = oracle_mul(a, b)
            assert run_sbm(a, b, m).product == want
            assert run_karatsuba2(a, b, m).product == want
            assert run_toom3(a, b, m).product == want
            assert run_toom4(a, b, m).product == want
            assert run_digit_serial(a, b, m, 8).product == want


def test_models_match_oracle_carryless():
    rng = random.Random(22)
    for m in (8, 16, 48):
        for _ in range(50):
            a = rng.getrandbits(m)
            b = rng.getrandbits(m)
            want = oracle_mul(a, b, ArithMode.CARRYLESS)
            assert run_sbm(a, b, m, ArithMode.CARRYLESS).product == want
            assert run_karatsuba2(a, b, m, ArithMode.CARRYLESS).product == want
            assert run_digit_serial(a, b, m, 4, mode=ArithMode.CARRYLESS).product == want


def test_model_cycles_match_contract():
    rng = random.Random(23)
    for m in (8, 16, 24, 48, 163):
        a = rng.getrandbits(m)
        b = rng.getrandbits(m)
        assert run_sbm(a, b, m).cycles == cycle_contract(ArchKind.SBM, m)
        assert run_karatsuba2(a, b, m).cycles == cycle_contract(ArchKind.KARATSUBA2, m)
        assert run_toom3(a, b, m).cycles == cycle_contract(ArchKind.TOOM3, m)
        assert run_toom4(a, b, m).cycles == cycle_contract(ArchKind.TOOM4, m)
        for n in (2, 8, m):
            assert run_digit_serial(a, b, m, n).cycles == cycle_contract(
                ArchKind.DIGIT_SERIAL, m, n
            )


def test_toom_models_reject_carryless():
    with pytest.raises(BadParams):
        run_model(ArchKind.TOOM3, 1, 1, 12, ArithMode.CARRYLESS)
    with pytest.raises(BadParams):
        run_model(ArchKind.TOOM4, 1, 1, 16, ArithMode.CARRYLESS)


def test_digit_serial_rejects_bad_digit():
    with pytest.raises(BadDigit):
        run_digit_serial(1, 1, 16, 0)
    with pytest.raises(BadDigit):
        run_digit_serial(1, 1, 16, 17)


def test_operands_must_fit():
    with pytest.raises(OverflowError):
        run_sbm(1 << 8, 1, 8)
    with pytest.raises(OverflowError):
        run_sbm(1, -1, 8)


@pytest.mark.parametrize("run", [run_toom3, run_toom4], ids=["toom3", "toom4"])
def test_corrupt_point_product_raises_interpolation_error(run, monkeypatch):
    # w(1) of 0*0 read as 1: the first halving of w(1) + w(-1) is inexact
    def corrupt(limbs, point):
        return signed_eval(limbs, point) + (point == 1)

    monkeypatch.setattr(models, "signed_eval", corrupt)
    with pytest.raises(InternalInterpolationError):
        run(0, 0, 16)


def _intervals(seen: list):
    """Interval value domain: each value is the range (lo, hi) it can take.
    Divisions are exact, so a quotient's range is rounded inwards."""
    def keep(r):
        seen.append(r)
        return r

    return types.SimpleNamespace(
        add=lambda p, q: keep((p[0] + q[0], p[1] + q[1])),
        sub=lambda p, q: keep((p[0] - q[1], p[1] - q[0])),
        cmul=lambda p, c: keep((p[0] * c, p[1] * c)),
        asr=lambda p, k: keep((-(-p[0] >> k), p[1] >> k)),
        div=lambda p, c: keep((-(-p[0] // c), p[1] // c)),
        net=lambda name, p: p)


def _point_products(points: tuple, h: int) -> list:
    """Range of each point product of two operands with k limbs below 2^h."""
    k = (len(points) + 1) // 2
    top = (1 << h) - 1
    ranges = []
    for p in points:
        row = [signed_eval([int(i == j) for i in range(k)], p) for j in range(k)]
        lo = top * sum(c for c in row if c < 0)
        hi = top * sum(c for c in row if c > 0)
        ends = (lo * lo, lo * hi, hi * hi)
        ranges.append((min(ends), max(ends)))
    return ranges


def _signed_bits(v: int) -> int:
    return (v if v >= 0 else -v - 1).bit_length() + 1


def _window_margin(kind: ArchKind, m: int) -> int:
    """W - 2h of the generated design: the width of its interpolation window
    (the vs* nets) less twice its limb width (the al* nets)."""
    width = {net.name: net.width for net in generate(GenParams(kind, m)).nets}
    return width["vs0"] - 2 * width["al0"]


@pytest.mark.parametrize("kind, points, interpolate, needed", [
    (ArchKind.TOOM3, TOOM3_POINTS, toom3_interpolate, 7),
    (ArchKind.TOOM4, TOOM4_POINTS, toom4_interpolate, 13),
], ids=["toom3", "toom4"])
def test_toom_windows_hold_every_value(kind, points, interpolate, needed):
    # Every point product and every intermediate of the interpolation fits the
    # generator's signed window W = 2h + margin, for each limb width h up to
    # 342 (m = 1024 in toom3); the point products are independent intervals.
    margin = _window_margin(kind, kind.arch.min_m)
    assert _window_margin(kind, 1024) == margin
    widest = 0
    for h in range(1, 343):
        seen = _point_products(points, h)
        interpolate(_intervals(seen), list(seen))
        bits = max(_signed_bits(v) for r in seen for v in r) - 2 * h
        assert bits <= margin, f"h={h}: a value needs 2h+{bits} bits, the window has 2h+{margin}"
        widest = max(widest, bits)
    assert widest == needed  # the proof is not vacuous: one bit less fails
