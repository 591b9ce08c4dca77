"""Cycle-accurate behavioral models of the multiplier architectures.

Each run_* function mirrors the dataflow of the generated hardware (split,
evaluate, pointwise multiply, interpolate, recombine) and reports the exact
cycle count of the corresponding RTL. Cycle counts are data-independent:

    Sbm          m
    Karatsuba2   ceil(m/2) + 1
    Toom3        ceil(m/3) + 2
    Toom4        ceil(m/4) + 3
    DigitSerial  ceil(m/n) * n      (inner Sbm)

The +1/+2/+3 constants are the operand-sum bit growth (Karatsuba) and the
evaluation/recombination register stages (Toom).

`ARCHES` is the architecture table: one record per ArchKind with its name,
model, latency and validity rules. Code elsewhere, the generators included,
reads the record instead of branching on the kind.
"""

from __future__ import annotations

import dataclasses
import enum
import operator
import types
from typing import Callable

from .errors import (BadDigit, BadParams, InexactDivision, InternalInterpolationError,
                     ToomRequiresInteger)
from .numeric import (TOOM3_POINTS, TOOM4_POINTS, ArithMode, exact_div, fits, join,
                      oracle_mul, signed_eval, split)


class ArchKind(enum.Enum):
    SBM = "sbm"
    KARATSUBA2 = "karatsuba2"
    TOOM3 = "toom3"
    TOOM4 = "toom4"
    DIGIT_SERIAL = "wrapper"

    @property
    def arch(self) -> "Arch":
        """This kind's record in the architecture table."""
        return ARCHES[self]

    def validate(self, m: int, mode: ArithMode, n: int | None) -> "Arch":
        """Validate one design's parameters against the table; returns the record."""
        arch = self.arch
        if m < arch.min_m:
            raise BadParams(f"{self.value} needs m >= {arch.min_m}, got {m}")
        if mode is not ArithMode.INTEGER and not arch.gf2:
            raise ToomRequiresInteger(f"{self.value} supports integer mode only")
        if not arch.needs_digit:
            if n is not None:
                raise BadParams(f"digit width n is a wrapper parameter, not {self.value}")
        elif n is None or not 1 <= n <= m:
            raise BadDigit(f"{self.value} needs a digit width n in 1..{m}, got {n}")
        return arch


@dataclasses.dataclass(frozen=True)
class RunTrace:
    product: int
    cycles: int
    sub_mults: int


def _ceil_div(a: int, b: int) -> int:
    return -(-a // b)


def _check_operands(a: int, b: int, m: int) -> None:
    if not fits(a, m) or not fits(b, m):
        raise OverflowError(f"operands must fit {m} bits")


def cycle_contract(kind: ArchKind, m: int, n: int | None = None) -> int:
    """Exact latency in clock cycles for a generated (kind, m[, n]) multiplier."""
    arch = kind.arch
    return arch.latency(m, arch.digit(n))


def run_sbm(a: int, b: int, m: int, mode: ArithMode = ArithMode.INTEGER,
            n: int | None = None) -> RunTrace:
    """Shift-add schoolbook multiplier: one conditional accumulate per bit of b.
    Like every model, it validates its parameters with its kind's record."""
    ArchKind.SBM.validate(m, mode, n)
    _check_operands(a, b, m)
    acc = 0
    for i in range(m):
        if (b >> i) & 1:
            if mode is ArithMode.INTEGER:
                acc += a << i
            else:
                acc ^= a << i
    return RunTrace(acc, m, m)


def run_karatsuba2(a: int, b: int, m: int, mode: ArithMode = ArithMode.INTEGER,
                   n: int | None = None) -> RunTrace:
    """2-way Karatsuba: 3 parallel sub-products on (h+1)-bit operands."""
    ArchKind.KARATSUBA2.validate(m, mode, n)
    _check_operands(a, b, m)
    h = _ceil_div(m, 2)
    a0, a1 = split(a, 2, h)
    b0, b1 = split(b, 2, h)
    if mode is ArithMode.INTEGER:
        c0 = oracle_mul(a0, b0, mode)
        c1 = oracle_mul(a1, b1, mode)
        cmid = oracle_mul(a0 + a1, b0 + b1, mode)
        c2 = cmid - c1 - c0
    else:
        c0 = oracle_mul(a0, b0, mode)
        c1 = oracle_mul(a1, b1, mode)
        cmid = oracle_mul(a0 ^ a1, b0 ^ b1, mode)
        c2 = cmid ^ c1 ^ c0
    product = join([c0, c2, c1], h, mode)
    return RunTrace(product, h + 1, 3)


def toom3_interpolate(x, w: list) -> list:
    """c0..c4 from the point products at TOOM3_POINTS, in the value domain x.

    x supplies add, sub, cmul (times a constant), asr (exact division by 2^k),
    div (exact division by an odd constant) and net (names a value). The
    model runs this on ints, the generator on IR over its window.
    """
    c0, w1, wm1, w2, c4 = w                                             # c4 = w(inf)
    c2 = x.net("c2", x.sub(x.sub(x.asr(x.add(w1, wm1), 1), c0), c4))
    todd = x.net("todd", x.asr(x.sub(w1, wm1), 1))                      # c1 + c3
    rem = x.net("rem", x.sub(x.sub(x.sub(w2, c0), x.cmul(c2, 4)),
                             x.cmul(c4, 16)))                           # 2*c1 + 8*c3
    c3 = x.net("c3", x.div(x.sub(x.asr(rem, 1), todd), 3))
    c1 = x.net("c1", x.sub(todd, c3))
    return [c0, c1, c2, c3, c4]


def toom4_interpolate(x, w: list) -> list:
    """c0..c6 from the point products at TOOM4_POINTS, in the value domain x.

    Forward substitution over the point system; the odd subsystem's nodes
    {1, 4, 9} force one exact division by 5.
    """
    c0, w1, wm1, w2, wm2, w3, c6 = w                                    # c6 = w(inf)
    e1 = x.net("e1", x.sub(x.sub(x.asr(x.add(w1, wm1), 1), c0), c6))    # c2 + c4
    o1 = x.net("o1", x.asr(x.sub(w1, wm1), 1))                          # c1 + c3 + c5
    e2 = x.net("e2", x.sub(x.sub(x.asr(x.add(w2, wm2), 1), c0),
                           x.cmul(c6, 64)))                             # 4*c2 + 16*c4
    o2 = x.net("o2", x.asr(x.sub(w2, wm2), 1))                          # 2*c1 + 8*c3 + 32*c5
    c4 = x.net("c4", x.div(x.sub(x.asr(e2, 2), e1), 3))
    c2 = x.net("c2", x.sub(e1, c4))
    half2 = x.net("half2", x.asr(o2, 1))                                # c1 + 4*c3 + 16*c5
    res3 = x.net("res3", x.div(x.sub(x.sub(x.sub(x.sub(w3, c0), x.cmul(c2, 9)),
                                           x.cmul(c4, 81)), x.cmul(c6, 729)), 3))
                                                                        # c1 + 9*c3 + 81*c5
    u1 = x.net("u1", x.div(x.sub(half2, o1), 3))                        # c3 + 5*c5
    u2 = x.net("u2", x.asr(x.sub(res3, o1), 3))                         # c3 + 10*c5
    c5 = x.net("c5", x.div(x.sub(u2, u1), 5))
    c3 = x.net("c3", x.sub(u1, x.cmul(c5, 5)))
    c1 = x.net("c1", x.sub(x.sub(o1, c3), c5))
    return [c0, c1, c2, c3, c4, c5, c6]


# The models' value domain: exact ints, every division checked.
_INTS = types.SimpleNamespace(add=operator.add, sub=operator.sub, cmul=operator.mul,
                              asr=lambda v, k: exact_div(v, 1 << k), div=exact_div,
                              net=lambda name, v: v)


def _run_toom(kind: ArchKind, points: tuple, interpolate, a: int, b: int, m: int,
              mode: ArithMode, n: int | None) -> RunTrace:
    """k-way Toom-Cook over 2k-1 points: split, evaluate, multiply pointwise,
    interpolate, recombine; kind's record refuses any mode but integer."""
    arch = kind.validate(m, mode, n)
    _check_operands(a, b, m)
    k = (len(points) + 1) // 2
    h = _ceil_div(m, k)
    la = split(a, k, h)
    lb = split(b, k, h)
    w = [signed_eval(la, p) * signed_eval(lb, p) for p in points]
    try:
        coeffs = interpolate(_INTS, w)
    except InexactDivision as exc:
        raise InternalInterpolationError(str(exc)) from exc
    return RunTrace(join(coeffs, h), arch.latency(m, None), len(points))


def run_toom3(a: int, b: int, m: int, mode: ArithMode = ArithMode.INTEGER,
              n: int | None = None) -> RunTrace:
    """3-way Toom-Cook over points {0, 1, -1, 2, inf}; integer mode only."""
    return _run_toom(ArchKind.TOOM3, TOOM3_POINTS, toom3_interpolate, a, b, m, mode, n)


def run_toom4(a: int, b: int, m: int, mode: ArithMode = ArithMode.INTEGER,
              n: int | None = None) -> RunTrace:
    """4-way Toom-Cook over points {0, 1, -1, 2, -2, 3, inf}; integer mode only."""
    return _run_toom(ArchKind.TOOM4, TOOM4_POINTS, toom4_interpolate, a, b, m, mode, n)


def run_digit_serial(a: int, b: int, m: int, n: int,
                     mode: ArithMode = ArithMode.INTEGER) -> RunTrace:
    """Digit-serial wrapper: d = ceil(m/n) digits of b, one m-by-n inner SBM.

    Each digit product costs n cycles; the total is d*n. With n == m this
    degenerates to the inner multiplier.
    """
    ArchKind.DIGIT_SERIAL.validate(m, mode, n)
    _check_operands(a, b, m)
    d = _ceil_div(m, n)
    digits = split(b, d, n)
    acc = 0
    for k, dig in enumerate(digits):
        p = oracle_mul(a, dig, mode)
        if mode is ArithMode.INTEGER:
            acc += p << (k * n)
        else:
            acc ^= p << (k * n)
    return RunTrace(acc, d * n, d)


def run_model(kind: ArchKind, a: int, b: int, m: int,
              mode: ArithMode = ArithMode.INTEGER, n: int | None = None) -> RunTrace:
    """Run the behavioural model of kind, for parameters its generator accepts;
    the model validates them with kind's record, once."""
    return kind.arch.model(a, b, m, mode, n)


@dataclasses.dataclass(frozen=True)
class Arch:
    """Every per-architecture fact; the table below holds one per ArchKind."""

    stem: str  # top module name: mul_<stem>[_cl]_<m>[_<n>]
    min_m: int
    gf2: bool  # carry-less mode supported
    needs_digit: bool  # takes a digit width n (the wrapper)
    latency: Callable  # (m, n) -> exact cycles until c is valid
    billed: Callable  # (m, n) -> cycles of the serial operand-scanning phase
    model: Callable  # (a, b, m, mode, n) -> RunTrace

    def digit(self, n: int | None) -> int | None:
        """n, which a digit-serial architecture cannot do without."""
        if self.needs_digit and n is None:
            raise BadParams(f"mul_{self.stem} designs need a digit width n")
        return n

    def name(self, m: int, mode: ArithMode, n: int | None) -> str:
        """Top module name, without generating the design."""
        cl = "_cl" if mode is ArithMode.CARRYLESS else ""
        tail = f"_{self.digit(n)}" if self.needs_digit else ""
        return f"mul_{self.stem}{cl}_{m}{tail}"


ARCHES = {
    ArchKind.SBM: Arch(
        "sbm", min_m=4, gf2=True, needs_digit=False,
        latency=lambda m, n: m,
        billed=lambda m, n: m,
        model=run_sbm),
    ArchKind.KARATSUBA2: Arch(
        "km2", min_m=4, gf2=True, needs_digit=False,
        latency=lambda m, n: _ceil_div(m, 2) + 1,
        billed=lambda m, n: _ceil_div(m, 2),
        model=run_karatsuba2),
    ArchKind.TOOM3: Arch(
        "tc3", min_m=6, gf2=False, needs_digit=False,
        latency=lambda m, n: _ceil_div(m, 3) + 2,
        billed=lambda m, n: _ceil_div(m, 3),
        model=run_toom3),
    ArchKind.TOOM4: Arch(
        "tc4", min_m=8, gf2=False, needs_digit=False,
        latency=lambda m, n: _ceil_div(m, 4) + 3,
        billed=lambda m, n: _ceil_div(m, 4),
        model=run_toom4),
    ArchKind.DIGIT_SERIAL: Arch(
        "serial", min_m=4, gf2=True, needs_digit=True,
        latency=lambda m, n: _ceil_div(m, n) * n,
        billed=lambda m, n: _ceil_div(m, n) * n,
        model=lambda a, b, m, mode, n: run_digit_serial(a, b, m, n, mode)),
}
