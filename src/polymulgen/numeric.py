"""Bit-accurate numeric primitives: the ground truth the rest of the package
is tested against.

Operands are plain Python ints. A value "fits" a width m when 0 <= v < 2^m.
Products of m-bit operands occupy 2m bits in integer mode; carry-less
(GF(2)[x]) products occupy the low 2m-1 bits.
"""

from __future__ import annotations

import enum

from .errors import InexactDivision

# Evaluation point "infinity" for split-operand evaluation: selects the top limb.
INF = float("inf")

# Toom-Cook evaluation points, shared by the generators and the behavioural
# models. models.toom3_interpolate and toom4_interpolate, which both run,
# invert the evaluation at exactly these points, in this order.
TOOM3_POINTS = (0, 1, -1, 2, INF)
TOOM4_POINTS = (0, 1, -1, 2, -2, 3, INF)


class ArithMode(enum.Enum):
    INTEGER = "integer"
    CARRYLESS = "gf2"


def fits(v: int, m: int) -> bool:
    return 0 <= v < (1 << m)


def oracle_mul(a: int, b: int, mode: ArithMode = ArithMode.INTEGER) -> int:
    """Reference product of two nonnegative operands.

    Integer mode is ordinary multiplication (the shift-add double sum collapses
    to it). Carry-less mode accumulates shifted copies with XOR, i.e. polynomial
    multiplication over GF(2): from a table of a's products with the 16
    polynomials of degree < 4, one per hex digit of b, most significant first.
    """
    if a < 0 or b < 0:
        raise ValueError("operands must be nonnegative")
    if mode is ArithMode.INTEGER:
        return a * b
    table = [0, a]
    for d in range(2, 16):
        table.append((table[d >> 1] << 1) ^ (a if d & 1 else 0))
    digits = dict(zip("0123456789abcdef", table))
    acc = 0
    for d in f"{b:x}":
        acc = (acc << 4) ^ digits[d]
    return acc


def split(v: int, parts: int, part_width: int) -> list[int]:
    """Split v into `parts` limbs of part_width bits, least significant first.

    Zero-pads at the top; raises OverflowError if v needs more than
    parts*part_width bits.
    """
    if parts < 1 or part_width < 1:
        raise ValueError("parts and part_width must be >= 1")
    if not fits(v, parts * part_width):
        raise OverflowError(f"value needs more than {parts}*{part_width} bits")
    mask = (1 << part_width) - 1
    return [(v >> (i * part_width)) & mask for i in range(parts)]


def join(limbs: list[int], part_width: int, mode: ArithMode = ArithMode.INTEGER) -> int:
    """Positionally recombine limbs (least significant first).

    Limbs may exceed part_width; overlap is resolved by addition in integer
    mode and XOR in carry-less mode, so join(split(v)) == v and oversized
    interpolation coefficients recombine exactly.
    """
    if part_width < 1:
        raise ValueError("part_width must be >= 1")
    acc = 0
    for i, limb in enumerate(limbs):
        if limb < 0:
            raise ValueError("limbs must be nonnegative")
        if mode is ArithMode.INTEGER:
            acc += limb << (i * part_width)
        else:
            acc ^= limb << (i * part_width)
    return acc


def exact_div(v: int, k: int) -> int:
    """Divide v by k, raising InexactDivision unless k divides v exactly.

    Used by the Toom models' interpolation; the divisors that occur there are
    {2, 3, 4, 5, 8}. v may be negative (interpolation intermediates are
    signed).
    """
    if k < 1:
        raise ValueError("divisor must be >= 1")
    q, r = divmod(v, k)
    if r:
        raise InexactDivision(f"{v} is not divisible by {k}")
    return q


def signed_eval(limbs: list[int], point) -> int:
    """Evaluate limbs (coefficients, least significant first) at a small signed
    point, or at INF which selects the top limb."""
    if point == INF:
        return limbs[-1] if limbs else 0
    acc = 0
    p = int(point)
    for limb in reversed(limbs):
        acc = acc * p + limb
    return acc
