"""RTL generators for the five multiplier architectures.

Every generator returns a checked-constructible RtlModule whose `children`
tuple carries the child module definitions, so a design is self-contained.
The sequential datapaths are MSB-first (Horner) shift-add machines driven by
one-hot schedule registers; transactions are framed by rst as described in
the verilog backend (reset one cycle, hold a/b for latency_cycles, read c).

Toom generators run the interpolation of `models` (toom3_interpolate,
toom4_interpolate) on IR, in two's complement on a fixed window wide enough
that every intermediate fits; exact divisions by 3 and 5 are multiplications
by the modular inverse, built from log-depth shift-add ladders.

Names, latencies and parameter rules are read from the architecture table,
`models.ARCHES`; `generate` dispatches on the kind through `_BUILDERS`.
"""

from __future__ import annotations

import dataclasses
import functools
import types

from .ir import (Add, And, Assign, Concat, Const, Instance, Mux, Net, Not,
                 Port, Ref, RegDef, RtlModule, Repl, Shl, Slice, Sub, Xor)
from .models import ArchKind, _ceil_div, toom3_interpolate, toom4_interpolate
from .numeric import INF, TOOM3_POINTS, TOOM4_POINTS, ArithMode


@dataclasses.dataclass(frozen=True)
class GenParams:
    """Parameter bundle for one generated design, validated by its kind's record."""

    kind: ArchKind
    m: int
    mode: ArithMode = ArithMode.INTEGER
    n: int | None = None

    def __post_init__(self):
        self.kind.validate(self.m, self.mode, self.n)


class _Builder:
    """Accumulates module items in deterministic construction order."""

    def __init__(self, name: str, latency: int, meta: tuple):
        self.name = name
        self.latency = latency
        self.meta = meta
        self._ports: list = []
        self._nets: list = []
        self._regs: list = []
        self._assigns: list = []
        self._insts: list = []
        self._ntmp = 0
        self._made: dict = {}  # (Ref name, shift, width) -> the net `ref` made for it

    def std_ports(self, wa: int, wb: int, wc: int):
        self._ports = [Port("clk", "in", 1), Port("rst", "in", 1),
                       Port("a", "in", wa), Port("b", "in", wb),
                       Port("c", "out", wc)]
        return Ref("a", wa), Ref("b", wb)

    def net(self, name: str, expr) -> Ref:
        self._nets.append(Net(name, expr.width))
        self._assigns.append(Assign(name, expr))
        return Ref(name, expr.width)

    def tmp(self, expr) -> Ref:
        self._ntmp += 1
        return self.net(f"t{self._ntmp}", expr)

    def ref(self, expr) -> Ref:
        """Materialize an expression as a net unless it already is a Ref. A
        zero extension or left shift of a Ref reuses the net made for the
        same one before."""
        if isinstance(expr, Ref):
            return expr
        if type(expr) is Shl and type(expr.base) is Ref:
            key = expr.base.name, expr.amount, expr.width
        elif (type(expr) is Concat and len(expr.parts) == 2 and type(expr.parts[1]) is Ref
              and type(expr.parts[0]) is Const and expr.parts[0].value == 0):
            key = expr.parts[1].name, 0, expr.width
        else:
            return self.tmp(expr)
        if key not in self._made:
            self._made[key] = self.tmp(expr)
        return self._made[key]

    def reg(self, name: str, width: int, reset: int, nxt) -> Ref:
        self._regs.append(RegDef(name, width, reset, nxt))
        return Ref(name, width)

    def out_net(self, name: str, width: int) -> Ref:
        """Declare a net that an instance output will drive."""
        self._nets.append(Net(name, width))
        return Ref(name, width)

    def inst(self, name: str, child: RtlModule, a, b, rst, c: Ref) -> None:
        self._insts.append(Instance(name, child.name, (
            ("clk", Ref("clk", 1)), ("rst", rst), ("a", a), ("b", b), ("c", c))))

    def drive_c(self, expr) -> None:
        self._assigns.append(Assign("c", expr))

    def build(self, children: tuple = ()) -> RtlModule:
        return RtlModule(self.name, tuple(self._ports), tuple(self._nets),
                         tuple(self._regs), tuple(self._assigns),
                         tuple(self._insts), self.latency, self.meta, children)


def _meta(kind: ArchKind, m: int, n: int, mode: ArithMode) -> tuple:
    return (("method", kind.value), ("m", str(m)), ("n", str(n)), ("mode", mode.value))


def _top(kind: ArchKind, m: int, mode: ArithMode = ArithMode.INTEGER,
         n: int | None = None) -> tuple:
    """(builder, a, b) of kind's m-bit top module: the parameters validated,
    the name and latency read from kind's record, the ports declared."""
    arch = kind.validate(m, mode, n)
    b = _Builder(arch.name(m, mode, n), arch.latency(m, n),
                 _meta(kind, m, m if n is None else n, mode))
    return (b, *b.std_ports(m, m, 2 * m))


def _zext(e, width: int):
    w = e.width
    if w == width:
        return e
    if w > width:
        raise ValueError(f"cannot zero-extend {w} bits down to {width}")
    return Concat((Const(width - w, 0), e))


def _fit(b: _Builder, e, width: int):
    """Zero-extend or truncate to `width` (truncation is mod 2^width)."""
    if e.width <= width:
        return _zext(e, width)
    return Slice(b.ref(e), 0, width)


def _sext(b: _Builder, e, width: int):
    base = b.ref(e)
    if base.width == width:
        return base
    msb = Slice(base, base.width - 1, 1)
    return Concat((Repl(width - base.width, msb), base))


def _asr(b: _Builder, e, k: int):
    """Arithmetic shift right by a constant, width preserved."""
    base = b.ref(e)
    msb = Slice(base, base.width - 1, 1)
    return Concat((Repl(k, msb), Slice(base, k, base.width - k)))


def _or(*bits):
    # 1-bit OR via De Morgan; the IR keeps its operator set minimal.
    return Not(functools.reduce(And, [Not(x) for x in bits]))


def _shl_mod(b: _Builder, e, k: int, width: int):
    if k == 0:
        return _fit(b, e, width)
    return _fit(b, Shl(b.ref(e), k), width)


def _cmul(b: _Builder, e, k: int, width: int):
    """k*e mod 2^width for a constant k >= 1, by shift-add decomposition."""
    e = _fit(b, e, width)
    if k == 1:
        return e
    base = b.ref(e)
    acc = None
    for i in range(k.bit_length()):
        if (k >> i) & 1:
            term = base if i == 0 else _shl_mod(b, base, i, width)
            acc = term if acc is None else Add(acc, term)
    return acc


def _geom(b: _Builder, x, step: int, count: int, width: int) -> Ref:
    """sum_{j<count} (x << step*j) mod 2^width via a doubling ladder."""
    block = b.ref(_fit(b, x, width))
    total = None
    covered = 0
    size = 1
    while size <= count:
        if count & size:
            if total is None:
                total, covered = block, size
            else:
                total = b.ref(Add(total, _shl_mod(b, block, step * covered, width)))
                covered += size
        if size * 2 <= count:
            block = b.ref(Add(block, _shl_mod(b, block, step * size, width)))
        size *= 2
    return total


def _div3(b: _Builder, x, width: int):
    """Exact division by 3 as multiplication by inv(3) mod 2^width.

    3*(1 + 2*sum_{j<K} 4^j) = 1 + 2^(2K+1), so with K = ceil(width/2) the
    parenthesized constant is the inverse and q = x + 2*(sum 4^j x).
    """
    x = b.ref(_fit(b, x, width))
    t = _geom(b, x, 2, (width + 1) // 2, width)
    return Add(x, _shl_mod(b, t, 1, width))


def _div5(b: _Builder, x, width: int):
    """Exact division by 5: inv(5) = 1 + 12*sum_{j<K} 16^j mod 2^width."""
    x = b.ref(_fit(b, x, width))
    u = _geom(b, x, 4, (width + 3) // 4, width)
    return Add(Add(x, _shl_mod(b, u, 3, width)), _shl_mod(b, u, 2, width))


def _sbm_module(w: int, mode: ArithMode) -> RtlModule:
    """Shift-add schoolbook core: MSB-first over b, w cycles, then holds."""
    b = _Builder(ArchKind.SBM.arch.name(w, mode, None), w, _meta(ArchKind.SBM, w, w, mode))
    a, bp = b.std_ports(w, w, 2 * w)
    sched = Ref("sched", w + 1)
    acc = Ref("acc", 2 * w)
    breg = Ref("breg", w)
    first = b.net("first", Slice(sched, 0, 1))
    done = b.net("done", Slice(sched, w, 1))
    run = b.net("run", Not(done))
    bit = b.net("bnow", Mux(first, Slice(bp, w - 1, 1), Slice(breg, w - 1, 1)))
    bsrc = b.net("bsrc", Mux(first, bp, breg))
    bnext = b.net("bnext", Slice(b.tmp(Shl(bsrc, 1)), 0, w))
    addend = b.net("addend", Mux(bit, _zext(a, 2 * w), Const(2 * w, 0)))
    accsh = b.net("accsh", Slice(b.tmp(Shl(acc, 1)), 0, 2 * w))
    comb = Xor if mode is ArithMode.CARRYLESS else Add
    step = b.net("step", comb(accsh, addend))
    b.reg("sched", w + 1, 1, Mux(done, sched, Slice(b.tmp(Shl(sched, 1)), 0, w + 1)))
    b.reg("acc", 2 * w, 0, Mux(run, step, acc))
    b.reg("breg", w, 0, Mux(run, bnext, breg))
    b.drive_c(acc)
    return b.build()


def gen_sbm(m: int, mode: ArithMode = ArithMode.INTEGER) -> RtlModule:
    ArchKind.SBM.validate(m, mode, None)
    return _sbm_module(m, mode)


def gen_karatsuba2(m: int, mode: ArithMode = ArithMode.INTEGER) -> RtlModule:
    """Three parallel SBM cores of width h+1 plus combinational pre/post adders."""
    b, a, bp = _top(ArchKind.KARATSUBA2, m, mode)
    h = _ceil_div(m, 2)
    w = h + 1  # uniform child width so the sum product fits the same core
    cl = mode is ArithMode.CARRYLESS
    child = _sbm_module(w, mode)
    comb = Xor if cl else Add
    a0 = b.net("a0", _zext(Slice(a, 0, h), w))
    a1 = b.net("a1", _zext(Slice(a, h, m - h), w))
    b0 = b.net("b0", _zext(Slice(bp, 0, h), w))
    b1 = b.net("b1", _zext(Slice(bp, h, m - h), w))
    asum = b.net("asum", comb(a0, a1))
    bsum = b.net("bsum", comb(b0, b1))
    w0 = b.out_net("w0", 2 * w)
    w1 = b.out_net("w1", 2 * w)
    wm = b.out_net("wm", 2 * w)
    rst = Ref("rst", 1)
    b.inst("u_lo", child, a0, b0, rst, w0)
    b.inst("u_hi", child, a1, b1, rst, w1)
    b.inst("u_mid", child, asum, bsum, rst, wm)
    if cl:
        cmid = b.net("cmid", Xor(Xor(wm, w1), w0))
    else:
        cmid = b.net("cmid", Sub(Sub(wm, w1), w0))
    total = comb(comb(_shl_mod(b, w1, 2 * h, 2 * m), _shl_mod(b, cmid, h, 2 * m)),
                 _fit(b, w0, 2 * m))
    b.drive_c(total)
    return b.build(children=(child,))


def _point_rows(points: tuple, k: int) -> list:
    rows = []
    for p in points:
        if p is INF:
            rows.append(tuple(1 if j == k - 1 else 0 for j in range(k)))
        else:
            rows.append(tuple(int(p) ** j for j in range(k)))
    return rows


def _row_mag(row: tuple) -> int:
    pos = sum(c for c in row if c > 0)
    neg = -sum(c for c in row if c < 0)
    return max(pos, neg, 1)


def _eval_width(h: int, row: tuple) -> int:
    # signed width for sum(c_j * limb_j), limbs < 2^h
    return h + 1 + (_row_mag(row) - 1).bit_length()


def _prod_width(h: int, row: tuple) -> int:
    mag = _row_mag(row)
    return 2 * h + 1 + (mag * mag - 1).bit_length()


def _eval_expr(b: _Builder, limbs: list, row: tuple, width: int):
    """Two's complement sum(c_j * limb_j) over unsigned h-bit limbs."""
    pos = None
    neg = None
    for limb, cj in zip(limbs, row):
        if cj == 0:
            continue
        term = _cmul(b, _zext(limb, width), abs(cj), width)
        if cj > 0:
            pos = term if pos is None else Add(pos, term)
        else:
            neg = term if neg is None else Add(neg, term)
    expr = pos if pos is not None else Const(width, 0)
    if neg is not None:
        expr = Sub(expr, neg)
    return expr


def _toom_child(name: str, h: int, k: int, wa: int, wc: int, row: tuple,
                meta: tuple) -> RtlModule:
    """Column-serial point multiplier: c = a * sum(c_j * b_j) over h cycles.

    a is the registered (already evaluated, signed) operand; the b evaluation
    is folded into the shift-add recurrence one bit column per cycle, one
    weighted addend per nonzero coefficient. b is the top's column register,
    the k limbs side by side, each shifted left by one within its h-bit field
    per cycle, so limb j's column is bit j*h+h-1. The top holds the child in
    reset outside its h multiply cycles, so the accumulator has no schedule
    of its own: it steps on every cycle.
    """
    b = _Builder(name, h, meta)
    a, bp = b.std_ports(wa, k * h, wc)
    acc = Ref("acc", wc)
    asx = b.net("asx", _sext(b, a, wc))
    cur = b.net("accsh", _shl_mod(b, acc, 1, wc))
    for j, cj in enumerate(row):
        if cj:
            bit = b.net(f"bit{j}", Slice(bp, j * h + h - 1, 1))
            term = b.net(f"term{j}", Mux(bit, _cmul(b, asx, abs(cj), wc), Const(wc, 0)))
            cur = (Sub if cj < 0 else Add)(cur, term)
    b.reg("acc", wc, 0, b.net("step", cur))
    b.drive_c(acc)
    return b.build()


def _toom_frame(kind: ArchKind, m: int, points: tuple, interpolate, margin: int,
                stages: tuple):
    """Shared Toom plumbing: top module, padding, schedule, column register,
    evaluation regs, children, and interpolation on a signed window of
    W = 2h + margin bits (tests/test_models.py::test_toom_windows_hold_every_value
    proves that every value fits); k-way over 2k-1 points.

    The one column register holds the k limbs of b side by side: it loads
    them on the cycle after ld (`first`) and shifts each left by one within
    its h-bit field per cycle, and every point multiplier reads it through
    its b port. The multipliers run on the h cycles from `first` and are
    held in reset on ld and on the result cycles after them, one per name
    of `stages`, whose bits are returned.

    Returns (builder, limb width h, child modules, coefficient refs, the
    result stages' bits).
    """
    b, a, bp = _top(kind, m)
    k = (len(points) + 1) // 2
    h = _ceil_div(m, k)
    lat = b.latency
    rows = _point_rows(points, k)
    apad = b.net("apad", _zext(a, k * h))
    bpad = b.net("bpad", _zext(bp, k * h))
    limbs = [b.net(f"al{j}", Slice(apad, j * h, h)) for j in range(k)]
    sched = Ref("sched", lat + 1)
    ld = b.net("ld", Slice(sched, 0, 1))
    # a net, not an inline Slice of sched: the simulator's datapath then
    # reads a one-bit guard, not the schedule as a wide row value, so the
    # multiply loop's K-step can fire
    first = b.net("first", Slice(sched, 1, 1))
    fins = [b.net(name, Slice(sched, h + 1 + i, 1)) for i, name in enumerate(stages)]
    done = b.net("done", Slice(sched, lat, 1))
    b.reg("sched", lat + 1, 1, Mux(done, sched, Slice(b.tmp(Shl(sched, 1)), 0, lat + 1)))
    bsrc = b.net("bsrc", Mux(first, bpad, Ref("cols", k * h)))
    fields = sum(((1 << h) - 2) << j * h for j in range(k))
    b.reg("cols", k * h, 0, And(_shl_mod(b, bsrc, 1, k * h), Const(k * h, fields)))
    crst = b.net("crst", _or(Ref("rst", 1), ld, *fins, done))
    children = []
    wrefs = []
    for i, row in enumerate(rows):
        wa = _eval_width(h, row)
        wc = _prod_width(h, row)
        ev = b.net(f"ev{i}", _eval_expr(b, limbs, row, wa))
        evr = b.reg(f"eva{i}", wa, 0, Mux(ld, ev, Ref(f"eva{i}", wa)))
        child = _toom_child(f"{b.name}_pp{i}", h, k, wa, wc, row, b.meta)
        children.append(child)
        wn = b.out_net(f"w{i}", wc)
        b.inst(f"u_pp{i}", child, evr, bsrc, crst, wn)
        wrefs.append(wn)
    W = 2 * h + margin
    window = types.SimpleNamespace(add=Add, sub=Sub, net=b.net,
                                   cmul=lambda e, c: _cmul(b, e, c, W),
                                   asr=functools.partial(_asr, b),
                                   div=lambda e, c: {3: _div3, 5: _div5}[c](b, e, W))
    v = [b.net(f"vs{i}", _sext(b, wn, W)) for i, wn in enumerate(wrefs)]
    return b, h, children, interpolate(window, v), fins


def _recombine(b: _Builder, coeffs: list, h: int, wu: int, width: int):
    """sum(coeff_i << i*h) mod 2^width; coefficients read as wu-bit unsigned."""
    total = None
    for i, cref in enumerate(coeffs):
        part = _shl_mod(b, Slice(cref, 0, wu), i * h, width)
        total = part if total is None else Add(total, part)
    return total


def gen_toom3(m: int) -> RtlModule:
    b, h, children, coeffs, (fin,) = _toom_frame(ArchKind.TOOM3, m, TOOM3_POINTS,
                                                 toom3_interpolate, 8, ("fin",))
    recomb = _recombine(b, coeffs, h, 2 * h + 2, 2 * m)
    cres = b.reg("cres", 2 * m, 0, Mux(fin, recomb, Ref("cres", 2 * m)))
    b.drive_c(cres)
    return b.build(children=tuple(children))


def gen_toom4(m: int) -> RtlModule:
    # Two result stages: coefficient registers, then the recombined product.
    b, h, children, coeffs, (fin1, fin2) = _toom_frame(ArchKind.TOOM4, m, TOOM4_POINTS,
                                                       toom4_interpolate, 14, ("fin1", "fin2"))
    wu = 2 * h + 2
    crefs = []
    for i, cref in enumerate(coeffs):
        crefs.append(b.reg(f"cr{i}", wu, 0, Mux(fin1, Slice(cref, 0, wu),
                                                Ref(f"cr{i}", wu))))
    recomb = _recombine(b, crefs, h, wu, 2 * m)
    cres = b.reg("cres", 2 * m, 0, Mux(fin2, recomb, Ref("cres", 2 * m)))
    b.drive_c(cres)
    return b.build(children=tuple(children))


def _dsbm_core(name: str, m: int, n: int, mode: ArithMode, meta: tuple) -> RtlModule:
    """Free-running m x n digit core: one product per n-cycle window.

    c combinationally presents the next accumulator value, so during the last
    cycle of a window it equals the finished a*digit product and the wrapper
    can fold it in on the same edge.
    """
    w = m + n
    b = _Builder(name, n, meta)
    a, bp = b.std_ports(m, n, w)
    ring = Ref("ring", n)
    breg = Ref("breg", n)
    acc = Ref("acc", w)
    first = b.net("first", Slice(ring, 0, 1))
    rot = ring if n == 1 else Concat((Slice(ring, 0, n - 1), Slice(ring, n - 1, 1)))
    b.reg("ring", n, 1, rot)
    bit = b.net("bnow", Mux(first, Slice(bp, n - 1, 1), Slice(breg, n - 1, 1)))
    bsrc = b.net("bsrc", Mux(first, bp, breg))
    b.reg("breg", n, 0, Slice(b.tmp(Shl(bsrc, 1)), 0, n))
    addend = b.net("addend", Mux(bit, _zext(a, w), Const(w, 0)))
    accsh = b.net("accsh", Slice(b.tmp(Shl(acc, 1)), 0, w))
    comb = Xor if mode is ArithMode.CARRYLESS else Add
    hstep = b.net("hstep", Mux(first, addend, comb(accsh, addend)))
    b.reg("acc", w, 0, hstep)
    b.drive_c(hstep)
    return b.build()


def gen_digit_serial(m: int, n: int, mode: ArithMode = ArithMode.INTEGER) -> RtlModule:
    """Digit-serial wrapper: d = ceil(m/n) digits of b, MSB-first, d*n cycles."""
    b, a, bp = _top(ArchKind.DIGIT_SERIAL, m, mode, n)
    d = _ceil_div(m, n)
    cl = mode is ArithMode.CARRYLESS
    core = _dsbm_core(f"mul_dsbm_cl_{m}x{n}" if cl else f"mul_dsbm_{m}x{n}",
                      m, n, mode, b.meta)
    acc = Ref("acc", 2 * m)
    dighot = Ref("dighot", d)
    phring = Ref("phring", n)
    done = Ref("done", 1)
    bpad = b.net("bpad", _zext(bp, d * n))
    cur = None
    for k in range(d):
        sel = b.net(f"sel{k}", And(Repl(n, Slice(dighot, k, 1)),
                                   Slice(bpad, k * n, n)))
        cur = sel if cur is None else b.ref(Xor(cur, sel))
    dig = b.net("dig", cur)
    rot = phring if n == 1 else Concat((Slice(phring, 0, n - 1), Slice(phring, n - 1, 1)))
    b.reg("phring", n, 1, rot)
    wend = b.net("wend", Slice(phring, n - 1, 1))
    upd = b.net("upd", And(Not(done), wend))
    pprod = b.out_net("pprod", m + n)
    b.inst("u_core", core, a, dig, Ref("rst", 1), pprod)
    comb = Xor if cl else Add
    step = b.net("step", comb(_shl_mod(b, acc, n, 2 * m), _zext(pprod, 2 * m)))
    b.reg("acc", 2 * m, 0, Mux(upd, step, acc))
    shr = dighot if d == 1 else Mux(upd, Concat((Const(1, 0), Slice(dighot, 1, d - 1))),
                                    dighot)
    b.reg("dighot", d, 1 << (d - 1), shr)
    b.reg("done", 1, 0, _or(done, And(wend, Slice(dighot, 0, 1))))
    b.drive_c(acc)
    return b.build(children=(core,))


_BUILDERS = {
    ArchKind.SBM: lambda m, mode, n: gen_sbm(m, mode),
    ArchKind.KARATSUBA2: lambda m, mode, n: gen_karatsuba2(m, mode),
    ArchKind.TOOM3: lambda m, mode, n: gen_toom3(m),
    ArchKind.TOOM4: lambda m, mode, n: gen_toom4(m),
    ArchKind.DIGIT_SERIAL: lambda m, mode, n: gen_digit_serial(m, n, mode),
}


def generate(params: GenParams) -> RtlModule:
    """Build the design one GenParams bundle describes."""
    return _BUILDERS[params.kind](params.m, params.mode, params.n)


def top_name(kind: ArchKind, m: int, mode: ArithMode = ArithMode.INTEGER,
             n: int | None = None) -> str:
    """Top module name for a parameter bundle, without generating it."""
    return kind.arch.name(m, mode, n)


def design_library(top: RtlModule) -> dict:
    """name -> module for top and every module below it: children before
    parents, each name once. Verilog emission writes these modules out; the
    simulator walks each module's `children` itself."""
    lib = {}

    def visit(mod: RtlModule):
        for child in mod.children:
            visit(child)
        lib.setdefault(mod.name, mod)

    visit(top)
    return lib
