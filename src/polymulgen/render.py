"""Python text of RTL IR expressions, for the compiled simulator in `interp`.

`_net` renders an expression with constants folded in the same pass (an
int when it is constant, else text) and returns the reads. rst is the
constant 0 during a run, so the top's rst folds away: a register's reset
mux survives only where its module's rst is a net (toom3's child reset
`crst = rst | ld | fin | done`, which folds to the OR of the schedule bits
that hold the point multipliers in reset). Constant operands fold,
identities (`x & 0`, `x ^ 0`, `x + 0`, a Mux on a constant condition or
with equal arms, `~~x`, ...)
drop their operator, zero Concat parts vanish, a Slice that reaches its
base's top keeps no mask, an Add or Sub reads an operand cut to its own
width, `x & mask`, as x, since its own mask drops the bits above, and a cut
And-ed with a constant, `(v & m) & k`, is one mask, `v & (m & k)`. Two more
rules spare the loops work:

- a bit replicated over the other operand of an And selects it:
  `And(Repl(n, x), y)` with x one bit wide is `y if x else 0x0`, so with
  the digit ring bound the wrapper's digit select folds to one slice of b;
- a bit read only for its truth (a Mux condition, the x above) below its
  base's top is tested with one AND, `v & 2^lo`, not `v >> lo & 0x1`.

`_look` gives an expression as the renderer reads it, looking through the
module's own nets. An Add or Sub operand that is a net driven by
`Slice(Ref(x), 0, w)` is read through that cut, as x, so a shift-add
accumulator renders `(r << 1) + t & M`, masking `r << 1` once, not twice.

A text holds only the parentheses Python's operator precedence needs, since
the parser's time grows with every pair: `_r` keeps each operand's
precedence, and its cut when it is `x & M`, while it renders the operator
around it. A kernel writes no net's text into another's, only a copy of a
name into its readers, so these are the only parentheses it holds.

A read that folds away is not a read, so hoisting, phases and the
control/datapath split see only what the text reads. `_bits` gives the bits
of an identifier that an expression reads, so that a table of a net's values
over the digit ring renders the net again only where a bit it reads changes.
"""
from __future__ import annotations

from .ir import Add, And, Concat, Const, Mux, Not, Ref, Repl, Shl, Slice, Sub, Xor, children

# Python's operator precedence, loosest first, for the operators the
# renderer writes; an identifier or a literal is an atom
_IF, _OR, _XOR, _AND, _SHIFT, _SUM, _MUL, _ATOM = range(8)


def _lit(v) -> str:
    return hex(v) if type(v) is int else v


def _name(v) -> bool:
    """Whether the rendered v is a bare identifier: a copy of that name."""
    return type(v) is str and v.isidentifier()


def _wrap(v: tuple, prec: int) -> str:
    """The text of the rendered v as an operand whose operator binds at
    least as tightly as `prec`: in parentheses when its own binds looser."""
    src = v[0]
    if v[1] < prec:
        return f"({src})"
    return src if type(src) is str else hex(src)


def _truth(e, names: dict, reads: list) -> tuple:
    """`_r` of the 1-bit e where only its truth is read: a bit below its
    base's top is tested with one AND, `v & 2^lo`, and not shifted down."""
    if type(e) is not Slice or e.lo + 1 == e.base.width:
        return _r(e, names, reads)
    v = _r(e.base, names, reads)
    if type(v[0]) is int:
        return (v[0] >> e.lo) & 1, _ATOM, None
    return f"{_wrap(v, _AND)} & {hex(1 << e.lo)}", _AND, None


def _r(e, names: dict, reads: list) -> tuple:
    """(value, precedence, cut) of e. The value is the Python source of e
    with constants folded: an int when e is constant, else text with only
    the parentheses Python's precedence needs, each flat identifier it
    reads appended to `reads`. The precedence is that of its outermost
    operator, and cut, for an And text `x & c` with c an int or a Not text
    `x ^ mask`, the pair (`_r` of x, c or mask). The Add/Sub cut rule, the
    And-mask fold and the ~~x fold read it.

    An operand is written in parentheses only when its operator binds more
    loosely than its context; the right operand of `+ - & ^ |` needs a
    strictly tighter one, and a conditional's true arm and condition must
    not be conditionals."""
    t = type(e)
    if t is Ref:
        v = names[e.name]
        if type(v) is str:
            reads.append(v)
        return v, _ATOM, None
    if t is Slice:
        v = _r(e.base, names, reads)
        mask = (1 << e.width) - 1
        if type(v[0]) is int:
            return (v[0] >> e.lo) & mask, _ATOM, None
        if e.lo:
            v = f"{_wrap(v, _SHIFT)} >> {e.lo}", _SHIFT, None
        if e.lo + e.width == e.base.width:
            return v
        return f"{_wrap(v, _AND)} & {hex(mask)}", _AND, (v, mask)
    if t is Mux:
        mark = len(reads)
        cond = _truth(e.cond, names, reads)
        if type(cond[0]) is int:
            return _r(e.t if cond[0] else e.f, names, reads)
        tv = _r(e.t, names, reads)
        fv = _r(e.f, names, reads)
        if tv[0] == fv[0]:  # equal arms: render one, and cond is not read
            del reads[mark:]
            return _r(e.t, names, reads)
        return f"{_wrap(tv, _OR)} if {_wrap(cond, _OR)} else {_wrap(fv, _IF)}", _IF, None
    if t is Shl:
        v = _r(e.base, names, reads)
        if type(v[0]) is int:
            return v[0] << e.amount, _ATOM, None
        return (f"{_wrap(v, _SHIFT)} << {e.amount}", _SHIFT, None) if e.amount else v
    if t is Const:
        return e.value, _ATOM, None
    if t is Concat:
        const, terms, offset = 0, [], 0
        for p in reversed(e.parts):  # LSB side last in the tuple
            v = _r(p, names, reads)
            if type(v[0]) is int:
                const |= v[0] << offset
            else:
                terms.append((f"{_wrap(v, _SHIFT)} << {offset}", _SHIFT, None) if offset else v)
            offset += p.width
        if not terms:
            return const, _ATOM, None
        if const:
            terms.append((const, _ATOM, None))
        if len(terms) == 1:
            return terms[0]
        # every term after the first is shifted or a literal, so needs no parentheses
        return " | ".join(_wrap(v, _OR) for v in terms), _OR, None
    if t is Repl:
        v = _r(e.base, names, reads)
        if e.count == 1:
            return v
        factor = ((1 << e.width) - 1) // ((1 << e.base.width) - 1)  # 1 at the bottom of each copy
        if type(v[0]) is int:
            return v[0] * factor, _ATOM, None
        return f"{_wrap(v, _MUL)} * {hex(factor)}", _MUL, None
    mask = (1 << e.width) - 1
    if t is Not:
        v = _r(e.base, names, reads)
        if type(v[0]) is int:
            return v[0] ^ mask, _ATOM, None
        if v[1] == _XOR and v[2] and v[2][1] == mask:  # ~~x of one width is x
            return v[2][0]
        return f"{_wrap(v, _XOR)} ^ {hex(mask)}", _XOR, (v, mask)
    if t not in (Add, Sub, And, Xor):
        raise TypeError(f"unknown expression node {e!r}")
    mark = len(reads)
    if t is And:  # a bit replicated over the other operand selects it
        for r, other in ((e.a, e.b), (e.b, e.a)):
            if type(r) is Repl and r.base.width == 1:
                bit = _truth(r.base, names, reads)
                y = _r(other, names, reads) if bit[0] != 0 else (0, _ATOM, None)
                if y[0] == 0:
                    del reads[mark:]
                    return 0, _ATOM, None
                if type(bit[0]) is int:
                    return y
                return f"{_wrap(y, _OR)} if {_wrap(bit, _OR)} else 0x0", _IF, None
    x = _r(e.a, names, reads)
    y = _r(e.b, names, reads)
    xv, yv = x[0], y[0]
    if type(xv) is int and type(yv) is int:
        return {Add: xv + yv, Sub: xv - yv, And: xv & yv, Xor: xv ^ yv}[t] & mask, _ATOM, None
    if t is And:
        if xv == 0 or yv == 0:
            del reads[mark:]
            return 0, _ATOM, None
        if xv == mask or yv == mask:
            return y if xv == mask else x
        if type(yv) is int and x[1] == _AND and x[2]:  # (v & m) & k is v & (m & k)
            x, yv = x[2][0], x[2][1] & yv
            if not yv:
                del reads[mark:]
                return 0, _ATOM, None
            y = yv, _ATOM, None
        return (f"{_wrap(x, _AND)} & {_wrap(y, _SHIFT)}", _AND,
                (x, yv) if type(yv) is int else None)
    if yv == 0:
        return x
    if xv == 0 and t is not Sub:
        return y
    if t is Xor:
        return f"{_wrap(x, _XOR)} ^ {_wrap(y, _AND)}", _XOR, None
    # An operand cut to this width, `v & mask`, reads v: the sum keeps only
    # the bits below mask.
    if x[1] == _AND and x[2] and x[2][1] == mask:
        x = x[2][0]
    if y[1] == _AND and y[2] and y[2][1] == mask:
        y = y[2][0]
    s = f"{_wrap(x, _SUM)} {'+' if t is Add else '-'} {_wrap(y, _MUL)}", _SUM, None
    return f"{s[0]} & {hex(mask)}", _AND, (s, mask)


def _net(e, names: dict) -> tuple:
    """(folded source, reads) of one expression: the flat identifiers the
    source reads, in the order first read, as the keys of a dict."""
    log: list = []
    return _r(e, names, log)[0], dict.fromkeys(log)


_LOOKED = {Mux, Add, Sub}  # the nodes _look may rewrite


def _look(e, drivers: dict):
    """e as the renderer reads it, looking through the module's own nets
    (`drivers` maps each to its driver): an Add or Sub operand that is a net
    driven by `Slice(Ref(x), 0, w)` is that Slice, so the sum reads x and its
    own mask drops the bits above w. The walk follows Mux arms and Add/Sub
    chains from the root; it keeps each node it does not change."""
    t = type(e)
    if t not in _LOOKED:
        return e
    if t is Mux:
        x, y = _look(e.t, drivers), _look(e.f, drivers)
        return e if x is e.t and y is e.f else Mux(e.cond, x, y)
    if t is Add or t is Sub:
        x, y = e.a, e.b
        if type(x) is not Ref:
            x = _look(x, drivers)
        elif type(d := drivers.get(x.name)) is Slice and not d.lo and type(d.base) is Ref:
            x = d
        if type(y) is not Ref:
            y = _look(y, drivers)
        elif type(d := drivers.get(y.name)) is Slice and not d.lo and type(d.base) is Ref:
            y = d
        return e if x is e.a and y is e.b else t(x, y)


def _bits(e, names, ident: str) -> int:
    """The bits of the identifier `ident` that e reads, as a mask: a Slice of
    it reads the slice's bits, and any other read of it every bit (-1)."""
    mask, todo = 0, [e]
    while todo:
        e = todo.pop()
        t = type(e)
        if t is Slice and type(e.base) is Ref:
            if names[e.base.name] == ident:
                mask |= (1 << e.width) - 1 << e.lo
        elif t is Ref:
            if names[e.name] == ident:
                return -1
        else:
            todo += children(e)
    return mask


def _through(e, names, opened) -> tuple:
    """(e, names) read past each Mux whose condition folds to a constant and
    each Ref to a net that `opened` gives the (expression, names) of."""
    while True:
        if type(e) is Mux and type(c := _r(e.cond, names, [])[0]) is int:
            e = e.t if c else e.f
        elif type(e) is Ref and (got := opened(names[e.name])) is not None:
            e, names = got
        else:
            return e, names


def _column(e, names, opened):
    """(s, m) when e is the identifier s shifted left by one within its width
    and cut with the mask m: Slice(Shl(s, 1), 0, w), m all of s's bits but
    bit 0, or that And-ed with a constant k, m & k (toom's column register,
    the limbs of b side by side, clears bit 0 of each limb's field); else
    None."""
    e, names = _through(e, names, opened)
    mask = (1 << e.width) - 2
    if type(e) is And and type(k := _r(e.b, names, [])[0]) is int:
        e, names = _through(e.a, names, opened)
        mask &= k
    if type(e) is Slice and not e.lo:
        x, names = _through(e.base, names, opened)
        if type(x) is Shl and x.amount == 1:
            y, names = _through(x.base, names, opened)
            if type(y) is Ref and y.width == e.width:
                return names[y.name], mask
    return None


def _tested(e, names, opened):
    """(s, p, v, its names) when e is Mux(Slice(s, p, 1), v, 0), s an
    identifier, else None."""
    e, names = _through(e, names, opened)
    if type(e) is Mux and _r(e.f, names, [])[0] == 0:
        bit, bnames = _through(e.cond, names, opened)
        if type(bit) is Slice:
            s, snames = _through(bit.base, bnames, opened)
            if type(s) is Ref:
                return snames[s.name], bit.lo, e.t, names
    return None


def _scaled(v, names, opened, width: int) -> tuple:
    """(x, k, x's names) with v = x << k modulo 2^width: v read past each left
    shift, and each low cut that keeps the bits below `width`."""
    k = 0
    while True:
        e, enames = _through(v, names, opened)
        if type(e) is Shl:
            k += e.amount
        elif type(e) is not Slice or e.lo or e.width + k < width:
            return v, k, names
        v, names = e.base, enames


def _operands(e, names, opened) -> list:
    """The operands of the Add/Sub tree, or the Xor tree, e, left to right,
    looking through each net `opened` gives: [(negated, operand, its
    names)], negated where the tree subtracts the operand."""
    kinds = (Xor,) if type(e) is Xor else (Add, Sub)
    out, todo = [], [(False, e, names)]
    while todo:
        neg, x, xnames = todo.pop()
        x, xnames = _through(x, xnames, opened)
        if type(x) in kinds:
            todo += [(neg != (type(x) is Sub), x.b, xnames), (neg, x.a, xnames)]
        else:
            out.append((neg, x, xnames))
    return out


def _serial(regs: list, opened):
    """The registers of a bit-serial accumulate phase, `regs` holding each
    register's (identifier, next state, its names) and `opened` giving the
    (expression, names) of each net: (the column registers {s: m}, each
    s' = s << 1 & m (`_column`); the accumulators, each (r, whether it XORs,
    its gated operands [(negated, s, p, x, k, x's names)])), r' = Slice(Shl(r,
    1), 0, w) plus a signed Add/Sub chain, or an Xor chain, of the operands
    Mux(Slice(s, p, 1), v, 0), s a column register and v = x << k modulo 2^w
    (`_scaled`). None when a register is neither or no accumulator is."""
    cols, accs = {}, []
    for r, e, names in regs:
        e, names = _through(e, names, opened)
        col = _column(e, names, opened)
        if col and col[0] == r:
            cols[r] = col[1]
            continue
        if type(e) not in (Add, Sub, Xor):
            return None
        doubled, gated = False, []
        for neg, x, xnames in _operands(e, names, opened):
            if not doubled and not neg and _column(x, xnames, opened) == (r, (1 << e.width) - 2):
                doubled = True
            elif g := _tested(x, xnames, opened):
                s, p, v, vnames = g
                gated.append((neg, s, p, *_scaled(v, vnames, opened, e.width)))
            else:
                return None
        if not doubled or not gated:
            return None
        accs.append((r, type(e) is Xor, gated))
    if not accs or any(s not in cols for *_, gated in accs for _, s, *_ in gated):
        return None
    return cols, accs
