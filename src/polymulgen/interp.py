"""Reference interpreter for the RTL IR.

The instance tree is flattened by renaming: each net of each module instance
gets a fresh Python identifier n<i>, each register a local r<i>, and a child
port bound to a parent net reuses that net's identifier. Nets are ordered by
one iterative depth-first search over their reads, which also names the nets
of a combinational loop.

Sibling instances repeat state: karatsuba2's three cores and toom's point
multipliers each step their own copy of one schedule, and several of toom's
shift registers hold the same operand limb. Once the undriven-net and loop
checks have passed on the whole netlist, a merge keeps one representative per class of equivalent
registers and nets (register correspondence, van Eijk 2000): registers of
equal width and reset are assumed equal, and a class splits while its
members' next-state texts differ with every identifier renamed to its
representative. Nets are hash-consed in dependency order on (width, renamed
text), so a net that renders like an earlier one of its width is that net.
Everything after sees only the representatives.

The flat netlist then splits in two. What the operands a/b reach, over net
drivers and register next-states, is the datapath. The rest is the control
state: one-hot counters, first/done/run bits, the ld pulse, the digit ring,
the done latch. Its trajectory is the same in every transaction, so each
design compiles into two functions:

- `_sched(cycles)` steps only the control registers. It returns the rows, one
  tuple per cycle of the control values the datapath reads (guards such as
  run/ld/first, values such as the wrapper's digit ring), and the control
  values c's cone reads after the last edge.
- `_run(a, b, rows, last)` runs one transaction of the datapath. The guards
  are the row values one bit wide; a phase is one tuple of their values, and
  `rows` is the schedule grouped into maximal runs of equal guards: (phase,
  segment) pairs, a segment holding the run's wider values (the wrapper's
  digit ring), or its length when there are none. `_run` has three parts:
  - hoist: nets that read only the operands a/b, constants and other such
    nets are computed once, above every loop;
  - phases: `for p, seg in rows:` dispatches to one block per phase, which
    steps it with `for <wider values> in seg:` (or `range(seg)`). A block
    is the datapath with the phase's guards bound as constants: every net
    and register whose text reads a guard, or a net that folds to a
    constant under them, is rendered again through the same folder, so an
    arm the guards do not select is not read at all. Its commit, one tuple
    assignment from the pre-edge state, holds only the registers whose next
    state is not themselves; the nets it needs are found from it backwards.
    A net that reads only what the phase holds (the operands, the hoisted
    nets, the registers it does not load, and other such nets) is evaluated
    once on entry to the block, so toom's held point operands are
    sign-extended once per phase, not once per cycle. A net that one text
    reads, once, at the same point (on entry or on every cycle) is written
    into that text, and so is a copy of a name, unless the text would nest
    too deep for Python's parser (the wrapper's d-way digit select);
  - output cone: c's cone is evaluated once, after the loops, from the final
    state and `last`, so `run(a, b, cycles=k)` returns what c shows after k
    posedges for every k.

A Simulator runs `_sched` for the latency and renders `_run` over the phases
those rows meet when it is built. A run of another length groups its own rows
once and keeps them; when they meet a guard tuple no block has yet (a run past
the latency may), `_run` is rendered and compiled again over every phase met
so far, with the same renderer. `_sched` evaluates each control net that a
register or a row needs, and that is not a constant, on every cycle.

Rendering folds constants in the same pass. rst is the constant 0 during a
run, so the top's rst folds away: a register's reset mux survives only where
its module's rst is a net (toom's child reset `crst = rst | ld`, which folds
to the bare `ld`). Constant operands fold, identities (`x & 0`, `x ^ 0`,
`x + 0`, a Mux on a constant condition or with equal arms, `~~x`, ...) drop
their operator, zero Concat parts vanish, a Slice that reaches its base's
top keeps no mask, and an Add or Sub reads an operand cut to its own width,
`x & mask`, as x, since its own mask drops the bits above. Three more rules
spare the loops work:

- a bit replicated over the other operand of an And selects it:
  `And(Repl(n, x), y)` with x one bit wide is `y if x else 0x0`, so the
  wrapper's digit select slices b for the chosen digit only;
- a bit read only for its truth (a Mux condition, the x above) below its
  base's top is tested with one AND, `v & 2^lo`, not `v >> lo & 0x1`;
- an Add or Sub operand that is a net of its module driven by
  `Slice(Ref(x), 0, w)` is read through that cut, as x (`_flatten` writes
  the Slice in), so a shift-add accumulator renders `(r << 1) + t & M`,
  masking `r << 1` once, not twice.

A text holds only the parentheses Python's operator precedence needs, since
the parser's time grows with every pair; a phase that writes one net's text
into another's puts it in parentheses, unless it is a name, a literal or
the reader's whole value.

A read that folds away is not a read, so hoisting, phases and the
control/datapath split see only what the text reads.

A transaction is: registers at reset values (the one-cycle rst pulse), then
`latency_cycles` posedges with rst low and a/b held stable, then read c.
"""
from __future__ import annotations

import re
from collections import Counter
from itertools import chain, groupby
from operator import itemgetter

from .ir import (Add, And, Concat, Const, Mux, Not, Ref, Repl, RtlModule, Shl,
                 Slice, Sub, Xor, ref_nodes)

# the deepest nesting of parentheses a phase lets a text reach by writing
# other nets into it; Python's parser refuses a line nested 200 deep
_NEST = 150
# a flat net or register identifier in kernel text, where no other token
# (a, b, c, hex and decimal literals, operators, if/else) holds an n or an r
_IDENT = re.compile(r"([nr][0-9]+)")


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


def _pysrc(e, names: dict, reads: list):
    """Python source of e with constants folded: an int when e is constant,
    else text with only the parentheses Python's precedence needs. Appends
    each flat identifier the text reads to `reads`; an int reads nothing."""
    return _r(e, names, reads)[0]


def _r(e, names: dict, reads: list) -> tuple:
    """(value, precedence, cut) of e: the value is `_pysrc`'s, the
    precedence that of its outermost operator, and cut, for an And text
    `x & c` with c an int or a Not text `x ^ mask`, the pair (`_r` of x, c
    or mask). The Add/Sub cut rule and the ~~x fold read it.

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
    src = _pysrc(e, names, log)
    return src, dict.fromkeys(log)


def _fresh(origin: dict, where: tuple) -> str:
    ident = f"n{len(origin)}"
    origin[ident] = where
    return ident


def _uncut(e, cuts: dict):
    """e with each Add or Sub operand that is a net of `cuts`, one driven by
    `Slice(Ref(x), 0, w)`, replaced by that Slice, so that the sum reads x:
    its own mask drops the bits above w. The walk follows Mux arms and
    Add/Sub chains from the root; it keeps each node it does not change."""
    t = type(e)
    if t is Mux:
        x, y = _uncut(e.t, cuts), _uncut(e.f, cuts)
        return e if x is e.t and y is e.f else Mux(e.cond, x, y)
    if t is Add or t is Sub:
        x, y = (cuts.get(v.name, v) if type(v) is Ref else _uncut(v, cuts) for v in (e.a, e.b))
        return e if x is e.a and y is e.b else t(x, y)
    return e


def _flatten(mod: RtlModule, names: dict, origin: dict, nets: dict, regs: list,
             widths: dict, exprs: dict) -> None:
    """Add mod and the instances below it to the flat netlist.

    `names` maps mod's ports to the identifiers the caller bound them to, or
    to 0 for the top's rst. `origin` maps each fresh net identifier to its
    (module, net name), `nets` each driven one to `_net` of its driver;
    `regs` collects (identifier, reset, `_net` of the value after the edge),
    `widths` the width of each driven net and register, and `exprs` the
    expression and the instance's names each of those texts was rendered
    from, so that a phase can render it again. Each expression is first
    passed through `_uncut` with mod's cut nets, and `exprs` keeps the result.
    """
    names = dict(names)
    cuts = {a.target: a.expr for a in mod.assigns
            if type(a.expr) is Slice and a.expr.lo == 0 and type(a.expr.base) is Ref}
    for n in mod.nets:
        names[n.name] = _fresh(origin, (mod, n.name))
    for i, r in enumerate(mod.regs, len(regs)):
        names[r.name] = f"r{i}"
    for a in mod.assigns:
        t, e = names[a.target], _uncut(a.expr, cuts)
        nets[t], widths[t], exprs[t] = _net(e, names), e.width, (e, names)
    for r in mod.regs:  # the top's rst folds to 0, so only a child reset net keeps this mux
        after = Mux(Ref("rst", 1), Const(r.width, r.reset), _uncut(r.next, cuts))
        regs.append((names[r.name], r.reset, _net(after, names)))
        widths[names[r.name]], exprs[names[r.name]] = r.width, (after, names)
    kids = {child.name: child for child in mod.children}
    for inst in mod.instances:
        bound = {}
        for port, e in inst.bindings:
            if type(e) is Ref:
                bound[port] = names[e.name]
            else:
                t = bound[port] = _fresh(origin, (mod, f"{inst.name}.{port}"))
                e = _uncut(e, cuts)
                nets[t], widths[t], exprs[t] = _net(e, names), e.width, (e, names)
        _flatten(kids[inst.module_name], bound, origin, nets, regs, widths, exprs)


def _names_read(mod: RtlModule) -> set:
    """The names mod's expressions refer to."""
    exprs = [a.expr for a in mod.assigns] + [r.next for r in mod.regs]
    exprs += [e for inst in mod.instances for _, e in inst.bindings]
    return {r.name for e in exprs for r in ref_nodes(e)}


def _order(deps: dict, origin: dict) -> list:
    """The nets of `deps` (net -> the nets it reads, sorted) in dependency
    order: one iterative depth-first search, each net's dependencies visited in
    sorted order. A combinational loop raises ValueError naming its nets."""
    order: list = []
    done: set = set()
    for root in deps:
        if root in done:
            continue
        stack, depth = [(root, iter(deps[root]))], {root: 0}  # depth: nets on the stack
        while stack:
            t, todo = stack[-1]
            for d in todo:
                if d in depth:
                    loop = [u for u, _ in stack[depth[d]:]]
                    raise ValueError("combinational loop through " + ", ".join(
                        f"{origin[u][0].name}.{origin[u][1]}" if u in origin else u for u in loop))
                if d not in done:
                    depth[d] = len(stack)
                    stack.append((d, iter(deps[d])))
                    break
            else:
                stack.pop()
                del depth[t]
                done.add(t)
                order.append(t)
    return order


def _live(order: list, nets: dict, roots: list) -> dict:
    """The nets of `order` that the reads `roots` need, in `order`, as the
    keys of a dict."""
    need = set().union(*roots)
    live = []
    for t in reversed(order):  # readers come later in dependency order
        if t in need:
            live.append(t)
            need.update(nets[t][1])
    return dict.fromkeys(reversed(live))


def _hoist(order: list, nets: dict, known: set) -> set:
    """`known` and the nets of `order` that read only what is known before
    the first cycle."""
    known = set(known)
    for t in order:
        if nets[t][1].keys() <= known:
            known.add(t)
    return known


def _merge(nets: dict, regs: list, order: list, widths: dict) -> tuple:
    """(nets, regs, order, rep) with one representative per class of
    equivalent registers and nets, rep taking each merged identifier to its
    class's. Every text and its reads are renamed to the representatives.

    Register correspondence: the greatest partition of the registers in which
    the members of a class have equal widths, equal resets and equal
    next-state texts once every identifier is renamed to its class's
    representative. It starts from the classes of equal (width, reset) and
    splits them until none splits. In each round the nets are hash-consed in
    `order`: a net keyed like an earlier one by (width, renamed text) is an
    alias of it. The representative is the first member in `order` or in
    register order; c is never merged."""
    pieces: dict = {}  # text -> text.split at its identifiers, on first use

    def renamed(src: str) -> str:
        """src with each identifier renamed to its representative."""
        if src not in pieces:
            pieces[src] = _IDENT.split(src)
        parts = pieces[src][:]
        parts[1::2] = [rep.get(i, i) for i in parts[1::2]]
        return "".join(parts)

    classes: dict = {}
    for reg in regs:
        classes.setdefault((widths[reg[0]], reg[1]), []).append(reg)
    classes = list(classes.values())
    hashed = [(t, widths[t], *nets[t]) for t in order if t != "c"]
    while True:
        rep = {r[0]: cls[0][0] for cls in classes for r in cls[1:]}  # each merged identifier
        merged = rep.keys()
        text: dict = {}  # the renamed text of each net and register that reads a merged one
        first: dict = {}
        for t, width, src, reads in hashed:
            if not merged.isdisjoint(reads):
                src = text[t] = renamed(src)
            if (f := first.setdefault((width, src), t)) != t:
                rep[t] = f
        split = [cls for cls in classes if len(cls) == 1]
        for cls in classes:
            if len(cls) > 1:
                by_text: dict = {}
                for reg in cls:
                    r, _, (src, reads) = reg
                    if not merged.isdisjoint(reads):
                        src = text[r] = renamed(src)
                    by_text.setdefault(src, []).append(reg)
                split.extend(by_text.values())
        if len(split) == len(classes):
            break
        classes = split
    if not rep:
        return nets, regs, order, rep

    def rename(t: str, net: tuple) -> tuple:
        src, reads = net
        if merged.isdisjoint(reads):
            return net
        return text[t] if t in text else renamed(src), dict.fromkeys(rep.get(i, i) for i in reads)

    return ({t: rename(t, net) for t, net in nets.items() if t not in rep},
            [(r, reset, rename(r, net)) for r, reset, net in regs if r not in rep],
            [t for t in order if t not in rep], rep)


class _Bound:
    """An instance's names as a phase renders them: each flat identifier
    renamed to its merge representative, then to the constant or identifier
    the phase binds that to."""

    __slots__ = ("names", "rep", "bound")

    def __init__(self, names: dict, rep: dict, bound: dict):
        self.names, self.rep, self.bound = names, rep, bound

    def __getitem__(self, name: str):
        v = self.names[name]
        if type(v) is str:
            v = self.rep.get(v, v)
            return self.bound.get(v, v)
        return v


def _kernel(nets: dict, regs: list, order: list, widths: dict, exprs: dict, rep: dict) -> tuple:
    """The kernel of a flat netlist that drives c, its nets in dependency
    `order`: (source of `_sched(cycles)`, the guards that lead each row,
    whether wider values follow them, `runner`). `runner(phases)` returns the
    source of `_run(a, b, rows, last)` with one block per phase, a tuple of
    the guards' values each; a phase renders a text again from `exprs`, seen
    through the merge's `rep`, with the guards bound."""
    edges = {t: reads.keys() for t, (_, reads) in nets.items()}
    edges.update((r, reads.keys()) for r, _, (_, reads) in regs)
    # What a or b reaches is the datapath; the rest, the control state, runs
    # the same in every transaction.
    readers: dict = {}
    for t, reads in edges.items():
        for r in reads:
            readers.setdefault(r, []).append(t)
    data, todo = {"a", "b"}, ["a", "b"]
    while todo:
        for t in readers.get(todo.pop(), ()):
            if t not in data:
                data.add(t)
                todo.append(t)
    cone = {"c"}
    for t in reversed(order):
        if t in cone:
            cone |= edges[t] & nets.keys()

    def assign(t: str, src, pad: str) -> str:
        return f"{pad}{t} = {_lit(src)}"

    def tup(idents: list) -> str:
        return f"{', '.join(idents)}," if idents else ""

    def commit(regs: list, pad: str) -> str:
        """One tuple assignment of the (register, text) pairs `regs`."""
        return f"{pad}{tup([r for r, _ in regs])} = {', '.join(_lit(src) for _, src in regs)},"

    dnets, dregs = [t for t in order if t in data], [r for r in regs if r[0] in data]
    cnets, cregs = [t for t in order if t not in data], [r for r in regs if r[0] not in data]
    hoisted = _hoist(dnets, nets, {"a", "b"})
    inner = [t for t in dnets if t not in hoisted]
    # the control values the datapath's nets and registers read, the 1-bit
    # guards first, and those c's cone reads after the last edge
    rows = sorted({r for t in inner + [r[0] for r in dregs] for r in edges[t]} - data)
    guards, wide = [t for t in rows if widths[t] == 1], [t for t in rows if widths[t] != 1]
    last = sorted({r for t in dnets if t in cone and t not in hoisted for r in edges[t]} - data)
    if "c" not in data:
        last.append("c")

    fixed = _hoist(cnets, nets, set())
    clive = _live(cnets, nets, [reads for _, _, (_, reads) in cregs] + [rows])
    sched = ["def _sched(cycles):", *[assign(t, nets[t][0], "    ") for t in cnets
                                      if t in fixed and (t in clive or t in cone)]]
    if cregs:
        sched.append(f"    {tup([r[0] for r in cregs])} = {', '.join(hex(r[1]) for r in cregs)},")
    sched += ["    rows = []", "    for _ in range(cycles):",
              *[assign(t, nets[t][0], " " * 8) for t in clive if t not in fixed],
              f"        rows.append(({tup(guards + wide)}))"]
    if cregs:
        sched.append(commit([(r, src) for r, _, (src, _) in cregs], " " * 8))
    sched += [assign(t, nets[t][0], "    ") for t in cnets if t in cone and t not in fixed]
    sched.append(f"    return rows, ({tup(last)})")

    # the nets binding the guards can change: those that read a guard, or a
    # net that does
    touched = set(guards)
    for t in inner:
        if not touched.isdisjoint(edges[t]):
            touched.add(t)
    tnets = [t for t in inner if t in touched]
    specs: dict = {}  # (identifier, what it reads as bound) -> its text rendered under that
    known = hoisted | {"a", "b", *[r[0] for r in dregs]}

    def spec(t: str, bound: dict) -> tuple:
        """`_net` of t's expression with the bindings `bound`."""
        key = (t, *map(bound.get, edges[t]))
        if key not in specs:  # a Mux on a guard bound to a constant renders its arm
            e, names = exprs[t]
            specs[key] = _net(e, _Bound(names, rep, bound))
        return specs[key]

    def phase(values: tuple) -> tuple:
        """(lines, the hoisted nets read) of the block that runs the phase in
        which the guards hold `values`, or ([], ()) when no register changes
        in it."""
        bound = dict(zip(guards, values))
        binds = bound.keys()
        pnets = dict(nets)
        for t in tnets:
            if not binds.isdisjoint(edges[t]):
                src, _ = pnets[t] = spec(t, bound)
                if type(src) is int:  # its readers read the constant
                    bound[t] = src
        changing = []
        for r, _, net in dregs:
            if not binds.isdisjoint(edges[r]):
                net = spec(r, bound)
            if net[0] != r:
                changing.append((r, net))
        if not changing:
            return [], ()
        live = _live(inner, pnets, [reads for _, (_, reads) in changing])
        count = Counter(chain.from_iterable(
            [pnets[t][1] for t in live] + [reads for _, (_, reads) in changing]))
        target = tup(wide) if wide and not count.keys().isdisjoint(wide) else "_"
        # One walk forward. A net that reads only what the phase holds (the
        # operands, the registers it does not load, the hoisted nets) is
        # evaluated on entry. A net that one text reads, once, at the same
        # point (on entry, or on every cycle) is written into that text, and
        # so is a copy of a name into each text that reads it once. A text
        # written in is put in parentheses unless it is a name or a literal,
        # or the reader's whole value, since the context it lands in is not
        # known. A write stops at _NEST: a text's nesting is at most its own
        # "(" count plus the deepest such bound of a text written into it,
        # plus the pair around that text.
        fixed = known.difference([r for r, _ in changing])
        left = count.copy()  # the texts that still read each net
        once = {t for t in live if count[t] == 1 or _name(pnets[t][0])}
        nest: dict = {}

        def inline(src, reads: dict, entry: bool) -> tuple:
            own = deepest = _lit(src).count("(")
            for r in reads:
                if r in once and src.count(r) == 1:  # a name in src, and no name it begins
                    rsrc = _lit(pnets[r][0])
                    bare = src == r or _name(rsrc) or type(pnets[r][0]) is int
                    deep = own + nest.get(r, rsrc.count("(")) + (not bare)
                    if _name(rsrc) or count[r] == 1 and (r in fixed) == entry and deep <= _NEST:
                        src = src.replace(r, rsrc if bare else f"({rsrc})")
                        left[r] -= 1
                        deepest = max(deepest, deep)
            return src, deepest

        for t in live:
            src, reads = pnets[t]
            entry = fixed.issuperset(reads)
            if entry:
                fixed.add(t)
            if not once.isdisjoint(reads):
                src, nest[t] = inline(src, reads, entry)
                pnets[t] = src, reads
        commits = [(r, inline(src, reads, False)[0]) for r, (src, reads) in changing]
        live = [t for t in live if left[t]]
        return [*[assign(t, pnets[t][0], " " * 12) for t in live if t in fixed],
                f"            for {target} in {'seg' if wide else 'range(seg)'}:",
                *[assign(t, pnets[t][0], " " * 16) for t in live if t not in fixed],
                commit(commits, " " * 16)], hoisted.intersection(count)

    tail = [assign(t, nets[t][0], "    ") for t in dnets if t in cone and t not in hoisted]
    blocks: dict = {}  # guard values -> phase(values)

    def runner(phases: list) -> str:
        loop, needed = [], set(cone)
        for i, values in enumerate(phases):
            if values not in blocks:
                blocks[values] = phase(values)
            lines, read = blocks[values]
            if lines:
                loop += [f"        {'elif' if loop else 'if'} p == {i}:", *lines]
                needed.update(read)
        for t in reversed(dnets):  # and the hoisted nets those read
            if t in needed and t in hoisted:
                needed.update(edges[t])
        run = ["def _run(a, b, rows, last):",
               *[assign(t, nets[t][0], "    ") for t in dnets if t in hoisted and t in needed]]
        if dregs:
            run.append(f"    {tup([r[0] for r in dregs])} = {', '.join(hex(r[1]) for r in dregs)},")
        if loop:
            run += ["    for p, seg in rows:", *loop]
        run += [f"    {tup(last)} = last"] if last else []
        return "\n".join([*run, *tail, "    return c"]) + "\n"

    return "\n".join(sched) + "\n", guards, bool(wide), runner


class Simulator:
    """Compiled simulator for one top module and the modules below it.

    The instance tree is walked through each module's `children`; `library`
    is accepted for the callers that pass one and is not read."""

    def __init__(self, top: RtlModule, library: dict):
        self.top = top
        self.latency = top.latency_cycles
        self._aw = top.ports[2].width
        self._bw = top.ports[3].width

        nets: dict = {}
        regs: list = []
        origin: dict = {}
        widths: dict = {}
        exprs: dict = {}
        ports = {p.name: p.name for p in top.ports}
        ports["rst"] = 0
        _flatten(top, ports, origin, nets, regs, widths, exprs)
        if "c" not in nets:
            raise ValueError("top output c is never driven")
        for t, (mod, net) in origin.items():
            if t not in nets and net in _names_read(mod):  # folded-away reads count
                raise ValueError(f"net {net} of module {mod.name} is read but never driven")
        order = _order({t: sorted(reads.keys() & nets.keys()) for t, (_, reads) in nets.items()},
                       origin)

        nets, regs, order, rep = _merge(nets, regs, order, widths)
        self._sched_source, self._guards, self._wide, self._runner = _kernel(
            nets, regs, order, widths, exprs, rep)
        ns: dict = {}
        exec(self._sched_source, ns)  # compiled once per configuration
        self._sched, self._run = ns["_sched"], None
        self._phases: dict = {}  # guard values -> phase number, in the order first met
        self._plans: dict = {}  # cycles -> (the rows grouped into phases, last)
        self._plan(self.latency)

    def _plan(self, cycles: int) -> tuple:
        """The rows of a run of `cycles` grouped into phases, as `_run` takes
        them, and last. Meeting a phase for the first time renders and
        compiles `_run` again, over every phase met so far."""
        rows, last = self._sched(cycles)
        width, fresh, plan = len(self._guards), self._run is None, []
        for values, segment in groupby(rows, itemgetter(slice(0, width))):
            if values not in self._phases:
                self._phases[values] = len(self._phases)
                fresh = True
            plan.append((self._phases[values], [row[width:] for row in segment] if self._wide
                         else sum(1 for _ in segment)))
        if fresh:
            run = self._runner(list(self._phases))
            ns: dict = {}
            exec(run, ns)
            self._run, self._source = ns["_run"], self._sched_source + "\n" + run
        self._plans[cycles] = plan, last
        return plan, last

    @property
    def source(self) -> str:
        """The generated `_sched` and `_run` Python source, for debugging."""
        return self._source

    def run(self, a: int, b: int, cycles: int | None = None) -> int:
        """One full transaction: reset, apply operands for `cycles` posedges,
        return the value on c."""
        if not 0 <= a < (1 << self._aw) or not 0 <= b < (1 << self._bw):
            raise OverflowError("operands do not fit the module ports")
        cycles = self.latency if cycles is None else cycles
        if cycles < 0:
            raise ValueError(f"cycles {cycles} < 0")
        rows, last = self._plans.get(cycles) or self._plan(cycles)
        return self._run(a, b, rows, last)


def compile_sim(top: RtlModule, library: dict) -> Simulator:
    return Simulator(top, library)
