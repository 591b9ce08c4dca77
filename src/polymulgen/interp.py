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
Everything after sees only the representatives, and no net that neither c
nor a register reads.

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
  digit ring) where the phase's block reads them, else the run's length.
  `_run` has three parts:
  - hoist: nets that read only the operands a/b, constants and other such
    nets are computed once, above every loop. A datapath net that is a copy
    of a name is that name: every text reads the name instead;
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
    sign-extended once per phase, not once per cycle. Every other live net
    keeps a line of its own, except a copy of a name, which is written into
    each text that reads it;
  - output cone: c's cone is evaluated once, after the loops, from the final
    state and `last`, so `run(a, b, cycles=k)` returns what c shows after k
    posedges for every k.

A Simulator runs `_sched` for the latency and renders `_run` over the phases
those rows meet when it is built. A run of another length groups its own rows
once and keeps them; when they meet a guard tuple no block has yet (a run past
the latency may), `_run` is rendered and compiled again over every phase met
so far, with the same renderer. `_sched` evaluates each control net that a
register or a row needs, and that is not a constant, on every cycle.

Each expression is rendered by `render`, which folds constants in the same
pass, after `_flatten` has looked through the module's own nets (`_look`)
for a sum's operands cut to its width.

A bit-serial accumulate phase steps K cycles per loop iteration, as the
digit-serial form consumes n bits of b per cycle. Where every register a
phase changes is a column register, `s << 1 & M`, or an accumulator,
`r << 1` plus a signed Add/Sub (or an Xor) chain of operands gated by a bit
p_i of a column register, each v_i fixed for the phase, and the loop reads
no wide row value, the block first runs `for _ in range(seg // K)` with
`s << K & M'`; ix_i, the K bits of s from p_i down, is computed once per
iteration for the operands that read it. Over K cycles an integer
accumulator adds v_i * ix_i, so it steps as
`(r << K) + x * (ix_1 + (ix_2 << k) - ...) ... & M`, one product per
distinct x for the operands v_i = +-x << k, and K is as large as the run
and the column registers allow: bits p_i - K + 1..p_i must reach p_i
through the one-cycle mask (`_reach`). Python has no carry-less multiply,
so a gf2 accumulator reads a table of gated XORs instead, as in distributed
arithmetic (White, "Applications of Distributed Arithmetic to Digital Signal
Processing: A Tutorial Review", IEEE ASSP Magazine 1989):
`(r << K ^ h_i[ix_i] ...) & M`,
h_i the 2^K XORs of the subsets of v_i << j, j < K (`_sums`), built in the
hoist when v_i reads only a/b, else on entry, and shared by operands equal
up to a left shift (`h[ix] << k`). These tables are the only ones a kernel
reads. The one-cycle loop runs the `seg % K` cycles left, and every cycle
of a phase that does not step, adding each gated operand on its own, so
`run(a, b, cycles=k)` stays exact for every k. `render._serial` matches the
shapes, and `_steps` picks K from the phase's longest run in the schedule
in which the simulator first meets it, its runs and, for gf2, its tables:
an integer phase run once per transaction steps from a run of 27 cycles
(sbm from m = 28, karatsuba2 from 53, toom3 from 82, toom4 from 109), and
gf2 sbm from m = 88 (K = 6 at m = 1024), karatsuba2 from m = 173 and the
wrapper from m = 89 with n = m and from four digits with n = 32.

A transaction is: registers at reset values (the one-cycle rst pulse), then
`latency_cycles` posedges with rst low and a/b held stable, then read c.
"""
from __future__ import annotations

import re
from collections import Counter
from itertools import groupby
from operator import itemgetter

from .ir import Const, Mux, Ref, RtlModule, ref_nodes
from .render import _AND, _ATOM, _MUL, _SHIFT, _SUM, _lit, _look, _name, _net, _r, _serial, _wrap

# a flat net or register identifier in kernel text, where no other token
# (a, b, c, hex and decimal literals, operators, if/else) holds an n or an r
_IDENT = re.compile(r"([nr][0-9]+)")
# what compiling a K-step's loop costs, in cycles of the loop it replaces
# (`_steps`): with tables of sums, and with one product per operand
_TEXT, _PRODUCT = 48, 24


def _steps(span: int, runs: int, built: float | None, reach: int = 0) -> int:
    """How many cycles K a bit-serial accumulate phase steps per loop
    iteration, when it runs `runs` times per transaction for at most `span`
    cycles in a row. Counted in cycles of the one-cycle loop, a cycle adding
    each gated operand once: each iteration saves K - 1 and each run sets up
    one more loop (about 2). K is 1 (no K-step) unless the gain also repays
    compiling the loop's text.

    An integer step (`built` None) multiplies and builds nothing: K is as
    large as the run and the column registers (`reach`) allow,
    min(span, reach), and it fires when that K gains _PRODUCT cycles, so a
    phase that runs once per transaction steps from a run of 27 cycles: sbm
    from m = 28 (K = 1023 at m = 1024), karatsuba2 from m = 53, toom3 from
    m = 82 and toom4 from m = 109 (K = h - 1), the wrapper with n = m from
    m = 29 and with n = 16 from three digits. Measured on a 2-core Xeon (the
    step against the one-cycle loop, compile time and time per vector each
    best of 40, in process), the step adds 0.1 ms of compile time for sbm
    and the wrapper, 0.2 for karatsuba2, 0.3 for toom3 and 0.4-0.5 for
    toom4, and repays it after about 27 vectors for sbm at m = 28, 12 at
    m = 48 and 9 at 64; 15 for karatsuba2 at m = 53 and 10 at 64; 8 for
    toom3 at m = 82 and toom4 at m = 109; 22 for the wrapper at m = n = 29
    and 13-15 at 64/8 and 64/16. Below the threshold it would repay after
    19-22 vectors (toom3 and toom4 at m = 64) and 30-47 (karatsuba2 at
    m = 32, sbm at 16). Over the benchmark's 67 small integer designs,
    compile plus 16 vectors each summed to 130.7-133.7 ms for thresholds
    from 12 to 48 cycles, and to 140.4 ms with no integer step.

    A gf2 step has no carry-less multiply to use: it reads tables of the 2^K
    XORs of gated operands (`_sums`), and `built` is the tables it builds
    per transaction for each of its gated operands (a table built in the
    hoist once, one built on entry `runs` times), each costing about 2^K
    gated sums. K is the one in 2..7 with the largest gain, which must also
    repay compiling the tables and the loops (_TEXT cycles). Measured the
    same way when integer steps read tables too, a table step repaid its
    compile time after about 80 vectors for sbm at m = 32, 31 at m = 64,
    11 at m = 96 and 4 at m = 128; after 11 and 14 for karatsuba2 at
    m = 163 and 192; after 9 for the wrapper at m = n = 96 and 15 at
    128/32. _TEXT puts the threshold near 16 vectors: gf2 sbm steps from
    m = 88 (K = 3) and six cycles at a time at m = 1024, karatsuba2 from
    m = 173, the wrapper with n = m from m = 89, with n = 32 from four
    digits and with n = 8 from 28."""
    def gain(k: int) -> float:
        return runs * (span // k * (k - 1) - 2) - 2 ** k * (built or 0)
    if built is None:
        k = min(span, reach)
        return k if k > 1 and gain(k) >= _PRODUCT else 1
    if runs * (span - 2) < _TEXT:  # no K gains that much
        return 1
    k = max(range(2, 8), key=gain)
    return k if gain(k) >= _TEXT else 1


def _reach(mask: int, p: int) -> int:
    """The most cycles K a K-step can take through bit p of a column
    register whose one-cycle shift is `s << 1 & mask`: bits p - K + 1..p
    reach p when bits p - K + 2..p of mask are set, and p >= K - 1."""
    return p + 1 - max((~mask & (2 << p) - 1).bit_length() - 1, 0)


def _kept(mask: int, k: int) -> int:
    """The mask of K one-cycle shifts `s << 1 & mask`: the bits of mask whose
    k - 1 bits below are set too."""
    n = 1
    while n < k:
        step = min(n, k - n)
        mask &= mask << step
        n += step
    return mask


def _sums(v: int, k: int, xor: int) -> list:
    """The table a gf2 K-step reads (`_steps`): the 2^k XORs (`xor` set)
    or sums of the subsets of v << j, j < k, entry i holding those at the
    set bits of i. Entry i of the sums is v * i, the product an integer
    K-step reads instead."""
    t = [0]
    for _ in range(k):
        t += [x ^ v for x in t] if xor else [x + v for x in t]
        v <<= 1
    return t


def _renamed(net: tuple, to: dict) -> tuple:
    """The (text, reads) `net` with each identifier in `to` renamed to what
    `to` maps it to."""
    if to.keys().isdisjoint(net[1]):
        return net
    parts = _IDENT.split(net[0])
    parts[1::2] = [to.get(i, i) for i in parts[1::2]]
    return "".join(parts), dict.fromkeys(to.get(i, i) for i in net[1])


def _fresh(origin: dict, where: tuple) -> str:
    ident = f"n{len(origin)}"
    origin[ident] = where
    return ident


def _flatten(mod: RtlModule, names: dict, origin: dict, nets: dict, regs: list,
             widths: dict, exprs: dict) -> None:
    """Add mod and the instances below it to the flat netlist.

    `names` maps mod's ports to the identifiers the caller bound them to, or
    to 0 for the top's rst. `origin` maps each fresh net identifier to its
    (module, net name), `nets` each driven one to the (text, reads) of `_net`
    of its driver; `regs` collects (identifier, reset, the same of the value
    after the edge), `widths` the width of each driven net and register, and
    `exprs` the expression and the instance's names each of those texts was
    rendered from, so that a phase can render it again. Each expression is
    first passed through `_look` with mod's drivers, and `exprs` keeps the
    result.
    """
    names = dict(names)
    drivers = {a.target: a.expr for a in mod.assigns}
    for n in mod.nets:
        names[n.name] = _fresh(origin, (mod, n.name))
    for i, r in enumerate(mod.regs, len(regs)):
        names[r.name] = f"r{i}"
    for a in mod.assigns:
        t, e = names[a.target], _look(a.expr, drivers)
        nets[t], widths[t], exprs[t] = _net(e, names), e.width, (e, names)
    for r in mod.regs:  # the top's rst folds to 0, so only a child reset net keeps this mux
        t, e = names[r.name], Mux(Ref("rst", 1), Const(r.width, r.reset), _look(r.next, drivers))
        regs.append((t, r.reset, _net(e, names)))
        widths[t], exprs[t] = r.width, (e, names)
    kids = {child.name: child for child in mod.children}
    for inst in mod.instances:
        bound = {}
        for port, e in inst.bindings:
            if type(e) is Ref:
                bound[port] = names[e.name]
            else:
                t = bound[port] = _fresh(origin, (mod, f"{inst.name}.{port}"))
                e = _look(e, drivers)
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
    `runner`). `runner(phases)` returns the source of `_run(a, b, rows,
    last)` with one block per phase, a tuple of the guards' values each, and
    the phases whose blocks iterate the wider values that follow the guards
    in a row; a phase renders a text again from `exprs`, seen through the
    merge's `rep`, with the guards bound."""
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
    cone = {"c", *_live(order, nets, [{"c"}])}

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
    # A datapath net that is a copy of a name is that name: each text that
    # reads it reads the name instead, and a phase renders it so through rep.
    copy: dict = {}
    for t in dnets:
        if t != "c" and ((src := nets[t][0]) in edges or src in ("a", "b")):  # a bare name
            copy[t] = copy.get(src, src)
    if copy:
        nets, dnets = dict(nets), [t for t in dnets if t not in copy]
        rep = {**{t: copy.get(u, u) for t, u in rep.items()}, **copy}
        moved = {u for t in copy for u in readers.get(t, ())}
        for t in moved & nets.keys():
            nets[t] = _renamed(nets[t], copy)
            edges[t] = nets[t][1].keys()
        dregs = [(r, reset, _renamed(net, copy)) for r, reset, net in dregs]
        edges.update((r, net[1].keys()) for r, _, net in dregs if r in moved)
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
    specs: dict = {}  # (identifier, what it reads as bound) -> `_net` of its text under that
    known = hoisted | {"a", "b", *[r[0] for r in dregs]}

    def spec(t: str, bound: dict) -> tuple:
        """(text, reads) of t's expression, `_net` rendered with the bindings
        `bound`."""
        key = (t, *map(bound.get, edges[t]))
        if key not in specs:  # a Mux on a guard bound to a constant renders its arm
            e, names = exprs[t]
            specs[key] = _net(e, _Bound(names, rep, bound))
        return specs[key]

    named: dict = {}  # the text of a K-step table -> its name, h<j>

    def stepped(changing: list, fixed: set, bound: dict, span: int, runs: int):
        """The K-step of a bit-serial accumulate phase (`_serial`) that runs
        `runs` times per transaction, at most `span` cycles in a row: (K, the
        lines of an iteration, the tables it reads as {name: (its line, its
        reads, whether it is built in the hoist)}, the nets its products
        read), or None. Each gated operand's v must be fixed for the phase
        and its tested bit p must see K bits of its column register: bits
        p - K + 1..p, moved up to p one cycle at a time by the one-cycle
        shift's mask (`_reach`). K comes from `_steps`. A column register
        steps as `s << K & M`, M clearing each field's low K bits. For each
        gated v = x << k, ix is the K bits of s from p down, shared by every
        operand that reads them. An integer accumulator adds one product per
        x, `x * (ix + (ix' << k) - ...)`, signed as its operands are; a gf2
        one XORs `h[ix] << k`, h the 2^K XORs of the subsets of x << j,
        j < K (`_sums`), shared by every operand of x."""
        def opened(v):
            return (exprs[v][0], _Bound(exprs[v][1], rep, bound)) if v in nets else None

        shapes = _serial([(r, exprs[r][0], _Bound(exprs[r][1], rep, bound)) for r, _ in changing],
                         opened)
        if shapes is None:
            return None
        cols, accs = shapes
        # built: (x's text, XOR or not) -> (its reads, whether hoisted); x: -> `_r` of x
        terms, built, xs = [], {}, {}
        for r, xor, gated in accs:
            for neg, s, p, x, shift, names in gated:
                log: list = []
                key = _lit((v := _r(x, names, log))[0]), int(xor)
                if not fixed.issuperset(log):
                    return None
                built[key], xs[key] = (log, hoisted.issuperset(log)), v
                terms.append((r, neg, s, p, key, shift))
        if any(xor for _, xor, _ in accs):
            k = _steps(span, runs, sum(1 if held else runs for _, held in built.values())
                       / len(terms))
        else:
            k = _steps(span, runs, None, min(_reach(cols[s], p) for _, _, s, p, _, _ in terms))
        if k == 1 or any(_reach(cols[s], p) < k for _, _, s, p, _, _ in terms):
            return None
        step = {s: f"{s} << {k} & {hex(_kept(mask, k) & (1 << widths[s]) - 1)}"
                for s, mask in cols.items()}
        shared = Counter((s, p) for _, _, s, p, _, _ in terms)
        index, lines, tabs, sums = {}, [], {}, {r: [] for r, _, _ in accs}
        products: dict = {r: {} for r, xor, _ in accs if not xor}  # x -> [(negated, ix, k)]
        for r, neg, s, p, key, shift in terms:
            if (s, p) not in index:
                ix = (f"{s} >> {p - k + 1}", _SHIFT) if p - k + 1 else (s, _ATOM)
                if p != widths[s] - 1:  # below s's top bit
                    ix = f"{_wrap(ix, _AND)} & {hex((1 << k) - 1)}", _AND
                if shared[s, p] > 1:  # computed once per iteration
                    lines.append(f"j{len(lines)} = {ix[0]}")
                    ix = f"j{len(lines) - 1}", _ATOM
                index[s, p] = ix
            if not key[1]:
                products[r].setdefault(key, []).append((neg, index[s, p], shift))
                continue
            text = f"_sums({key[0]}, {k}, {key[1]})"
            h = named.setdefault(text, f"h{len(named)}")
            tabs[h] = f"{h} = {text}", *built[key]
            read = f"{h}[{index[s, p][0]}]"  # << binds more tightly than ^
            sums[r].append(f" ^ {read} << {shift}" if shift else f" ^ {read}")
        for r, by_x in products.items():
            for key, ops in by_x.items():
                neg = all(o[0] for o in ops)  # subtract the product, else lead with an addend
                parts = [(o != neg, (f"{_wrap(ix, _SHIFT)} << {shift}", _SHIFT) if shift else ix)
                         for o, ix, shift in sorted(ops, key=itemgetter(0))]
                factor = parts[0][1] if len(parts) == 1 else (_wrap(parts[0][1], _SUM) + "".join(
                    f" {'-' if o else '+'} {_wrap(t, _MUL)}" for o, t in parts[1:]), _SUM)
                sums[r].append(f" {'-' if neg else '+'} {_wrap(xs[key], _MUL)} * "
                               f"{_wrap(factor, _ATOM)}")
        for r, xor, _ in accs:
            mask = hex((1 << widths[r]) - 1)
            step[r] = (f"({r} << {k}{''.join(sums[r])}) & {mask}" if xor else
                       f"({r} << {k}){''.join(sums[r])} & {mask}")
        read = dict.fromkeys(t for by_x in products.values() for key in by_x
                             for t in built[key][0])
        return k, lines + [commit([(r, step[r]) for r, _ in changing], "")], tabs, read

    def phase(values: tuple, span: int, runs: int) -> tuple:
        """(lines, the hoisted nets read, the K-step's tables built in the
        hoist, whether it iterates the wide row values) of the block that
        runs the phase in which the guards hold `values`, or ([], (), {},
        False) when no register changes in it. `span`, the phase's longest
        run, and `runs`, its runs per transaction, only pick its K
        (`_steps`). A block that iterates the wide values takes the list of
        them as its segment, any other its length."""
        bound = dict(zip(guards, values))
        binds = bound.keys()
        pnets = dict(nets)
        for t in tnets:
            if not binds.isdisjoint(edges[t]):
                pnets[t] = spec(t, bound)
                if type(pnets[t][0]) is int:  # its readers read the constant
                    bound[t] = pnets[t][0]
        changing = []
        for r, _, net in dregs:
            if not binds.isdisjoint(edges[r]):
                net = spec(r, bound)
            if net[0] != r:
                changing.append((r, net))
        if not changing:
            return [], (), {}, False
        live = _live(inner, pnets, [reads for _, (_, reads) in changing])
        # A net that reads only what the phase holds (the operands, the
        # registers it does not load, the hoisted nets) is evaluated on entry.
        fixed = _hoist(live, pnets, known.difference([r for r, _ in changing]))
        # a K-step fires only where one step of its whole run would gain
        step = stepped(changing, fixed, bound, span, runs) \
            if _steps(span, runs, None, span) > 1 else None
        k, body, tabs, products = step or (1, [], {}, {})
        # One walk forward: a net whose text is a copy of a name is that name
        # in every text that reads it, and keeps no line of its own unless a
        # K-step's table reads it. Every other net keeps its line.
        copies: dict = {}
        for t in live:
            pnets[t] = _renamed(pnets[t], copies)
            if _name(pnets[t][0]):
                copies[t] = pnets[t][0]
        commits = [(r, _renamed(net, copies)) for r, net in changing]
        if products:  # read by the K-step's commit, its last line
            body[-1], products = _renamed((body[-1], products), copies)
        roots = [reads for _, (_, reads) in commits] + [reads for _, reads, _ in tabs.values()]
        roots.append(products)
        live = _live(live, pnets, roots)
        read = set().union(*roots, *[pnets[t][1] for t in live])
        rowed = not read.isdisjoint(wide)  # whether the block iterates the wide values
        lines = [assign(t, pnets[t][0], " " * 12) for t in live if t in fixed]
        cycles = "seg" if rowed else "range(seg)"
        if step:  # K cycles per iteration, then the rest one at a time
            seg = "len(seg)" if rowed else "seg"
            lines += [" " * 12 + line for line, _, held in tabs.values() if not held]
            lines.append(f"            for _ in range({seg} // {k}):")
            lines += [" " * 16 + line for line in body]
            cycles = f"range({seg} % {k})"
        return [*lines, f"            for {tup(wide) if rowed else '_'} in {cycles}:",
                *[assign(t, pnets[t][0], " " * 16) for t in live if t not in fixed],
                commit([(r, src) for r, (src, _) in commits], " " * 16)], hoisted & read, \
            {h: text for h, (text, _, held) in tabs.items() if held}, rowed

    tail = [assign(t, nets[t][0], "    ") for t in dnets if t in cone and t not in hoisted]
    blocks: dict = {}  # guard values -> phase(values)

    def runner(phases: list) -> tuple:
        loop, needed, held, rowed = [], set(cone), {}, set()
        for i, (values, (span, runs)) in enumerate(phases):
            if values not in blocks:
                blocks[values] = phase(values, span, runs)
            lines, read, tabs, iterates = blocks[values]
            if iterates:
                rowed.add(values)
            if lines:
                loop += [f"        {'elif' if loop else 'if'} p == {i}:", *lines]
                needed.update(read)
                held.update(tabs)
        # the hoisted nets that the blocks and c's cone read, and those these read
        hoist = _live([t for t in dnets if t in hoisted], nets, [needed])
        run = ["def _run(a, b, rows, last):", *[assign(t, nets[t][0], "    ") for t in hoist],
               *["    " + line for line in held.values()]]
        if dregs:
            run.append(f"    {tup([r[0] for r in dregs])} = {', '.join(hex(r[1]) for r in dregs)},")
        if loop:
            run += ["    for p, seg in rows:", *loop]
        run += [f"    {tup(last)} = last"] if last else []
        return "\n".join([*run, *tail, "    return c"]) + "\n", rowed

    return "\n".join(sched) + "\n", guards, runner


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
        # a net that neither c nor a register reads, even through other nets, is dead
        live = _live(order, nets, [{"c"}, *[reads for _, _, (_, reads) in regs]])
        nets, order = {t: net for t, net in nets.items() if t in live}, list(live)

        nets, regs, order, rep = _merge(nets, regs, order, widths)
        self._sched_source, self._guards, self._runner = _kernel(
            nets, regs, order, widths, exprs, rep)
        ns: dict = {}
        exec(self._sched_source, ns)  # compiled once per configuration
        self._sched, self._run = ns["_sched"], None
        self._phases: dict = {}  # guard values -> phase number, in the order first met
        # guard values -> (its longest run, its runs) when first met, from
        # which `_steps` picks the phase's K
        self._spans: dict = {}
        self._plans: dict = {}  # cycles -> (the rows grouped into phases, last)
        self._plan(self.latency)

    def _plan(self, cycles: int) -> tuple:
        """The rows of a run of `cycles` grouped into phases, as `_run` takes
        them, and last: each run of a phase as the list of its rows' wider
        values where the phase's block iterates them, else as its length.
        Meeting a phase for the first time renders and compiles `_run` again,
        over every phase met so far."""
        rows, last = self._sched(cycles)
        width, phases, known = len(self._guards), self._phases, self._spans
        segments, spans, start = [], {}, 0
        for values, segment in groupby(rows, itemgetter(slice(0, width))):
            n = sum(1 for _ in segment)
            if values not in known:  # the longest run, and how many
                span, runs = spans.get(values, (0, 0))
                spans[values] = max(span, n), runs + 1
            segments.append((phases.setdefault(values, len(phases)), values, start, n))
            start += n
        if self._run is None or spans:
            self._spans.update(spans)
            run, self._rowed = self._runner(list(self._spans.items()))
            ns: dict = {"_sums": _sums}
            exec(run, ns)
            self._run, self._source = ns["_run"], self._sched_source + "\n" + run
        rowed = self._rowed
        plan = [(p, [row[width:] for row in rows[i:i + n]] if values in rowed else n)
                for p, values, i, n in segments]
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
