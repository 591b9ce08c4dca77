"""Reference interpreter for the RTL IR.

The instance tree is flattened by renaming: each net of each module instance
gets a fresh Python identifier n<i>, each register a local r<i>, and a child
port bound to a parent net reuses that net's identifier. The netlist is then
rendered once into one kernel per design, `_run(a, b, cycles)`, which runs a
whole transaction in four parts:

- hoist: nets that read only the operands a/b, constants and other such nets
  are computed once, above the cycle loop;
- loop: each cycle evaluates, from the pre-edge state, the nets the
  registers need, then commits every register at once with one tuple
  assignment. rst is the constant 0 during a run, so only a register whose
  module-level rst is a net (toom's `crst = rst | ld`) keeps its reset mux;
- gated blocks: a read under one arm of a Mux whose condition is a Ref g
  happens only when g selects that arm. A net that all its readers read
  under the same arm (g, polarity) is evaluated inside an `if g:` (or
  `if not g:`) block, just before the first per-cycle net that reads it,
  or else before the commit; a read by a gated net counts as one under
  that net's arm, so blocks never nest. So the digit-serial wrapper's
  digit select runs once per window, and a hold-mux register
  (`Mux(g, X, itself)`) evaluates X's cone only on the cycles it loads;
- output cone: c's cone is evaluated once, after the loop, from the final
  state, so `run(a, b, cycles=k)` returns what c shows after k posedges for
  every k.

A transaction is: registers at reset values (the one-cycle rst pulse), then
`latency_cycles` posedges with rst low and a/b held stable, then read c.
"""

from __future__ import annotations

import graphlib

from .ir import (Add, And, Concat, Const, Mux, Not, Ref, Repl, RtlModule, Shl,
                 Slice, Sub, Xor, children)

_LOOP = "loop"  # a read, or a net's placement, on every cycle, outside any gated block


def _net(e, names: dict) -> tuple:
    """(Python source, read map) of one expression. The map takes each flat
    identifier read to the arm (guard, polarity) of the outermost Mux on a
    Ref condition that every read of it sits under, else to _LOOP."""
    reads: dict = {}
    stack = [(e, _LOOP)]
    while stack:
        node, arm = stack.pop()
        if type(node) is Ref:
            ident = names[node.name]
            reads[ident] = arm if reads.get(ident, arm) == arm else _LOOP
        elif type(node) is Mux and arm is _LOOP and type(node.cond) is Ref:
            guard = names[node.cond.name]
            stack += [(node.cond, _LOOP), (node.t, (guard, True)), (node.f, (guard, False))]
        else:
            stack += [(c, arm) for c in children(node)]
    return _pysrc(e, names), reads


def _fresh(origin: dict, where: tuple) -> str:
    ident = f"n{len(origin)}"
    origin[ident] = where
    return ident


def _flatten(mod: RtlModule, names: dict, library: dict, origin: dict, nets: dict,
             regs: list) -> None:
    """Add mod and the instances below it to the flat netlist.

    `names` maps mod's ports to the identifiers the caller bound them to.
    `origin` maps each fresh net identifier to its (module, net) name,
    `nets` each driven one to `_net` of its driver; `regs` collects
    (identifier, reset, rst identifier, `_net` of next).
    """
    names = dict(names)
    for n in mod.nets:
        names[n.name] = _fresh(origin, (mod.name, n.name))
    for i, r in enumerate(mod.regs, len(regs)):
        names[r.name] = f"r{i}"
    for a in mod.assigns:
        nets[names[a.target]] = _net(a.expr, names)
    for r in mod.regs:
        regs.append((names[r.name], r.reset, names["rst"], _net(r.next, names)))
    for inst in mod.instances:
        bound = {}
        for port, e in inst.bindings:
            if type(e) is Ref:
                bound[port] = names[e.name]
            else:
                bound[port] = _fresh(origin, (mod.name, f"{inst.name}.{port}"))
                nets[bound[port]] = _net(e, names)
        _flatten(library[inst.module_name], bound, library, origin, nets, regs)


def _pysrc(e, names: dict) -> str:
    if isinstance(e, Const):
        return hex(e.value)
    if isinstance(e, Ref):
        return names[e.name]
    if isinstance(e, Slice):
        mask = (1 << e.width) - 1
        if e.lo == 0:
            return f"(({_pysrc(e.base, names)}) & {hex(mask)})"
        return f"((({_pysrc(e.base, names)}) >> {e.lo}) & {hex(mask)})"
    if isinstance(e, Concat):
        terms = []
        offset = 0
        for p in reversed(e.parts):  # LSB side last in the tuple
            if offset:
                terms.append(f"(({_pysrc(p, names)}) << {offset})")
            else:
                terms.append(f"({_pysrc(p, names)})")
            offset += p.width
        return "(" + " | ".join(terms) + ")"
    if isinstance(e, Repl):
        w = e.base.width
        factor = sum(1 << (i * w) for i in range(e.count))
        return f"(({_pysrc(e.base, names)}) * {hex(factor)})"
    if isinstance(e, (Add, Sub)):
        mask = (1 << e.width) - 1
        op = "+" if isinstance(e, Add) else "-"
        return f"((({_pysrc(e.a, names)}) {op} ({_pysrc(e.b, names)})) & {hex(mask)})"
    if isinstance(e, And):
        return f"(({_pysrc(e.a, names)}) & ({_pysrc(e.b, names)}))"
    if isinstance(e, Xor):
        return f"(({_pysrc(e.a, names)}) ^ ({_pysrc(e.b, names)}))"
    if isinstance(e, Not):
        mask = (1 << e.width) - 1
        return f"(({_pysrc(e.base, names)}) ^ {hex(mask)})"
    if isinstance(e, Mux):
        return (f"(({_pysrc(e.t, names)}) if ({_pysrc(e.cond, names)}) "
                f"else ({_pysrc(e.f, names)}))")
    if isinstance(e, Shl):
        return f"(({_pysrc(e.base, names)}) << {e.amount})"
    raise TypeError(f"unknown expression node {e!r}")


def _commit(reg: tuple) -> str:
    """Python source of one register's value after the edge."""
    _, reset, rst, (load, _) = reg
    return load if rst == "0" else f"{hex(reset)} if {rst} else ({load})"


def _kernel(nets: dict, regs: list) -> str:
    """Source of `_run(a, b, cycles)` for a flat netlist that drives c."""
    # A CycleError (a ValueError) here is a combinational loop.
    graph = {t: sorted(reads.keys() & nets.keys()) for t, (_, reads) in nets.items()}
    order = list(graphlib.TopologicalSorter(graph).static_order())

    hoisted = {"a", "b", "0"}
    for t in order:
        if nets[t][1].keys() <= hoisted:
            hoisted.add(t)

    # Where each net is read: the commit reads rst nets every cycle and each
    # register's next as its read map says.
    uses = {t: set() for t in nets}
    for _, _, rst, (_, reads) in regs:
        for r, where in reads.items():
            if r in uses:
                uses[r].add(where)
        if rst in uses:
            uses[rst].add(_LOOP)
    # A net goes under one arm when all its readers read it there, and a net
    # read by a gated net into that net's block; readers come later in
    # topological order, so walk it backwards.
    place = {}
    for t in reversed(order):
        if uses[t]:
            place[t] = uses[t].pop() if len(uses[t]) == 1 else _LOOP
            for r, where in nets[t][1].items():
                if r in uses:
                    uses[r].add(where if place[t] is _LOOP else place[t])
    cone = {"c"}
    for t in reversed(order):
        if t in cone:
            cone |= nets[t][1].keys() & nets.keys()

    def assign(t: str, indent: int) -> str:
        return f"{' ' * indent}{t} = {nets[t][0]}"

    lines = ["def _run(a, b, cycles):"]
    lines += [assign(t, 4) for t in order if t in hoisted and (t in place or t in cone)]
    if regs:
        idents = ", ".join(r[0] for r in regs) + ","
        lines.append(f"    {idents} = {', '.join(hex(r[1]) for r in regs)},")
        lines.append("    for _ in range(cycles):")
        pending: dict = {}  # arm -> gated nets not yet emitted, in topological order
        waiting = set()  # the nets in pending

        def emit(arms) -> None:
            for guard, polarity in [arm for arm in pending if arm in arms]:
                ts = pending.pop((guard, polarity))
                waiting.difference_update(ts)
                lines.append(f"        if {'' if polarity else 'not '}{guard}:")
                lines.extend(assign(t, 12) for t in ts)

        for t in order:
            if t in place and t not in hoisted:
                if place[t] is _LOOP:
                    emit({place[r] for r in nets[t][1].keys() & waiting})
                    lines.append(assign(t, 8))
                else:
                    pending.setdefault(place[t], []).append(t)
                    waiting.add(t)
        emit(set(pending))
        lines.append(f"        {idents} = {', '.join(_commit(r) for r in regs)},")
    lines += [assign(t, 4) for t in order if t in cone and t not in hoisted]
    lines.append("    return c")
    return "\n".join(lines) + "\n"


class Simulator:
    """Compiled simulator for one top module and its library."""

    def __init__(self, top: RtlModule, library: dict):
        self.top = top
        self.latency = top.latency_cycles
        self._aw = top.ports[2].width
        self._bw = top.ports[3].width

        nets: dict = {}
        regs: list = []
        origin: dict = {}
        ports = {p.name: p.name for p in top.ports}
        ports["rst"] = "0"
        _flatten(top, ports, library, origin, nets, regs)
        if "c" not in nets:
            raise ValueError("top output c is never driven")
        read = set().union(*(reads for _, reads in nets.values()),
                           *(reads for *_, (_, reads) in regs), (reg[2] for reg in regs))
        undriven = [t for t in origin if t in read and t not in nets]
        if undriven:
            mod, net = origin[undriven[0]]
            raise ValueError(f"net {net} of module {mod} is read but never driven")

        self._source = _kernel(nets, regs)
        ns: dict = {}
        exec(self._source, ns)  # compiled once per configuration
        self._run = ns["_run"]

    @property
    def source(self) -> str:
        """The generated kernel's Python source, for debugging."""
        return self._source

    def run(self, a: int, b: int, cycles: int | None = None) -> int:
        """One full transaction: reset, apply operands for `cycles` posedges,
        return the value on c."""
        if not 0 <= a < (1 << self._aw) or not 0 <= b < (1 << self._bw):
            raise OverflowError("operands do not fit the module ports")
        cycles = self.latency if cycles is None else cycles
        if cycles < 0:
            raise ValueError(f"cycles {cycles} < 0")
        return self._run(a, b, cycles)


def compile_sim(top: RtlModule, library: dict) -> Simulator:
    return Simulator(top, library)
