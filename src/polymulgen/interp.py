"""Reference interpreter for the RTL IR.

The instance tree is flattened by renaming: each net of each module instance
gets a fresh Python identifier, each register a slot S[i] of the state list,
and a child port bound to a parent net reuses that net's identifier. The
netlist is rendered once, in topological order, into one step function.
Semantics per posedge: evaluate every net from pre-edge register state and
the held inputs, then commit all registers at once; a register whose
module-level rst input evaluates to 1 commits its reset constant instead.

A transaction is: registers at reset values (the one-cycle rst pulse), then
`latency_cycles` posedges with rst low and a/b held stable, then read c.
"""

from __future__ import annotations

import graphlib
import itertools

from .ir import (Add, And, Concat, Const, Mux, Not, Ref, Repl, RtlModule, Shl,
                 Slice, Sub, Xor, expr_refs)


def _net(e, names: dict) -> tuple:
    """(Python source, flat identifiers read) of one expression."""
    return _pysrc(e, names), {names[r] for r in expr_refs(e)}


def _flatten(mod: RtlModule, names: dict, library: dict, fresh, nets: dict,
             regs: list) -> None:
    """Add mod and the instances below it to the flat netlist.

    `names` maps mod's ports to the identifiers the caller bound them to.
    `nets` maps each flat net identifier to `_net` of its driver; `regs`
    collects (reset, rst identifier, Python source of next).
    """
    names = dict(names)
    for n in mod.nets:
        names[n.name] = next(fresh)
    for i, r in enumerate(mod.regs, len(regs)):
        names[r.name] = f"S[{i}]"
    for a in mod.assigns:
        nets[names[a.target]] = _net(a.expr, names)
    for r in mod.regs:
        regs.append((r.reset, names["rst"], _pysrc(r.next, names)))
    for inst in mod.instances:
        bound = {}
        for port, e in inst.bindings:
            if type(e) is Ref:
                bound[port] = names[e.name]
            else:
                bound[port] = next(fresh)
                nets[bound[port]] = _net(e, names)
        _flatten(library[inst.module_name], bound, library, fresh, nets, regs)


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


class Simulator:
    """Compiled simulator for one top module and its library."""

    def __init__(self, top: RtlModule, library: dict):
        self.top = top
        self.latency = top.latency_cycles
        self._aw = top.ports[2].width
        self._bw = top.ports[3].width

        nets: dict = {}
        regs: list = []
        ports = {p.name: p.name for p in top.ports}
        fresh = (f"n{i}" for i in itertools.count())
        _flatten(top, ports, library, fresh, nets, regs)
        if "c" not in nets:
            raise ValueError("top output c is never driven")
        self._resets = [reset for reset, _, _ in regs]

        # A CycleError (a ValueError) here is a combinational loop.
        graph = {t: sorted(refs & nets.keys()) for t, (_, refs) in nets.items()}
        lines = ["def _step(S, a, b, rst):"]
        for t in graphlib.TopologicalSorter(graph).static_order():
            lines.append(f"    {t} = {nets[t][0]}")
        commits = ", ".join(f"{hex(reset)} if {rst} else {nxt}" for reset, rst, nxt in regs)
        lines.append(f"    S[:] = [{commits}]")
        lines.append("    return c")
        ns: dict = {}
        exec("\n".join(lines), ns)  # compiled once per configuration
        self._step = ns["_step"]

    def run(self, a: int, b: int, cycles: int | None = None) -> int:
        """One full transaction: reset, apply operands for `cycles` posedges,
        return the value on c."""
        if not 0 <= a < (1 << self._aw) or not 0 <= b < (1 << self._bw):
            raise OverflowError("operands do not fit the module ports")
        if cycles is None:
            cycles = self.latency
        state = list(self._resets)
        step = self._step
        for _ in range(cycles):
            step(state, a, b, 0)
        return step(state, a, b, 0)  # c before this edge; the commit is discarded


def compile_sim(top: RtlModule, library: dict) -> Simulator:
    return Simulator(top, library)
