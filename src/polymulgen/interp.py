"""Reference interpreter for the RTL IR.

The instance tree is flattened into one combinational netlist plus a register
set, then compiled to a pair of Python functions (one clock step, one output
read). Semantics per posedge: evaluate every net from pre-edge register state
and the held inputs, then commit all registers at once; a register whose
module-level rst input evaluates to 1 commits its reset constant instead.

A transaction is: registers at reset values (the one-cycle rst pulse), then
`latency_cycles` posedges with rst low and a/b held stable, then read c.
"""

from __future__ import annotations

import dataclasses

from .ir import (Add, And, Concat, Const, Mux, Not, Ref, Repl, RtlModule, Shl,
                 Slice, Sub, Xor, children, expr_refs, rebuild)


@dataclasses.dataclass
class _FlatReg:
    name: str
    width: int
    reset: int
    next: object
    rst: object  # expression for this register's module rst input


def _subst(e, env: dict):
    """Rewrite every Ref through env (name -> replacement expression)."""
    if isinstance(e, Ref):
        repl = env.get(e.name)
        if repl is None:
            raise KeyError(f"unbound reference {e.name}")
        return repl
    return rebuild(e, [_subst(k, env) for k in children(e)])


def _flatten(mod: RtlModule, prefix: str, bindings: dict, library: dict,
             regs: list, assigns: list) -> None:
    env = dict(bindings)
    for n in mod.nets:
        env[n.name] = Ref(prefix + n.name, n.width)
    for r in mod.regs:
        env[r.name] = Ref(prefix + r.name, r.width)

    for a in mod.assigns:
        if any(p.name == a.target and p.direction == "out" for p in mod.ports):
            target = bindings[a.target]  # parent net ref the output is bound to
        else:
            target = env[a.target]
        assigns.append((target.name, target.width, _subst(a.expr, env)))

    rst_expr = bindings["rst"]
    for r in mod.regs:
        regs.append(_FlatReg(prefix + r.name, r.width, r.reset,
                             _subst(r.next, env), rst_expr))

    for inst in mod.instances:
        child = library[inst.module_name]
        child_bindings = {}
        for pname, expr in inst.bindings:
            child_bindings[pname] = _subst(expr, env)
        _flatten(child, prefix + inst.name + "__", child_bindings, library,
                 regs, assigns)


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

        regs: list = []
        assigns: list = []
        bindings = {
            "clk": Ref("clk", 1),
            "rst": Ref("rst", 1),
            "a": Ref("a", self._aw),
            "b": Ref("b", self._bw),
            "c": Ref("c", top.ports[4].width),
        }
        _flatten(top, "", bindings, library, regs, assigns)
        self._regs = regs

        # Deterministic Python identifiers for every flat name.
        names = {"a": "a", "b": "b", "rst": "rst", "clk": "clk"}
        for i, (target, _, _) in enumerate(assigns):
            names.setdefault(target, f"n{i}")
        for i, r in enumerate(regs):
            names[r.name] = f"S[{i}]"

        order = self._topo(assigns, {r.name for r in regs})

        lines = ["def _step(S, a, b, rst):"]
        for idx in order:
            target, _, expr = assigns[idx]
            lines.append(f"    {names[target]} = {_pysrc(expr, names)}")
        for i, r in enumerate(regs):
            lines.append(f"    t{i} = {hex(r.reset)} if ({_pysrc(r.rst, names)}) "
                         f"else ({_pysrc(r.next, names)})")
        for i in range(len(regs)):
            lines.append(f"    S[{i}] = t{i}")
        lines.append("    return S")
        lines.append("def _out(S, a, b, rst):")
        out_var = None
        for idx in order:
            target, _, expr = assigns[idx]
            lines.append(f"    {names[target]} = {_pysrc(expr, names)}")
            if target == "c":
                out_var = names[target]
        if out_var is None:
            raise ValueError("top output c is never driven")
        lines.append(f"    return {out_var}")
        ns: dict = {}
        exec("\n".join(lines), ns)  # compiled once per configuration
        self._step = ns["_step"]
        self._read = ns["_out"]

    def _topo(self, assigns, reg_names) -> list:
        """Topological order of assign indices; raises on combinational loops."""
        by_target = {t: i for i, (t, _, _) in enumerate(assigns)}
        deps = []
        for _, _, expr in assigns:
            refs = expr_refs(expr, set())
            deps.append(sorted(by_target[r] for r in refs
                               if r in by_target))
        order: list = []
        state = [0] * len(assigns)  # 0 new, 1 visiting, 2 done
        for root in range(len(assigns)):
            if state[root]:
                continue
            stack = [(root, 0)]
            state[root] = 1
            while stack:
                node, di = stack[-1]
                if di < len(deps[node]):
                    stack[-1] = (node, di + 1)
                    nxt = deps[node][di]
                    if state[nxt] == 1:
                        raise ValueError("combinational loop in netlist")
                    if state[nxt] == 0:
                        state[nxt] = 1
                        stack.append((nxt, 0))
                else:
                    state[node] = 2
                    order.append(node)
                    stack.pop()
        return order

    def run(self, a: int, b: int, cycles: int | None = None) -> int:
        """One full transaction: reset, apply operands for `cycles` posedges,
        return the value on c."""
        if not 0 <= a < (1 << self._aw) or not 0 <= b < (1 << self._bw):
            raise OverflowError("operands do not fit the module ports")
        if cycles is None:
            cycles = self.latency
        state = [r.reset for r in self._regs]
        step = self._step
        for _ in range(cycles):
            step(state, a, b, 0)
        return self._read(state, a, b, 0)


def compile_sim(top: RtlModule, library: dict) -> Simulator:
    return Simulator(top, library)
