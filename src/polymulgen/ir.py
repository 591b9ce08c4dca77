"""Structural RTL intermediate representation.

A module is ports + nets + registers + continuous assigns + child instances.
Expressions form an operator tree whose nodes check and record their width
when built; `children` is the generic traversal over it (`check`, run on
every generated module, writes its own walk). There is no implicit
truncation or extension anywhere, so every width change is an explicit
Slice/Concat/Repl. Registers are posedge-clocked with synchronous active-high
reset to a constant.

The standard multiplier interface is the fixed port list
clk(1), rst(1), a, b (inputs), c (output).
"""

from __future__ import annotations

import dataclasses
import re

_IDENT_RE = re.compile(r"[a-z][a-z0-9_]*\Z")


def _set_width(node, width: int) -> None:
    object.__setattr__(node, "width", width)


@dataclasses.dataclass(frozen=True)
class Const:
    width: int
    value: int

    def __post_init__(self):
        if self.width < 1:
            raise ValueError(f"const width {self.width} < 1")
        if not 0 <= self.value < (1 << self.width):
            raise ValueError(f"const value {self.value} does not fit {self.width} bits")


@dataclasses.dataclass(frozen=True)
class Ref:
    name: str
    width: int

    def __post_init__(self):
        if self.width < 1:
            raise ValueError(f"ref {self.name} width {self.width} < 1")


@dataclasses.dataclass(frozen=True)
class Slice:
    base: "Expr"
    lo: int
    width: int

    def __post_init__(self):
        bw = self.base.width
        if self.lo < 0 or self.width < 1 or self.lo + self.width > bw:
            raise ValueError(f"slice [{self.lo}+:{self.width}] out of {bw}-bit operand")


@dataclasses.dataclass(frozen=True)
class Concat:
    parts: tuple  # most significant part first, as in Verilog {a, b}
    width: int = dataclasses.field(init=False, compare=False)

    def __post_init__(self):
        if not self.parts:
            raise ValueError("empty concat")
        _set_width(self, sum(p.width for p in self.parts))


@dataclasses.dataclass(frozen=True)
class Repl:
    count: int
    base: "Expr"
    width: int = dataclasses.field(init=False, compare=False)

    def __post_init__(self):
        if self.count < 1:
            raise ValueError(f"repl count {self.count} < 1")
        _set_width(self, self.count * self.base.width)


@dataclasses.dataclass(frozen=True)
class _Binary:
    """Two equal-width operands; the result has their width."""

    a: "Expr"
    b: "Expr"
    width: int = dataclasses.field(init=False, compare=False)

    def __post_init__(self):
        wa, wb = self.a.width, self.b.width
        if wa != wb:
            raise ValueError(f"{type(self).__name__} operand widths {wa} != {wb}")
        _set_width(self, wa)


@dataclasses.dataclass(frozen=True)
class Add(_Binary):
    pass


@dataclasses.dataclass(frozen=True)
class Sub(_Binary):
    pass


@dataclasses.dataclass(frozen=True)
class And(_Binary):
    pass


@dataclasses.dataclass(frozen=True)
class Xor(_Binary):
    pass


@dataclasses.dataclass(frozen=True)
class Not:
    base: "Expr"
    width: int = dataclasses.field(init=False, compare=False)

    def __post_init__(self):
        _set_width(self, self.base.width)


@dataclasses.dataclass(frozen=True)
class Mux:
    cond: "Expr"
    t: "Expr"
    f: "Expr"
    width: int = dataclasses.field(init=False, compare=False)

    def __post_init__(self):
        if self.cond.width != 1:
            raise ValueError("mux condition must be 1 bit")
        wt, wf = self.t.width, self.f.width
        if wt != wf:
            raise ValueError(f"mux arm widths {wt} != {wf}")
        _set_width(self, wt)


@dataclasses.dataclass(frozen=True)
class Shl:
    """Shift left by a constant; the result is base.width + amount bits wide."""

    base: "Expr"
    amount: int
    width: int = dataclasses.field(init=False, compare=False)

    def __post_init__(self):
        if self.amount < 0:
            raise ValueError(f"shift amount {self.amount} < 0")
        _set_width(self, self.base.width + self.amount)


Expr = (Const, Ref, Slice, Concat, Repl, Add, Sub, And, Xor, Not, Mux, Shl)


@dataclasses.dataclass(frozen=True)
class Port:
    name: str
    direction: str  # "in" | "out"
    width: int


@dataclasses.dataclass(frozen=True)
class Net:
    name: str
    width: int


@dataclasses.dataclass(frozen=True)
class RegDef:
    name: str
    width: int
    reset: int
    next: "Expr"


@dataclasses.dataclass(frozen=True)
class Assign:
    target: str
    expr: "Expr"


@dataclasses.dataclass(frozen=True)
class Instance:
    name: str
    module_name: str
    bindings: tuple  # ((port_name, Expr), ...) in child port order


@dataclasses.dataclass(frozen=True)
class RtlModule:
    name: str
    ports: tuple
    nets: tuple
    regs: tuple
    assigns: tuple
    instances: tuple
    latency_cycles: int
    meta: tuple  # ((key, value), ...) embedded in the emitted header
    children: tuple = ()  # child module definitions, so a design is self-contained


@dataclasses.dataclass(frozen=True)
class Diagnostic:
    code: str
    where: str  # "<module>.<item>" location
    detail: str

    def __str__(self) -> str:
        return f"[{self.code}] {self.where}: {self.detail}"


def expr_width(e) -> int:
    """Width of an expression; every node validates its own width when built."""
    return e.width


def children(e) -> tuple:
    """The direct sub-expressions of a node, in field order."""
    t = type(e)
    if t is Const or t is Ref:
        return ()
    if t is Concat:
        return e.parts
    if t is Mux:
        return (e.cond, e.t, e.f)
    if isinstance(e, _Binary):
        return (e.a, e.b)
    return (e.base,)  # Slice, Repl, Not, Shl


def ref_nodes(e) -> set:
    """Every distinct Ref in an expression tree."""
    refs = set()
    stack = [e]
    while stack:
        node = stack.pop()
        if type(node) is Ref:
            refs.add(node)
        else:
            stack.extend(children(node))
    return refs


def check(module: RtlModule, library: dict | None = None) -> list:
    """Validate a module; returns a list of Diagnostics (empty when clean)."""
    diags = []

    def bad(code, item, detail):
        diags.append(Diagnostic(code, f"{module.name}.{item}", detail))

    # Declarations: identifiers legal and unique across ports/nets/regs.
    decls = {}
    widths = {}
    for kind, items in (("port", module.ports), ("net", module.nets), ("reg", module.regs)):
        for it in items:
            if not _IDENT_RE.match(it.name):
                bad("BadIdentifier", it.name, f"{kind} name not lowercase identifier")
            if it.name in decls:
                bad("DuplicateDecl", it.name, f"declared as {decls[it.name]} and {kind}")
            decls[it.name] = kind
            widths[it.name] = it.width
            if it.width < 1:
                bad("BadWidth", it.name, f"{kind} width {it.width} < 1")
    if not _IDENT_RE.match(module.name):
        bad("BadIdentifier", "<module>", "module name not lowercase identifier")

    # Interface contract: clk(1), rst(1), a, b inputs then c output, nothing else.
    shape = [(p.name, p.direction) for p in module.ports]
    if shape != [("clk", "in"), ("rst", "in"), ("a", "in"), ("b", "in"), ("c", "out")]:
        bad("BadInterface", "<ports>", f"port list {shape} != clk/rst/a/b in, c out")
    else:
        if module.ports[0].width != 1 or module.ports[1].width != 1:
            bad("BadInterface", "<ports>", "clk and rst must be 1 bit")

    # name -> the one width a read of it may have: declared, not an output port.
    readable = {name: widths[name] for name, kind in decls.items()
                if kind != "port" or _port(module, name).direction != "out"}

    def check_expr(item, e, want=None):
        # One walk over the tree; only an expression with a bad read is
        # diagnosed, with its distinct refs in sorted order.
        stack = [e]
        while stack:
            node = stack.pop()
            t = type(node)
            if t is Ref:
                if readable.get(node.name) != node.width:
                    diagnose_refs(item, e)
                    break
            elif t is Slice or t is Shl or t is Repl or t is Not:
                stack.append(node.base)
            elif t is Concat:
                stack.extend(node.parts)
            elif t is Mux:
                stack += (node.cond, node.t, node.f)
            elif t is not Const:
                stack += (node.a, node.b)
        if want is not None and e.width != want:
            bad("WidthMismatch", item, f"expression width {e.width} != target width {want}")

    def diagnose_refs(item, e):
        reported = set()  # unknown and output names: once each, at whatever widths read
        for r in sorted(ref_nodes(e), key=lambda r: (r.name, r.width)):
            if r.name in reported:
                continue
            if r.name not in decls:
                bad("UnknownRef", item, f"reference to undeclared name {r.name}")
                reported.add(r.name)
            elif decls[r.name] == "port" and _port(module, r.name).direction == "out":
                bad("OutputRead", item, f"output port {r.name} read inside module")
                reported.add(r.name)
            elif widths[r.name] != r.width:
                bad("WidthMismatch", item,
                    f"ref {r.name} width {r.width} != declared {widths[r.name]}")

    # Drivers: assigns and instance output bindings; exactly one per net/output.
    drivers = {}
    for a in module.assigns:
        drivers[a.target] = drivers.get(a.target, 0) + 1
        tkind = decls.get(a.target)
        if tkind is None:
            bad("UnknownRef", a.target, "assign target not declared")
        elif tkind == "reg":
            bad("BadTarget", a.target, "assign target is a reg (regs drive via next)")
        elif tkind == "port" and _port(module, a.target).direction != "out":
            bad("BadTarget", a.target, "assign target is an input port")
        want = widths.get(a.target)
        check_expr(a.target, a.expr, want)

    inst_names = set()
    for inst in module.instances:
        if inst.name in inst_names:
            bad("DuplicateDecl", inst.name, "duplicate instance name")
        inst_names.add(inst.name)
        child = None if library is None else library.get(inst.module_name)
        if library is not None and child is None:
            bad("UnresolvedInstance", inst.name, f"module {inst.module_name} not in library")
        bound = [p for p, _ in inst.bindings]
        if child is not None and bound != [p.name for p in child.ports]:
            bad("BadBinding", inst.name, f"bindings {bound} != child ports")
        for pname, expr in inst.bindings:
            cport = None if child is None else _port(child, pname)
            if cport is not None and cport.direction == "out":
                if not isinstance(expr, Ref):
                    bad("BadBinding", f"{inst.name}.{pname}", "output binding must be a net ref")
                    continue
                drivers[expr.name] = drivers.get(expr.name, 0) + 1
                if decls.get(expr.name) not in ("net", "port"):
                    bad("BadBinding", f"{inst.name}.{pname}",
                        f"output bound to non-net {expr.name}")
                if expr.name in widths and cport.width != widths[expr.name]:
                    bad("WidthMismatch", f"{inst.name}.{pname}",
                        f"child width {cport.width} != net width {widths[expr.name]}")
            else:
                want = None if cport is None else cport.width
                check_expr(f"{inst.name}.{pname}", expr, want)

    for net in module.nets:
        n = drivers.get(net.name, 0)
        if n == 0:
            bad("Undriven", net.name, "net has no driver")
        elif n > 1:
            bad("MultipleDrivers", net.name, f"net has {n} drivers")
    for p in module.ports:
        if p.direction == "out":
            n = drivers.get(p.name, 0)
            if n == 0:
                bad("Undriven", p.name, "output port has no driver")
            elif n > 1:
                bad("MultipleDrivers", p.name, f"output port has {n} drivers")
    for r in module.regs:
        if not 0 <= r.reset < (1 << r.width):
            bad("BadReset", r.name, f"reset value {r.reset} does not fit {r.width} bits")
        check_expr(f"{r.name}.next", r.next, r.width)

    if module.latency_cycles < 1:
        bad("BadLatency", "<module>", f"latency_cycles {module.latency_cycles} < 1")

    return diags


def _port(module: RtlModule, name: str):
    for p in module.ports:
        if p.name == name:
            return p
    return None
