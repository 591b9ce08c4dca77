"""Verilog-2001 emission and self-checking testbench generation.

Serialization is a pure function of the IR: LF line endings, 2-space indent,
one port per line, children before top in a single file. Only synthesizable
constructs are produced (continuous assigns plus one always @(posedge clk)
block with synchronous active-high reset per module).
"""

from __future__ import annotations

import dataclasses
import random

from .errors import UncheckedIR
from .ir import (Add, And, Concat, Const, Mux, Not, Ref, Repl, RtlModule, Shl,
                 Slice, Sub, Xor, check)
from .numeric import ArithMode, oracle_mul

_GENERATOR = "polymulgen-0.1.0"

# IEEE 1364-2001 reserved words (plus `bit`/`logic`, which SystemVerilog-mode
# tools reject as identifiers); generated names must avoid all of them.
VERILOG_KEYWORDS = frozenset("""
always and assign automatic begin buf bufif0 bufif1 case casex casez cell
cmos config deassign default defparam design disable edge else end endcase
endconfig endfunction endgenerate endmodule endprimitive endspecify endtable
endtask event for force forever fork function generate genvar highz0 highz1
if ifnone incdir include initial inout input instance integer join large
liblist library localparam macromodule medium module nand negedge nmos nor
noshowcancelled not notif0 notif1 or output parameter pmos posedge primitive
pull0 pull1 pulldown pullup pulsestyle_onevent pulsestyle_ondetect rcmos
real realtime reg release repeat rnmos rpmos rtran rtranif0 rtranif1
scalared showcancelled signed small specify specparam strong0 strong1 supply0
supply1 table task time tran tranif0 tranif1 tri tri0 tri1 triand trior
trireg unsigned use uwire vectored wait wand weak0 weak1 while wire wor xnor
xor bit logic
""".split())


@dataclasses.dataclass(frozen=True)
class VerilogArtifact:
    file_name: str
    text: str
    top_name: str
    latency_cycles: int


@dataclasses.dataclass(frozen=True)
class TestbenchArtifact:
    file_name: str
    text: str
    vector_count: int
    seed: int


_BINARY_OPS = {Add: "+", Sub: "-", And: "&", Xor: "^"}


def _vexpr(e) -> str:
    # Exact type tests, most frequent first (per gen pass: Ref ~40%, Slice
    # ~20%, the four binaries, Shl and Mux ~9% each).
    t = type(e)
    if t is Ref:
        return e.name
    if t is Slice:
        base = e.base
        if type(base) is not Ref:
            raise ValueError("emission requires slices of named signals")
        if e.lo == 0 and e.width == base.width:
            return base.name
        if e.width == 1:
            return f"{base.name}[{e.lo}]"
        return f"{base.name}[{e.lo + e.width - 1}:{e.lo}]"
    if t in _BINARY_OPS:
        return f"({_vexpr(e.a)} {_BINARY_OPS[t]} {_vexpr(e.b)})"
    if t is Shl:
        if e.amount == 0:
            return _vexpr(e.base)
        return "{" + _vexpr(e.base) + f", {e.amount}'h0}}"
    if t is Mux:
        return f"({_vexpr(e.cond)} ? {_vexpr(e.t)} : {_vexpr(e.f)})"
    if t is Concat:
        return "{" + ", ".join([_vexpr(p) for p in e.parts]) + "}"
    if t is Const:
        return f"{e.width}'h{e.value:x}"
    if t is Repl:
        return "{%d{%s}}" % (e.count, _vexpr(e.base))
    if t is Not:
        return f"(~{_vexpr(e.base)})"
    raise ValueError(f"unknown expression node {e!r}")


def _decl(kind: str, name: str, width: int) -> str:
    if width == 1:
        return f"  {kind} {name};"
    return f"  {kind} [{width - 1}:0] {name};"


def _module_text(mod: RtlModule) -> list:
    lines = [f"module {mod.name}("]
    for i, p in enumerate(mod.ports):
        kind = "output wire" if p.direction == "out" else "input wire"
        rng = "" if p.width == 1 else f"[{p.width - 1}:0] "
        comma = "" if i == len(mod.ports) - 1 else ","
        lines.append(f"  {kind} {rng}{p.name}{comma}")
    lines.append(");")
    for n in mod.nets:
        lines.append(_decl("wire", n.name, n.width))
    for r in mod.regs:
        lines.append(_decl("reg", r.name, r.width))
    if mod.nets or mod.regs:
        lines.append("")
    for a in mod.assigns:
        lines.append(f"  assign {a.target} = {_vexpr(a.expr)};")
    for inst in mod.instances:
        lines.append("")
        lines.append(f"  {inst.module_name} {inst.name} (")
        for i, (pname, expr) in enumerate(inst.bindings):
            comma = "" if i == len(inst.bindings) - 1 else ","
            lines.append(f"    .{pname}({_vexpr(expr)}){comma}")
        lines.append("  );")
    if mod.regs:
        lines.append("")
        lines.append("  always @(posedge clk) begin")
        lines.append("    if (rst) begin")
        for r in mod.regs:
            lines.append(f"      {r.name} <= {r.width}'h{r.reset:x};")
        lines.append("    end else begin")
        for r in mod.regs:
            lines.append(f"      {r.name} <= {_vexpr(r.next)};")
        lines.append("    end")
        lines.append("  end")
    lines.append("endmodule")
    return lines


def _identifiers(mod: RtlModule):
    yield mod.name
    for items in (mod.ports, mod.nets, mod.regs):
        for it in items:
            yield it.name
    for inst in mod.instances:
        yield inst.name


def emit_verilog(mods: list) -> VerilogArtifact:
    """Serialize a flattened module list (children before top) to one file."""
    if not mods:
        raise UncheckedIR("empty module list")
    library = {m.name: m for m in mods}
    diags = []
    for m in mods:
        diags.extend(check(m, library))
    for m in mods:
        for name in _identifiers(m):
            if name in VERILOG_KEYWORDS:
                diags.append(f"identifier {name} is a Verilog keyword")
    if diags:
        raise UncheckedIR("; ".join(str(d) for d in diags[:8]))
    top = mods[-1]
    meta = dict(top.meta)
    header = (f"// {top.name}.v\n"
              f"// method={meta.get('method', '?')} m={meta.get('m', '?')} "
              f"n={meta.get('n', '?')} mode={meta.get('mode', '?')} "
              f"latency_cycles={top.latency_cycles} generator={_GENERATOR}\n")
    blocks = [header]
    for m in mods:
        blocks.append("\n".join(_module_text(m)) + "\n")
    return VerilogArtifact(f"{top.name}.v", "\n".join(blocks), top.name,
                           top.latency_cycles)


def emit_testbench(mod: RtlModule, vectors: int, seed: int,
                   dump: bool = False) -> TestbenchArtifact:
    """Self-checking testbench: seeded vectors, embedded oracle products.

    Each transaction holds rst across one posedge, drops it, waits
    latency_cycles posedges, then compares c; prints TB_PASS or TB_FAIL <i>.
    `vectors` must be at least 1.
    """
    if vectors < 1:
        raise ValueError(f"a testbench needs at least one vector, got {vectors}")
    wa = mod.ports[2].width
    wb = mod.ports[3].width
    wc = mod.ports[4].width
    mode = ArithMode(dict(mod.meta).get("mode", "integer"))
    rng = random.Random(seed)
    vecs = []
    for _ in range(vectors):
        a = rng.getrandbits(wa)
        b = rng.getrandbits(wb)
        vecs.append((a, b, oracle_mul(a, b, mode)))
    tb = f"tb_{mod.name}"
    lines = [
        f"// {tb}.v vectors={len(vecs)} seed={seed} generator={_GENERATOR}",
        "`timescale 1ns/1ps",
        f"module {tb};",
        "  reg clk;",
        "  reg rst;",
        _decl("reg", "a", wa),
        _decl("reg", "b", wb),
        _decl("wire", "c", wc),
    ]
    lines += [
        "",
        f"  {mod.name} dut (",
        "    .clk(clk),",
        "    .rst(rst),",
        "    .a(a),",
        "    .b(b),",
        "    .c(c)",
        "  );",
        "",
        "  initial clk = 1'b0;",
        "  always #5 clk = ~clk;",
    ]
    if dump:
        lines += [
            "",
            "  initial begin",
            f"    $dumpfile(\"{tb}.vcd\");",
            f"    $dumpvars(0, {tb});",
            "  end",
        ]
    lines += [
        "",
        f"  task check_vec(input [{wa - 1}:0] va, input [{wb - 1}:0] vb,",
        f"                 input [{wc - 1}:0] want, input integer idx);",
        "    begin",
        "      @(negedge clk);",
        "      rst <= 1'b1;",
        "      a <= va;",
        "      b <= vb;",
        "      @(negedge clk);",
        "      rst <= 1'b0;",
        f"      repeat ({mod.latency_cycles}) @(posedge clk);",
        "      #1;",
        "      if (c !== want) begin",
        "        $display(\"TB_FAIL %0d\", idx);",
        "        $finish;",
        "      end",
        "    end",
        "  endtask",
        "",
        "  initial begin",
        "    rst = 1'b1;",
        "    a = 0;",
        "    b = 0;",
    ]
    for i, (a, b, want) in enumerate(vecs):
        lines.append(f"    check_vec({wa}'h{a:x}, {wb}'h{b:x}, {wc}'h{want:x}, {i});")
    lines += [
        "    $display(\"TB_PASS\");",
        "    $finish;",
        "  end",
        "endmodule",
        "",
    ]
    return TestbenchArtifact(f"{tb}.v", "\n".join(lines), len(vecs), seed)


def parse_skeleton(text: str) -> list:
    """Light structural re-parse of emitted Verilog.

    Returns one dict per module: name, ports as (name, direction, width)
    tuples, and instances as (instance_name, module_name) tuples. Only meant
    for text produced by emit_verilog/emit_testbench.
    """
    mods = []
    cur = None
    for raw in text.split("\n"):
        line = raw.strip()
        if line.startswith("module "):
            name = line[len("module "):].split("(")[0].rstrip(";").strip()
            cur = {"name": name, "ports": [], "instances": []}
            mods.append(cur)
        elif cur is None:
            continue
        elif line == "endmodule":
            cur = None
        elif line.startswith(("input wire", "output wire")):
            direction = "in" if line.startswith("input") else "out"
            body = line.split("wire", 1)[1].strip().rstrip(",")
            width = 1
            if body.startswith("["):
                rng, body = body[1:].split("]", 1)
                hi, lo = rng.split(":")
                width = int(hi) - int(lo) + 1
            mods[-1]["ports"].append((body.strip(), direction, width))
        elif line.endswith("(") and " " in line and not line.startswith((
                ".", "assign", "always", "if", "task", "initial", "module",
                "check_vec", "$")):
            head = line[:-1].split()
            if len(head) == 2:
                cur["instances"].append((head[1], head[0]))
    return mods


def skeleton_of(mods: list) -> list:
    """The same skeleton shape as parse_skeleton, but taken from the IR."""
    out = []
    for m in mods:
        out.append({
            "name": m.name,
            "ports": [(p.name, p.direction, p.width) for p in m.ports],
            "instances": [(i.name, i.module_name) for i in m.instances],
        })
    return out
