"""IR structure, width checking, traversal and hierarchy walk tests."""

import dataclasses
import functools

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from polymulgen.errors import UncheckedIR
from polymulgen.generators import (
    design_library,
    gen_digit_serial,
    gen_karatsuba2,
    gen_sbm,
    gen_toom3,
    gen_toom4,
)
from polymulgen.ir import (
    Add,
    And,
    Assign,
    Concat,
    Const,
    Instance,
    Mux,
    Net,
    Not,
    Port,
    Ref,
    RegDef,
    Repl,
    RtlModule,
    Shl,
    Slice,
    Sub,
    Xor,
    check,
    children,
    expr_width,
    ref_nodes,
)
from polymulgen.numeric import ArithMode
from polymulgen.verilog import emit_verilog


def _ports(w):
    return (
        Port("clk", "in", 1),
        Port("rst", "in", 1),
        Port("a", "in", w),
        Port("b", "in", w),
        Port("c", "out", 2 * w),
    )


def _passthrough(w=4, name="tiny"):
    # c = {a, b}: structurally legal, arithmetically meaningless
    return RtlModule(
        name=name,
        ports=_ports(w),
        nets=(),
        regs=(),
        assigns=(Assign("c", Concat((Ref("a", w), Ref("b", w)))),),
        instances=(),
        latency_cycles=1,
        meta=(("method", "tiny"), ("m", str(w)), ("n", str(w)), ("mode", "integer")),
    )


def test_expr_widths():
    a = Ref("a", 8)
    assert expr_width(Const(4, 9)) == 4
    assert expr_width(a) == 8
    assert expr_width(Slice(a, 2, 3)) == 3
    assert expr_width(Concat((a, Const(2, 0)))) == 10
    assert expr_width(Repl(3, Slice(a, 7, 1))) == 3
    assert expr_width(Add(a, Ref("x", 8))) == 8
    assert expr_width(Mux(Slice(a, 0, 1), a, a)) == 8
    assert expr_width(Shl(a, 4)) == 12


def test_expr_width_violations():
    a = Ref("a", 8)
    with pytest.raises(ValueError):
        expr_width(Const(3, 8))  # value does not fit
    with pytest.raises(ValueError):
        expr_width(Slice(a, 6, 4))  # runs past msb
    with pytest.raises(ValueError):
        expr_width(Add(a, Const(4, 0)))  # width mismatch
    with pytest.raises(ValueError):
        expr_width(Mux(a, a, a))  # wide condition
    with pytest.raises(ValueError):
        expr_width(Concat(()))  # empty concat


def test_check_clean_module():
    assert check(_passthrough()) == []


def test_check_flags_unknown_ref():
    mod = _passthrough()
    bad = RtlModule(
        name=mod.name,
        ports=mod.ports,
        nets=mod.nets,
        regs=mod.regs,
        assigns=(Assign("c", Concat((Ref("a", 4), Ref("ghost", 4)))),),
        instances=(),
        latency_cycles=1,
        meta=mod.meta,
    )
    codes = {d.code for d in check(bad)}
    assert "UnknownRef" in codes


def test_check_flags_multiple_drivers():
    mod = _passthrough()
    e = Concat((Ref("a", 4), Ref("b", 4)))
    bad = RtlModule(
        name=mod.name,
        ports=mod.ports,
        nets=mod.nets,
        regs=mod.regs,
        assigns=(Assign("c", e), Assign("c", e)),
        instances=(),
        latency_cycles=1,
        meta=mod.meta,
    )
    codes = {d.code for d in check(bad)}
    assert "MultipleDrivers" in codes


def test_check_flags_width_mismatch_on_assign():
    mod = _passthrough()
    bad = RtlModule(
        name=mod.name,
        ports=mod.ports,
        nets=(Net("t", 3),),
        regs=(),
        assigns=(Assign("t", Ref("a", 4)), Assign("c", Concat((Ref("a", 4), Ref("b", 4)))),),
        instances=(),
        latency_cycles=1,
        meta=mod.meta,
    )
    codes = {d.code for d in check(bad)}
    assert "WidthMismatch" in codes


def test_check_flags_undriven_net():
    mod = _passthrough()
    bad = RtlModule(
        name=mod.name,
        ports=mod.ports,
        nets=(Net("floating", 2),),
        regs=mod.regs,
        assigns=mod.assigns,
        instances=(),
        latency_cycles=1,
        meta=mod.meta,
    )
    codes = {d.code for d in check(bad)}
    assert "Undriven" in codes


def test_check_flags_bad_reset():
    mod = _passthrough()
    bad = RtlModule(
        name=mod.name,
        ports=mod.ports,
        nets=(),
        regs=(RegDef("r", 2, 4, Const(2, 0)),),  # reset value needs 3 bits
        assigns=mod.assigns,
        instances=(),
        latency_cycles=1,
        meta=mod.meta,
    )
    codes = {d.code for d in check(bad)}
    assert "BadReset" in codes


def test_check_flags_interface_violations():
    mod = _passthrough()
    bad = RtlModule(
        name=mod.name,
        ports=mod.ports[:4],  # no c port
        nets=(),
        regs=(),
        assigns=(),
        instances=(),
        latency_cycles=1,
        meta=mod.meta,
    )
    codes = {d.code for d in check(bad)}
    assert "BadInterface" in codes


def test_check_flags_bad_latency():
    mod = _passthrough()
    bad = RtlModule(
        name=mod.name,
        ports=mod.ports,
        nets=(),
        regs=(),
        assigns=mod.assigns,
        instances=(),
        latency_cycles=0,
        meta=mod.meta,
    )
    codes = {d.code for d in check(bad)}
    assert "BadLatency" in codes


def test_identifier_rules():
    mod = _passthrough()
    bad = RtlModule(
        name=mod.name,
        ports=mod.ports,
        nets=(Net("Bad_Name", 2),),
        regs=(),
        assigns=(Assign("Bad_Name", Const(2, 0)),) + mod.assigns,
        instances=(),
        latency_cycles=1,
        meta=mod.meta,
    )
    codes = {d.code for d in check(bad)}
    assert "BadIdentifier" in codes


def test_flatten_hierarchy_children_first():
    top = gen_karatsuba2(16)
    names = list(design_library(top))
    assert names[-1] == top.name
    assert names[0].startswith("mul_sbm_")
    assert len(names) == 2  # one shared sbm child + top


def test_children_of_every_node_type():
    a, b, bit = Ref("a", 8), Ref("b", 8), Ref("s", 1)
    cases = [
        (Const(4, 9), ()),
        (a, ()),
        (Slice(a, 2, 3), (a,)),
        (Concat((a, Const(2, 0), bit)), (a, Const(2, 0), bit)),
        (Repl(3, bit), (bit,)),
        (Add(a, b), (a, b)),
        (Sub(a, b), (a, b)),
        (And(a, b), (a, b)),
        (Xor(a, b), (a, b)),
        (Not(a), (a,)),
        (Mux(bit, a, b), (bit, a, b)),
        (Shl(a, 4), (a,)),
    ]
    assert len({type(e) for e, _ in cases}) == 12  # every node type
    for e, kids in cases:
        assert children(e) == kids


def test_sbm_module_is_clean():
    mod = gen_sbm(8)
    assert check(mod) == []
    assert mod.latency_cycles == 8


def _faulty_module():
    """Faults in an assign, a reg's next and an instance's input bindings,
    several to an expression, next to clean items."""
    ghost = Ref("ghost", 2)
    return RtlModule(
        name="faulty",
        ports=_ports(4),
        nets=(Net("t", 3), Net("u", 8)),
        regs=(RegDef("r", 4, 0, Xor(Ref("a", 4), Slice(Ref("b", 5), 1, 4))),),
        assigns=(
            Assign("t", Concat((ghost, Ref("a", 3), ghost))),  # the same bad ref twice
            Assign("c", Add(Ref("u", 8), Concat((Ref("a", 4), Ref("r", 4))))),
        ),
        instances=(Instance("u_tiny", "tiny", (
            ("clk", Ref("clk", 1)),
            ("rst", Ref("rst", 1)),
            ("a", Mux(Ref("ghost", 1), Ref("a", 4), Concat((Ref("ghost", 3), Ref("b", 1))))),
            ("b", Concat((Ref("zed", 4), Ref("c", 8), Ref("zed", 4)))),
            ("c", Ref("u", 8)),
        )),),
        latency_cycles=1,
        meta=_passthrough().meta,
    )


def test_check_diagnostics_are_pinned():
    child = _passthrough()
    mod = _faulty_module()
    diags = [str(d) for d in check(mod, {child.name: child, mod.name: mod})]
    assert diags == [
        "[WidthMismatch] faulty.t: ref a width 3 != declared 4",
        "[UnknownRef] faulty.t: reference to undeclared name ghost",
        "[WidthMismatch] faulty.t: expression width 7 != target width 3",
        "[WidthMismatch] faulty.u_tiny.a: ref b width 1 != declared 4",
        "[UnknownRef] faulty.u_tiny.a: reference to undeclared name ghost",
        "[OutputRead] faulty.u_tiny.b: output port c read inside module",
        "[UnknownRef] faulty.u_tiny.b: reference to undeclared name zed",
        "[WidthMismatch] faulty.u_tiny.b: expression width 16 != target width 4",
        "[WidthMismatch] faulty.r.next: ref b width 5 != declared 4",
    ]
    with pytest.raises(UncheckedIR) as exc:
        emit_verilog([child, mod])
    assert str(exc.value) == "; ".join(diags[:8])


@functools.cache
def _clean_modules() -> tuple:
    tops = (gen_sbm(8), gen_karatsuba2(12), gen_karatsuba2(9, ArithMode.CARRYLESS),
            gen_toom3(12), gen_toom4(16), gen_digit_serial(13, 4),
            gen_digit_serial(12, 3, ArithMode.CARRYLESS))
    out = []
    for top in tops:
        library = design_library(top)
        out += [(mod, library) for mod in library.values()]
    return tuple(out)


def _read_items(mod, library) -> list:
    """(location, expression) of every read, in check's order."""
    items = [(a.target, a.expr) for a in mod.assigns]
    for inst in mod.instances:
        directions = {p.name: p.direction for p in library[inst.module_name].ports}
        items += [(f"{inst.name}.{pname}", e) for pname, e in inst.bindings
                  if directions[pname] == "in"]
    return items + [(f"{r.name}.next", r.next) for r in mod.regs]


def _nodes(e) -> list:
    out, stack = [], [e]
    while stack:
        node = stack.pop()
        out.append(node)
        stack.extend(children(node))
    return out


def _replace(e, target, new):
    """e with the node `target` (by identity) replaced by `new`."""
    if e is target:
        return new
    if type(e) in (Const, Ref):
        return e
    if type(e) is Concat:
        return dataclasses.replace(e, parts=tuple(_replace(p, target, new) for p in e.parts))
    subs = [f.name for f in dataclasses.fields(e)
            if f.init and not isinstance(getattr(e, f.name), int)]
    return dataclasses.replace(e, **{n: _replace(getattr(e, n), target, new) for n in subs})


def _inject(mod, library, target, new):
    """mod with the node `target` replaced by `new` wherever it is read."""
    def bindings(inst):
        directions = {p.name: p.direction for p in library[inst.module_name].ports}
        return tuple((pname, e if directions[pname] == "out" else _replace(e, target, new))
                     for pname, e in inst.bindings)
    return dataclasses.replace(
        mod,
        assigns=tuple(dataclasses.replace(a, expr=_replace(a.expr, target, new))
                      for a in mod.assigns),
        instances=tuple(dataclasses.replace(i, bindings=bindings(i)) for i in mod.instances),
        regs=tuple(dataclasses.replace(r, next=_replace(r.next, target, new)) for r in mod.regs),
    )


def _reference_ref_diagnostics(mod, library) -> list:
    """The rule for reads: each item's distinct refs in sorted order, each
    unknown, an output read, or at the wrong width; an unknown or output name
    once per item, whatever widths it is read at."""
    kinds = {}
    for kind, items in (("port", mod.ports), ("net", mod.nets), ("reg", mod.regs)):
        for it in items:
            kinds[it.name] = (kind, getattr(it, "direction", None), it.width)
    out = []
    for where, e in _read_items(mod, library):
        item = []
        for r in sorted(ref_nodes(e), key=lambda r: (r.name, r.width)):
            if r.name not in kinds:
                item.append(f"[UnknownRef] {mod.name}.{where}: reference to undeclared name {r.name}")
            elif kinds[r.name][1] == "out":
                item.append(f"[OutputRead] {mod.name}.{where}: output port {r.name} read inside module")
            elif kinds[r.name][2] != r.width:
                item.append(f"[WidthMismatch] {mod.name}.{where}: "
                            f"ref {r.name} width {r.width} != declared {kinds[r.name][2]}")
        out += dict.fromkeys(item)  # only the unknown and output lines repeat
    return out


@settings(derandomize=True, max_examples=80, deadline=None)
@given(st.data())
def test_check_matches_reference_rule_on_injected_bad_refs(data):
    mods = _clean_modules()
    mod, library = mods[data.draw(st.integers(0, len(mods) - 1), label="module")]
    assert check(mod, library) == []
    widths = {it.name: it.width for items in (mod.ports, mod.nets, mod.regs) for it in items}
    for _ in range(data.draw(st.integers(1, 3), label="injections")):
        _, expr = data.draw(st.sampled_from(_read_items(mod, library)), label="item")
        node = data.draw(st.sampled_from(_nodes(expr)), label="node")
        kind = data.draw(st.sampled_from(("unknown", "width", "output")), label="kind")
        if kind == "unknown":
            name = data.draw(st.sampled_from(("ghost", "zz")), label="name")
        elif kind == "output":
            name = "c"
        else:
            others = sorted(n for n, w in widths.items() if w != node.width and n != "c")
            name = data.draw(st.sampled_from(others), label="name")
        mod = _inject(mod, library, node, Ref(name, node.width))
    assert [str(d) for d in check(mod, library)] == _reference_ref_diagnostics(mod, library)
