"""IR structure, width checking, traversal and hierarchy walk tests."""

import pytest

from polymulgen.generators import design_library, gen_karatsuba2, gen_sbm
from polymulgen.ir import (
    Add,
    And,
    Assign,
    Concat,
    Const,
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
)


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
