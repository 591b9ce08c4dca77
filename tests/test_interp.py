"""IR interpreter tests: compiled simulation semantics."""

import ast
import functools
import graphlib
import os
import pathlib
import random
import re
import subprocess
import sys

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from polymulgen.generators import GenParams, design_library, gen_karatsuba2, gen_sbm, generate
from polymulgen.interp import Simulator, _flatten, _merge, _order, compile_sim
from polymulgen.ir import (Add, And, Assign, Concat, Const, Instance, Mux, Net, Not, Port,
                           Ref, RegDef, Repl, RtlModule, Shl, Slice, Sub, Xor, children)
from polymulgen.models import ArchKind, cycle_contract, run_model
from polymulgen.numeric import ArithMode, oracle_mul
from polymulgen.render import _net

_SPLIT = {ArchKind.SBM: 1, ArchKind.KARATSUBA2: 2, ArchKind.TOOM3: 3, ArchKind.TOOM4: 4,
          ArchKind.DIGIT_SERIAL: 1}


@functools.lru_cache(maxsize=None)
def _sim(kind: ArchKind, m: int, mode: ArithMode = ArithMode.INTEGER, n=None) -> Simulator:
    top = generate(GenParams(kind, m, mode, n))
    return compile_sim(top, design_library(top))


def _modes(kind: ArchKind) -> list:
    return list(ArithMode) if kind.arch.gf2 else [ArithMode.INTEGER]


def test_sbm_sim_matches_oracle():
    top = gen_sbm(8)
    sim = compile_sim(top, design_library(top))
    rng = random.Random(31)
    for _ in range(100):
        a = rng.getrandbits(8)
        b = rng.getrandbits(8)
        assert sim.run(a, b) == a * b


def test_sim_is_reusable_and_stateless_across_runs():
    top = gen_sbm(8)
    sim = compile_sim(top, design_library(top))
    assert sim.run(0xFF, 0xFF) == 0xFF * 0xFF
    assert sim.run(0, 0) == 0
    assert sim.run(0xFF, 0xFF) == 0xFF * 0xFF  # same answer after other runs


def test_sim_default_cycle_count_is_latency():
    top = gen_sbm(8)
    sim = compile_sim(top, design_library(top))
    assert sim.run(0xAB, 0xCD) == sim.run(0xAB, 0xCD, cycles=top.latency_cycles)


def test_sbm_needs_all_contract_cycles():
    # one cycle short must not already show the full product for a worst-case b
    top = gen_sbm(8)
    sim = compile_sim(top, design_library(top))
    full = sim.run(0xFF, 0xFF)
    short = sim.run(0xFF, 0xFF, cycles=top.latency_cycles - 1)
    assert full == 0xFF * 0xFF
    assert short != full


def test_extra_cycles_hold_product():
    for kind in ArchKind:
        for mode in _modes(kind):
            n = 4 if kind.arch.needs_digit else None
            sim = _sim(kind, 13, mode, n)
            want = oracle_mul(0x1ABD, 0x1C0D, mode)
            assert sim.run(0x1ABD, 0x1C0D) == want
            for j in (1, 3, 7):
                assert sim.run(0x1ABD, 0x1C0D, cycles=sim.latency + j) == want, (kind, mode, j)


@pytest.mark.parametrize("m", [4, 5, 8, 13])
@pytest.mark.parametrize("mode", list(ArithMode))
def test_sbm_partial_products_per_cycle(m, mode):
    # the sbm core is MSB-first over b: after k edges c holds a times the top k bits of b
    sim = _sim(ArchKind.SBM, m, mode)
    top = (1 << m) - 1
    rng = random.Random(m)
    vectors = [(top, top), (top, 1), (1, top), (1 << (m - 1), top >> 1)]
    vectors += [(rng.getrandbits(m), rng.getrandbits(m)) for _ in range(6)]
    for a, b in vectors:
        for k in range(m + 3):
            assert sim.run(a, b, cycles=k) == oracle_mul(a, b >> max(0, m - k), mode), (a, b, k)


@st.composite
def _designs(draw):
    """(kind, m, n, mode) with m off the split boundaries and n not dividing m."""
    kind = draw(st.sampled_from(list(ArchKind)))
    k = _SPLIT[kind]
    m = draw(st.integers(kind.arch.min_m, 36).filter(lambda m: k == 1 or m % k))
    n = None
    if kind.arch.needs_digit:
        n = draw(st.integers(2, m - 1).filter(lambda n: m % n))
    mode = draw(st.sampled_from(_modes(kind)))
    return kind, m, n, mode


def _operand(m: int):
    top = (1 << m) - 1
    return st.one_of(st.sampled_from([0, 1, top, top - 1, 1 << (m - 1)]),
                     st.integers(0, top))


@settings(derandomize=True, max_examples=120, deadline=None)
@given(st.data())
def test_interpreter_matches_oracle_property(data):
    kind, m, n, mode = data.draw(_designs())
    a = data.draw(_operand(m))
    b = data.draw(_operand(m))
    assert _sim(kind, m, mode, n).run(a, b) == oracle_mul(a, b, mode)


@settings(derandomize=True, max_examples=120, deadline=None)
@given(st.data())
def test_models_match_oracle_property(data):
    kind, m, n, mode = data.draw(_designs())
    a = data.draw(_operand(m))
    b = data.draw(_operand(m))
    trace = run_model(kind, a, b, m, mode, n)
    assert trace.product == oracle_mul(a, b, mode)
    assert trace.cycles == cycle_contract(kind, m, n)


def test_hierarchical_sim_flattens_instances():
    top = gen_karatsuba2(16)
    sim = compile_sim(top, design_library(top))
    rng = random.Random(32)
    for _ in range(50):
        a = rng.getrandbits(16)
        b = rng.getrandbits(16)
        assert sim.run(a, b) == a * b


def test_carryless_sim():
    top = gen_sbm(8, ArithMode.CARRYLESS)
    sim = compile_sim(top, design_library(top))
    rng = random.Random(33)
    for _ in range(50):
        a = rng.getrandbits(8)
        b = rng.getrandbits(8)
        assert sim.run(a, b) == oracle_mul(a, b, ArithMode.CARRYLESS)


def test_sim_rejects_oversized_operands():
    top = gen_sbm(8)
    sim = compile_sim(top, design_library(top))
    with pytest.raises(OverflowError):
        sim.run(1 << 8, 0)


def test_sim_rejects_negative_cycle_counts():
    sim = _sim(ArchKind.SBM, 8)
    for cycles in (-1, -4):
        with pytest.raises(ValueError, match="cycles"):
            sim.run(0xAB, 0xCD, cycles=cycles)
    assert sim.run(0xAB, 0xCD, cycles=0) == 0


def _module(name, nets, regs=(), instances=(), latency=1, children=(), wc=8, bare=()):
    """A hand-built module with the standard ports; `nets` is ((name, expr), ...)
    and `bare` declares nets that no assign drives."""
    ports = (Port("clk", "in", 1), Port("rst", "in", 1), Port("a", "in", 4),
             Port("b", "in", 4), Port("c", "out", wc))
    return RtlModule(
        name=name,
        ports=ports,
        nets=tuple(Net(n, e.width) for n, e in nets if n != "c") + bare,
        regs=regs,
        assigns=tuple(Assign(n, e) for n, e in nets),
        instances=instances,
        latency_cycles=latency,
        meta=(("method", "hand"), ("m", "4"), ("n", "4"), ("mode", "integer")),
        children=children,
    )


def _zext8(e):
    return Concat((Const(8 - e.width, 0), e))


def test_combinational_loop_detected():
    loop = _module("looper", (("x", Ref("x", 8)), ("c", Ref("x", 8))))
    with pytest.raises(ValueError):
        Simulator(loop, {"looper": loop})


def test_combinational_loop_names_its_nets():
    # x -> y -> the child's c -> x, through an instance port
    child = _module("kid", (("c", Ref("a", 4)),), wc=4)
    top = _module("ring", (("x", _zext8(Ref("k", 4))), ("y", Slice(Ref("x", 8), 0, 4)),
                           ("c", Ref("x", 8))),
                  instances=(Instance("u_kid", "kid", (
                      ("clk", Ref("clk", 1)), ("rst", Ref("rst", 1)),
                      ("a", Ref("y", 4)), ("b", Ref("b", 4)), ("c", Ref("k", 4)))),),
                  children=(child,), bare=(Net("k", 4),))
    with pytest.raises(ValueError, match="combinational loop through") as err:
        compile_sim(top, design_library(top))
    assert {"ring.x", "ring.y", "ring.k"} <= set(str(err.value).split(" through ")[1].split(", "))


def test_undriven_net_named_at_build():
    mod = _module("holey", (("c", Add(Ref("x", 8), _zext8(Ref("a", 4)))),), bare=(Net("x", 8),))
    with pytest.raises(ValueError, match="net x of module holey is read but never driven"):
        Simulator(mod, {"holey": mod})
    # read only under the arm of a Mux on rst, which folds away during a run
    dead = _module("dead", (("c", Mux(Ref("rst", 1), Ref("x", 8), _zext8(Ref("a", 4)))),),
                   bare=(Net("x", 8),))
    with pytest.raises(ValueError, match="net x of module dead is read but never driven"):
        Simulator(dead, {"dead": dead})


def test_gated_registers_exact_every_cycle():
    # cnt counts edges; odd is its low bit before the edge. acc and acc2 share
    # the guard (odd, load when 1); hold loads when odd is 0; tick is read by
    # hold's arm, by the trace register, which loads every cycle, and by c;
    # sums and mix are read only by c.
    cnt, acc, acc2 = Ref("cnt", 3), Ref("acc", 8), Ref("acc2", 8)
    hold, trace = Ref("hold", 8), Ref("trace", 8)
    odd, tick = Ref("odd", 1), Ref("tick", 8)
    nets = (
        ("odd", Slice(cnt, 0, 1)),
        ("tick", _zext8(cnt)),
        ("inc", Add(acc, _zext8(Ref("a", 4)))),
        ("inc2", Add(acc2, _zext8(Ref("b", 4)))),
        ("inv", Add(hold, tick)),
        ("sums", Add(acc, acc2)),
        ("mix", Xor(Xor(hold, trace), tick)),
        ("c", Add(Ref("sums", 8), Ref("mix", 8))),
    )
    regs = (
        RegDef("cnt", 3, 0, Add(cnt, Const(3, 1))),
        RegDef("acc", 8, 0, Mux(odd, Ref("inc", 8), acc)),
        RegDef("acc2", 8, 0, Mux(odd, Ref("inc2", 8), acc2)),
        RegDef("hold", 8, 0, Mux(odd, hold, Ref("inv", 8))),
        RegDef("trace", 8, 0, Xor(trace, tick)),
    )
    mod = _module("gates", nets, regs, latency=4)
    sim = Simulator(mod, {"gates": mod})
    # After k edges with a=3, b=5: acc = 3*(k//2), acc2 = 5*(k//2),
    # hold = sum of the even counts below k, trace = xor of 0..k-1;
    # c = acc + acc2 + (hold ^ trace ^ (k mod 8)).
    want = [0, 1, 11, 10, 22, 23, 25, 36]
    assert [sim.run(3, 5, cycles=k) for k in range(sim.latency + 4)] == want
    # hold reads neither operand, so the schedule steps it with no branch; in
    # the datapath odd is the guard of two phases, acc and acc2 load together
    # in the one where it is 1, and the other, where no register changes, has
    # no block.
    sched = sim.source.split("def _run(")[0]
    assert [line.strip() for line in sched.splitlines() if line.lstrip().startswith("if ")] == []
    assert _listing(sim, mod) == _normed({
        "odd=1": ["for _", "  inc = ((acc + a) & 0xff)", "  inc2 = ((acc2 + b) & 0xff)",
                  "  acc, acc2, = inc, inc2,"]})


def _phases(sim: Simulator) -> dict:
    """Each phase block of `_run`, by the guards' values: (the statements it
    runs on entry, its cycle loop, its K-step loop or None), parsed. A block
    that steps K cycles per iteration runs `for _ in range(seg // K)` first
    and its cycle loop over the `seg % K` cycles left."""
    run = next(f for f in ast.parse(sim.source).body
               if isinstance(f, ast.FunctionDef) and f.name == "_run")
    outer = next(node for node in run.body if isinstance(node, ast.For)
                 and ast.unparse(node.iter) == "rows")
    phase = {i: values for values, i in sim._phases.items()}
    blocks, node = {}, outer.body[0]
    while node:  # if p == 0: ... elif p == 1: ...
        loops = [stmt for stmt in node.body if isinstance(stmt, ast.For)]
        entry = node.body[:node.body.index(loops[0])]
        assert node.body == entry + loops and len(loops) <= 2, ast.unparse(node)[:200]
        blocks[phase[node.test.comparators[0].value]] = \
            entry, loops[-1], loops[0] if len(loops) == 2 else None
        node = node.orelse[0] if node.orelse else None
    return blocks


def _norm(text: str) -> str:
    """Python text as `ast.unparse` writes it: only the parentheses Python
    needs, decimal literals. Text compared through it does not depend on
    how the renderer brackets or spells what it writes."""
    return ast.unparse(ast.parse(text))


def _normed(listing: dict) -> dict:
    """A listing, as `_listing` returns or a test writes it, with each line
    after its `for ` or two-space prefix put through `_norm`."""
    def line(text: str) -> str:
        pad, code = re.fullmatch(r"(for |  |)(.*)", text).groups()
        return pad + _norm(code)
    return {label: [line(text) for text in lines] for label, lines in listing.items()}


def _listing(sim: Simulator, mod: RtlModule) -> dict:
    """The phase blocks of a kernel for a module without instances, each by
    its guards' names and values: the statements on entry, `for` and the
    control values each row brings, then the cycle's statements indented by
    two, every identifier renamed to its net or register, and all of it
    through `_normed`."""
    names = {f"n{i}": n.name for i, n in enumerate(mod.nets)}
    names.update({f"r{i}": r.name for i, r in enumerate(mod.regs)})

    def text(node, pad="") -> str:
        return pad + re.sub(r"\b[nr]\d+\b", lambda m: names[m.group()],
                            ast.get_source_segment(sim.source, node))

    out = {}
    for values, (entry, loop, step) in _phases(sim).items():
        assert step is None
        label = " ".join(f"{names[g]}={v}" for g, v in zip(sim._guards, values))
        out[label] = [text(stmt) for stmt in entry] + [f"for {text(loop.target)}"] + \
            [text(stmt, "  ") for stmt in loop.body]
    return _normed(out)


def test_mux_arm_gating_rule():
    # pick reads `only` and the nested mux's hi/deep under its odd arm, `both`
    # under both arms and `mixed` under its other arm; qacc also reads mixed
    # every cycle. acc loads p2 = q + p1 on odd cycles, and q reads p1 under
    # the odd arm. odd, hi, tick and mixed read neither operand: they arrive
    # as the schedule's rows, and the 1-bit odd and hi are the guards of four
    # phases. Each phase binds both guards, so the arms they do not select
    # are not read at all there:
    # acc, only, deep, p1 and p2 vanish where odd is 0, and only or deep
    # where hi does not select it.
    cnt, acc, qacc, pacc = Ref("cnt", 3), Ref("acc", 8), Ref("qacc", 8), Ref("pacc", 8)
    odd, tick = Ref("odd", 1), Ref("tick", 8)
    za, zb = _zext8(Ref("a", 4)), _zext8(Ref("b", 4))
    nets = (
        ("odd", Slice(cnt, 0, 1)),
        ("hi", Slice(cnt, 2, 1)),
        ("tick", _zext8(cnt)),
        ("only", Add(tick, za)),
        ("both", Xor(tick, zb)),
        ("mixed", Xor(tick, Const(8, 0x5A))),
        ("deep", Sub(tick, zb)),
        ("pick", Mux(odd, Add(Mux(Ref("hi", 1), Ref("only", 8), Ref("deep", 8)), Ref("both", 8)),
                     Xor(Ref("both", 8), Ref("mixed", 8)))),
        ("p1", Add(tick, zb)),
        ("q", Mux(odd, Ref("p1", 8), za)),
        ("p2", Add(Ref("q", 8), Ref("p1", 8))),
        ("c", Add(Add(acc, qacc), pacc)),
    )
    regs = (
        RegDef("cnt", 3, 0, Add(cnt, Const(3, 1))),
        RegDef("acc", 8, 0, Mux(odd, Ref("p2", 8), acc)),
        RegDef("qacc", 8, 0, Xor(Xor(qacc, Ref("q", 8)), Ref("mixed", 8))),
        RegDef("pacc", 8, 0, Add(pacc, Ref("pick", 8))),
    )
    mod = _module("arms", nets, regs, latency=8)
    sim = Simulator(mod, {"arms": mod})

    def model(a, b, k):
        cnt = acc = qacc = pacc = 0
        for _ in range(k):
            tick = cnt
            only, both, mixed, deep = (tick + a) & 255, tick ^ b, tick ^ 0x5A, (tick - b) & 255
            if cnt & 1:
                pick = ((only if cnt >> 2 else deep) + both) & 255
            else:
                pick = both ^ mixed
            p1 = (tick + b) & 255
            q = p1 if cnt & 1 else a
            acc = (q + p1) & 255 if cnt & 1 else acc
            cnt, qacc, pacc = (cnt + 1) & 7, qacc ^ q ^ mixed, (pacc + pick) & 255
        return (acc + qacc + pacc) & 255

    for a, b in ((3, 5), (15, 15), (0, 9), (10, 0)):
        assert [sim.run(a, b, cycles=k) for k in range(sim.latency + 4)] == \
            [model(a, b, k) for k in range(sim.latency + 4)], (a, b)
    held = ["for tick, mixed,", "  both = (tick ^ b)", "  pick = (both ^ mixed)",
            "  qacc, pacc, = ((qacc ^ a) ^ mixed), ((pacc + pick) & 0xff),"]
    loads = ["for tick, mixed,", "  both = (tick ^ b)", "  pick = (({} + both) & 0xff)",
             "  p1 = ((tick + b) & 0xff)", "  p2 = ((p1 + p1) & 0xff)",
             "  acc, qacc, pacc, = p2, ((qacc ^ p1) ^ mixed), ((pacc + pick) & 0xff),"]
    assert _listing(sim, mod) == _normed({
        "odd=0 hi=0": held, "odd=0 hi=1": held,
        "odd=1 hi=0": ["for tick, mixed,", "  both = (tick ^ b)", "  deep = ((tick - b) & 0xff)",
                       loads[2].format("deep"), *loads[3:]],
        "odd=1 hi=1": ["for tick, mixed,", "  only = ((tick + a) & 0xff)", "  both = (tick ^ b)",
                       loads[2].format("only"), *loads[3:]]})


def test_mux_arm_guards():
    # The guard of an arm may be a register (flag), a net hoisted above the
    # loop (ha, the low bit of a) or the top's rst, which is 0 during a run, so
    # racc's mux folds to its live arm: ry runs every cycle and rx never. The
    # 1-bit control register flag is the guard of two phases, each reading
    # only its own arm of fsel; ha is a datapath net that no phase binds, so
    # the commit selects hacc's arm on it, and hx, a net of its own, is
    # evaluated every cycle.
    cnt, flag = Ref("cnt", 3), Ref("flag", 1)
    facc, hacc, racc = Ref("facc", 8), Ref("hacc", 8), Ref("racc", 8)
    tick = Ref("tick", 8)
    nets = (
        ("tick", _zext8(cnt)),
        ("fx", Add(facc, tick)),
        ("fsel", Mux(flag, Ref("fx", 8), _zext8(Ref("b", 4)))),
        ("ha", Slice(Ref("a", 4), 0, 1)),
        ("hx", Add(hacc, tick)),
        ("rx", Add(racc, Const(8, 1))),
        ("ry", Add(racc, _zext8(Ref("b", 4)))),
        ("c", Add(Add(facc, hacc), racc)),
    )
    regs = (
        RegDef("cnt", 3, 0, Add(cnt, Const(3, 1))),
        RegDef("flag", 1, 0, Not(flag)),
        RegDef("facc", 8, 0, Xor(facc, Ref("fsel", 8))),
        RegDef("hacc", 8, 0, Mux(Ref("ha", 1), Ref("hx", 8), hacc)),
        RegDef("racc", 8, 0, Mux(Ref("rst", 1), Ref("rx", 8), Ref("ry", 8))),
    )
    mod = _module("guards", nets, regs, latency=6)
    sim = Simulator(mod, {"guards": mod})

    def model(a, b, k):
        cnt = flag = facc = hacc = racc = 0
        for _ in range(k):
            fsel = (facc + cnt) & 255 if flag else b
            hacc = (hacc + cnt) & 255 if a & 1 else hacc
            cnt, flag, facc, racc = (cnt + 1) & 7, flag ^ 1, facc ^ fsel, (racc + b) & 255
        return (facc + hacc + racc) & 255

    for a, b in ((3, 5), (4, 9), (15, 15), (0, 0)):
        assert [sim.run(a, b, cycles=k) for k in range(sim.latency + 4)] == \
            [model(a, b, k) for k in range(sim.latency + 4)], (a, b)
    cycle = ["  hx = ((hacc + tick) & 0xff)", "  ry = ((racc + b) & 0xff)",
             "  facc, hacc, racc, = {}, (hx if ha else hacc), ry,"]
    assert _listing(sim, mod) == _normed({
        "flag=0": ["for tick,", *cycle[:2], cycle[2].format("(facc ^ b)")],
        "flag=1": ["for tick,", "  fx = ((facc + tick) & 0xff)", *cycle[:2],
                   cycle[2].format("(facc ^ fx)")]})
    # ha, hoisted above the loop
    assert "    " + _norm("n3 = (a & 0x1)") in _norm(sim.source).splitlines()
    assert "if 0" not in sim.source


def test_datapath_guard_selects_in_the_commit():
    # ha, the low bit of a, is a datapath net that no phase binds, so the
    # commit selects each register's arm on it. hx is read by both loads, so
    # each cycle evaluates it before the commit, whatever ha holds.
    cnt, acc, acc2 = Ref("cnt", 3), Ref("acc", 8), Ref("acc2", 8)
    ha, hx = Ref("ha", 1), Ref("hx", 8)
    nets = (("tick", _zext8(cnt)), ("ha", Slice(Ref("a", 4), 0, 1)),
            ("hx", Add(acc, Ref("tick", 8))), ("c", Xor(acc, acc2)))
    regs = (RegDef("cnt", 3, 0, Add(cnt, Const(3, 1))),
            RegDef("acc", 8, 0, Mux(ha, hx, acc)),
            RegDef("acc2", 8, 0, Mux(ha, Xor(acc2, Add(hx, _zext8(Ref("b", 4)))), acc2)))
    mod = _module("shared", nets, regs, latency=6)
    sim, step = Simulator(mod, {mod.name: mod}), _stepper(mod)
    for a in _corners(4):
        for b in _corners(4):
            assert [sim.run(a, b, cycles=k) for k in range(9)] == step(a, b, 8), (a, b)
    assert _listing(sim, mod) == _normed({"": [
        "for tick,", "  hx = ((acc + tick) & 0xff)",
        "  acc, acc2, = (hx if ha else acc), ((acc2 ^ ((hx + b) & 0xff)) if ha else acc2),"]})


def test_child_reset_net_exact_every_cycle():
    # The child counter k resets to 5 whenever the top's crst = rst | wrap is
    # high, and wrap is high before every 4th edge.
    k = Ref("k", 4)
    child = _module("kid", (("c", k),),
                    (RegDef("k", 4, 5, Add(k, Const(4, 1))),), wc=4)
    ph = Ref("ph", 2)
    nets = (
        ("wrap", And(Slice(ph, 0, 1), Slice(ph, 1, 1))),
        ("crst", Not(And(Not(Ref("rst", 1)), Not(Ref("wrap", 1))))),
        ("kc", Concat((Const(4, 0), Ref("kout", 4)))),
        ("c", Ref("kc", 8)),
    )
    top = _module("resetter", nets, (RegDef("ph", 2, 0, Add(ph, Const(2, 1))),),
                  instances=(Instance("u_kid", "kid", (
                      ("clk", Ref("clk", 1)), ("rst", Ref("crst", 1)),
                      ("a", Ref("a", 4)), ("b", Ref("b", 4)), ("c", Ref("kout", 4)))),),
                  latency=5, children=(child,), bare=(Net("kout", 4),))
    sim = compile_sim(top, design_library(top))
    assert [sim.run(0, 0, cycles=j) for j in range(sim.latency + 4)] == [5, 6, 7, 8, 5, 6, 7, 8, 5]
    # crst (n1) folds to the bare wrap (n0), and k keeps its reset mux on it
    assert "        n1 = n0\n" in sim.source
    assert "0x5 if n1 else" in sim.source


def _corners(m: int) -> tuple:
    ones = (1 << m) - 1
    alt = int("01" * m, 2) & ones
    return (0, 1, ones, 1 << (m - 1), alt, ones ^ alt)


@pytest.mark.parametrize("params", [GenParams(ArchKind.TOOM3, 1024), GenParams(ArchKind.TOOM4, 1024),
                                    GenParams(ArchKind.DIGIT_SERIAL, 1024, n=64),
                                    GenParams(ArchKind.DIGIT_SERIAL, 521, n=32),
                                    GenParams(ArchKind.DIGIT_SERIAL, 571, ArithMode.CARRYLESS, n=32),
                                    GenParams(ArchKind.DIGIT_SERIAL, 199, n=1),
                                    GenParams(ArchKind.DIGIT_SERIAL, 1024, n=4)],
                         ids=["toom3", "toom4", "wrapper64", "wrapper521_32", "wrapper_gf2_571_32",
                              "wrapper199_1", "wrapper1024_4"])
def test_gated_designs_on_corner_operands(params):
    # the designs whose interpolation, accumulate and digit-select cones run
    # in phases of their own; 521/32 and 571/32 pad b to d*n > m bits. 199/1
    # and 1024/4 XOR-reduce d = 199 and 256 digits through a chain of nets
    # that each feed only the next.
    top = generate(params)
    sim = compile_sim(top, design_library(top))
    corners = _corners(params.m)
    for a in corners:
        for b in corners:
            assert sim.run(a, b) == oracle_mul(a, b, params.mode), (hex(a), hex(b))


def _tables(sim: Simulator) -> dict:
    """The tuple tables `_run` builds above its loop over the rows, by name,
    each as the list of its entries, parsed."""
    return {t: stmt.value.elts for t, stmt in _hoisted(sim).items()
            if isinstance(stmt.targets[0], ast.Name) and isinstance(stmt.value, ast.Tuple)}


def test_wrapper_digit_select_reads_one_table():
    # The digit select (d masked digits of b, XOR-reduced) folds, for each
    # value the digit ring takes, to one slice of b: the hoist builds one
    # table of those d slices per transaction, and the cycle that loads a
    # digit reads its entry. The load block holds no per-digit conditional,
    # and its work does not grow with d.
    def load(n, m=1024) -> int:
        """The expression nodes of the load block, which must read the
        digit's position from its segment and nothing else of the ring."""
        sim = _sim(ArchKind.DIGIT_SERIAL, m, n=n)
        plan = sim._plans[sim.latency][0]
        listed = {i for i, segment in plan if type(segment) is not int}
        (values,) = [values for values, i in sim._phases.items() if i in listed]
        entry, loop, step = _phases(sim)[values]
        assert step is None and ast.unparse(loop.target) == "i"
        reads = [x for stmt in entry + loop.body for x in ast.walk(stmt)
                 if isinstance(x, ast.Name) and x.id == "i"]
        (table,) = _tables(sim)
        assert [ast.unparse(x) for stmt in loop.body for x in ast.walk(stmt)
                if isinstance(x, ast.Subscript)] == [f"{table}[i]"] and len(reads) == 1
        assert len(_tables(sim)[table]) == -(-m // n)
        return sum(1 for stmt in entry + [loop] for _ in ast.walk(stmt))
    assert load(64) == load(8) == load(32, m=521) == load(2)


def test_plan_lists_row_values_only_where_a_block_reads_them():
    # wrapper 1024/64: sixteen windows, each a load cycle that reads the
    # digit ring, 62 cycles of the digit loop and a last cycle; only the
    # load cycles' segments list their rows' ring values, and only their
    # block iterates them, the others count cycles
    sim = _sim(ArchKind.DIGIT_SERIAL, 1024, n=64)
    plan, _ = sim._plans[sim.latency]
    listed = {i for i, segment in plan if type(segment) is not int}
    assert [len(segment) for _, segment in plan if type(segment) is not int] == [1] * 16
    assert sorted(segment for _, segment in plan if type(segment) is int) == [1] * 16 + [62] * 16
    for values, (_, loop, step) in _phases(sim).items():
        rowed = sim._phases[values] in listed
        assert (ast.unparse(loop.target) != "_") == rowed
        assert (ast.unparse((step or loop).iter).startswith("range(")) != rowed


@pytest.mark.parametrize("mode", list(ArithMode))
def test_wrapper_single_bit_and_single_digit(mode):
    # n=1 (d=m one-bit digits) and n=m (d=1: no digit shift, one window)
    rng = random.Random(13)
    vectors = [(a, b) for a in _corners(13) for b in _corners(13)]
    vectors += [(rng.getrandbits(13), rng.getrandbits(13)) for _ in range(20)]
    for n in (1, 13):
        sim = _sim(ArchKind.DIGIT_SERIAL, 13, mode, n)
        for a, b in vectors:
            assert sim.run(a, b) == oracle_mul(a, b, mode), (n, hex(a), hex(b))


@pytest.mark.parametrize("params", [
    GenParams(kind, 1024, mode, n) for kind in ArchKind for mode in _modes(kind)
    for n in ((1, 2, 3, 4) if kind.arch.needs_digit else (None,))],
    ids=lambda p: f"{p.kind.name}_{p.mode.name}{'' if p.n is None else f'_{p.n}'}")
def test_widest_designs_compile_and_match_oracle(params):
    # m = 1024 renders the longest texts and, for the wrapper with one to
    # four bits per digit, the longest digit select: each kernel must be
    # text Python compiles, and right on a random vector.
    top = generate(params)
    sim = compile_sim(top, design_library(top))
    rng = random.Random(params.m + (params.n or 0))
    a, b = rng.getrandbits(params.m), rng.getrandbits(params.m)
    assert sim.run(a, b) == oracle_mul(a, b, params.mode)


def test_kernel_source_is_independent_of_hash_seed():
    code = ("from polymulgen import *\n"
            "for p in (GenParams(ArchKind.TOOM4, 64), GenParams(ArchKind.DIGIT_SERIAL, 64, n=8),\n"
            "          GenParams(ArchKind.SBM, 1024), GenParams(ArchKind.TOOM4, 1024),\n"
            "          GenParams(ArchKind.KARATSUBA2, 1024, ArithMode.CARRYLESS)):\n"
            "    top = generate(p)\n"
            "    print(compile_sim(top, design_library(top)).source)\n")
    src = str(pathlib.Path(__file__).parents[1] / "src")
    outs = []
    for seed in ("0", "1"):
        env = {**os.environ, "PYTHONHASHSEED": seed,
               "PYTHONPATH": os.pathsep.join(filter(None, (src, os.environ.get("PYTHONPATH"))))}
        run = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                             check=True, timeout=120)
        outs.append(run.stdout)
    assert b"def _sched(cycles):" in outs[0] and b"def _run(a, b, rows, last):" in outs[0]
    assert b" = _sums(" in outs[0] and b"range(seg // " in outs[0]  # the K-step's text
    assert outs[0] == outs[1]


_OPS = {Add: "+", Sub: "-", And: "&", Xor: "^"}


def _text(e, name) -> str:
    """Python text of e straight from ir.py's width rules, nothing folded:
    every Add, Sub and Slice masked, a Concat as shifts and ORs. `name`
    gives the text of a Ref's name."""
    t, mask = type(e), hex((1 << e.width) - 1)
    if t is Const:
        return hex(e.value)
    if t is Ref:
        return name(e.name)
    if t is Concat:  # most significant part first
        parts, low = [], 0
        for p in reversed(e.parts):
            parts.append(f"({_text(p, name)} << {low})")
            low += p.width
        return f"({' | '.join(parts)})"
    if t is Mux:
        return f"({_text(e.t, name)} if {_text(e.cond, name)} else {_text(e.f, name)})"
    if t in (Add, Sub, And, Xor):
        s = f"({_text(e.a, name)} {_OPS[t]} {_text(e.b, name)})"
        return f"({s} & {mask})" if t in (Add, Sub) else s
    x = _text(e.base, name)
    if t is Slice:
        return f"(({x} >> {e.lo}) & {mask})"
    if t is Repl:  # copies side by side, so the product has no carries
        return f"({x} * {hex(sum(1 << i * e.base.width for i in range(e.count)))})"
    return f"({x} ^ {mask})" if t is Not else f"({x} << {e.amount})"  # Not, Shl


def _flat(mod: RtlModule, path: str, nets: dict, regs: list) -> None:
    """Add mod, the instance at `path`, and the instances below it to a flat
    netlist: each name becomes V<path><name>, `nets` maps a driven one to its
    text and `regs` collects (name, reset, text after the edge, its rst).
    Every port of an instance is a net of its own."""
    def name(n: str) -> str:
        return f"V{path}{n}"

    for a in mod.assigns:
        nets[name(a.target)] = _text(a.expr, name)
    regs += [(name(r.name), r.reset, _text(r.next, name), name("rst")) for r in mod.regs]
    kids = {kid.name: kid for kid in mod.children}
    for inst in mod.instances:
        kid, sub = kids[inst.module_name], f"{path}{inst.name}X"  # no IR name holds an X
        outs = {p.name for p in kid.ports if p.direction == "out"}
        for port, e in inst.bindings:
            if port in outs:
                nets[name(e.name)] = f"V{sub}{port}"
            else:
                nets[f"V{sub}{port}"] = _text(e, name)
        _flat(kid, sub, nets, regs)


def _stepper(top: RtlModule):
    """The reference stepper of top, built once per design: a function
    (a, b, cycles) -> [c after each of 0..cycles posedges], rst low. Each
    cycle evaluates every net in dependency order, then commits every
    register of every instance at once, a register taking its reset value
    while its module's rst is high."""
    nets, regs = {"Vclk": "0", "Vrst": "0"}, []
    _flat(top, "", nets, regs)
    order = graphlib.TopologicalSorter(
        {t: set(re.findall(r"V\w+", text)) & nets.keys() for t, text in nets.items()})
    state = "".join(f"{r}, " for r, _, _, _ in regs)
    resets = "".join(f"{hex(reset)}, " for _, reset, _, _ in regs)
    commit = "".join(f"({hex(reset)} if {rst} else {nxt}), " for _, reset, nxt, rst in regs)
    src = "\n".join(["def step(Va, Vb, cycles):", f"    ({state}) = ({resets})", "    out = []",
                     "    for _ in range(cycles + 1):",
                     *[f"        {t} = {nets[t]}" for t in order.static_order()],
                     "        out.append(Vc)", f"        ({state}) = ({commit})", "    return out"])
    ns: dict = {}
    exec(src, ns)
    return ns["step"]


def test_reference_stepper_is_independent():
    # the stepper and its helpers name nothing this module imports from
    # the simulator or its renderer, so they check the kernel, not copy it
    shared = {name for name, v in globals().items()
              if getattr(v, "__module__", None) in ("polymulgen.interp", "polymulgen.render")}
    assert {"Simulator", "compile_sim", "_net"} <= shared
    todo = [f.__code__ for f in (_text, _flat, _stepper)]
    while todo:
        code = todo.pop()
        assert shared.isdisjoint(code.co_names), (code.co_name, shared & set(code.co_names))
        todo += [c for c in code.co_consts if type(c) is type(code)]


@pytest.mark.parametrize("params", [
    GenParams(ArchKind.DIGIT_SERIAL, m, mode, n) for m in (13, 64) for n in (1, 2, 3)
    for mode in ArithMode] + [GenParams(ArchKind.DIGIT_SERIAL, 163, n=2)],
    ids=lambda p: f"{p.m}_{p.n}_{p.mode.name}")
def test_digit_tables_match_reference_stepper(params):
    # The wrappers with small digits read their digit select from a table of
    # one entry per value of the digit ring. Past the latency the ring
    # reaches values the latency's tables lack, so those runs render `_run`
    # again; every cycle count up to three past the latency matches the
    # reference stepper.
    top = generate(params)
    sim, step = compile_sim(top, design_library(top)), _stepper(top)
    digits = -(-params.m // params.n)
    assert sum(map(len, _tables(sim).values())) == digits
    for a in _corners(params.m):
        for b in _corners(params.m):
            want = step(a, b, sim.latency + 3)
            assert [sim.run(a, b, cycles=k) for k in range(sim.latency + 4)] == want, (a, b)
    # the ring's value 0, after the last digit, has an entry of its own now
    assert sum(map(len, _tables(sim).values())) == digits + 1


@st.composite
def _trees(draw, width: int, depth: int = 4):
    """An expression of the given width over all 12 node types, leaning on
    the constants folding acts on: 0, all-ones, and rst (0 during a run)."""
    mask = (1 << width) - 1
    leaves = ["const", "ref"] + (["rst"] if width == 1 else [])
    kinds = leaves + (["slice", "concat", "repl", "add", "sub", "and", "xor", "not",
                       "mux", "shl", "cut"] if depth else [])
    kind = draw(st.sampled_from(kinds))
    sub = functools.partial(_trees, depth=depth - 1)
    if kind == "const":
        return Const(width, draw(st.sampled_from([0, 1, mask]) | st.integers(0, mask)))
    if kind == "ref":
        return Ref(f"{draw(st.sampled_from('xy'))}{width}", width)
    if kind == "rst":
        return Ref("rst", 1)
    if kind == "slice":
        extra = draw(st.integers(0, 4))
        return Slice(draw(sub(width + extra)), draw(st.integers(0, extra)), width)
    if kind == "concat" and width > 1:
        cut = draw(st.integers(1, width - 1))
        return Concat((draw(sub(width - cut)), draw(sub(cut))))
    if kind == "repl":
        count = draw(st.sampled_from([c for c in range(1, width + 1) if width % c == 0]))
        return Repl(count, draw(sub(width // count)))
    if kind in ("add", "sub", "and", "xor"):
        node = {"add": Add, "sub": Sub, "and": And, "xor": Xor}[kind]
        return node(draw(sub(width)), draw(sub(width)))
    if kind == "not":
        return Not(draw(sub(width)))
    if kind == "mux":
        arm = draw(sub(width))
        other = draw(st.just(arm) | sub(width))
        return Mux(draw(sub(1)), arm, other)
    if kind == "shl":
        amount = draw(st.integers(0, width - 1))
        return Shl(draw(sub(width - amount)), amount)
    if kind == "cut":  # a cut And-ed with a constant, (v & m) & k
        x, y = draw(sub(width + 1)), draw(sub(width))
        top = Slice(x, 1, width)
        cut = draw(st.sampled_from([Slice(x, 0, width), Add(y, top), Sub(top, y),
                                    And(y, Const(width, mask >> 1))]))
        return And(cut, Const(width, draw(st.integers(0, mask))))
    return Concat((draw(sub(width)),))  # a concat of one bit


# every width a tree of width 8 or less reaches: each of four slices widens by up to 4
_X = {f"{v}{w}": f"{v}{w}" for v in "xy" for w in range(1, 25)}


@settings(derandomize=True, max_examples=200, deadline=None)
@given(st.integers(1, 8).flatmap(_trees), st.randoms(use_true_random=False))
@example(Sub(Const(4, 0), Ref("x4", 4)), random.Random(1))  # zero on the left: no fold
@example(Mux(Ref("x1", 1), Xor(Ref("x4", 4), Const(4, 0)), Ref("x4", 4)), random.Random(2))
@example(Mux(Ref("rst", 1), Ref("x3", 3), Not(Not(Ref("x3", 3)))), random.Random(3))
@example(Not(And(Not(Ref("rst", 1)), Not(Ref("x1", 1)))), random.Random(4))
@example(Not(Concat((Const(1, 0), Not(Ref("x1", 1))))), random.Random(5))  # ~~ of two widths
@example(And(Ref("x2", 2), Repl(2, Ref("rst", 1))), random.Random(6))  # x2 is not read
@example(Sub(Slice(Ref("x8", 8), 0, 4), Ref("x4", 4)), random.Random(7))  # the sum's mask suffices
@example(Add(And(Ref("x4", 4), Const(4, 7)), Ref("x4", 4)), random.Random(8))  # x4 & 7 stays
@example(And(Repl(4, Slice(Ref("x8", 8), 3, 1)), Ref("x4", 4)), random.Random(9))  # a select
@example(And(Ref("x4", 4), Repl(4, Slice(Ref("x8", 8), 3, 1))), random.Random(10))
@example(And(Repl(4, Ref("rst", 1)), Ref("x4", 4)), random.Random(11))  # 0, and x4 is not read
@example(And(Repl(1, Slice(Ref("x4", 4), 1, 1)), Ref("x1", 1)), random.Random(12))
@example(Mux(Slice(Ref("x8", 8), 2, 1), Ref("x3", 3), Ref("y3", 3)), random.Random(13))  # & 0x4
@example(Mux(Slice(Ref("x8", 8), 7, 1), Ref("x3", 3), Ref("y3", 3)), random.Random(14))  # >> 7
@example(Sub(Ref("x4", 4), Sub(Ref("y4", 4), Const(4, 1))), random.Random(15))  # x - (y - 1)
@example(Shl(Add(Ref("x3", 3), Ref("y3", 3)), 1), random.Random(16))  # (x + y & 7) << 1
@example(Repl(2, Mux(Ref("x1", 1), Ref("x2", 2), Ref("y2", 2))), random.Random(17))
@example(Repl(2, Shl(Ref("x1", 1), 1)), random.Random(24))  # (x << 1) * 5
@example(Mux(Mux(Ref("x1", 1), Ref("y1", 1), Slice(Ref("x2", 2), 1, 1)),
             Mux(Ref("y1", 1), Ref("x3", 3), Ref("y3", 3)), Ref("y3", 3)), random.Random(18))
@example(Xor(And(Ref("x4", 4), Ref("y4", 4)), Ref("x4", 4)), random.Random(19))  # x & y ^ x
@example(And(Ref("x4", 4), Xor(Ref("y4", 4), Ref("x4", 4))), random.Random(20))  # x & (y ^ x)
@example(Concat((Ref("x3", 3), Concat((Ref("y2", 2), Ref("x1", 1))))), random.Random(21))
@example(Not(Xor(Ref("x4", 4), Const(4, 7))), random.Random(22))  # 7 is not the mask: no ~~ fold
@example(Add(Xor(Ref("x4", 4), Slice(Ref("y8", 8), 0, 4)), Ref("x4", 4)),
         random.Random(23))  # x ^ (y & 0xf) is not a cut
@example(And(Slice(Shl(Ref("x4", 4), 1), 0, 4), Const(4, 0xA)), random.Random(25))  # x << 1 & 0xa
@example(And(And(Ref("x4", 4), Const(4, 0xC)), Const(4, 3)), random.Random(26))  # 0, x4 not read
def test_folding_matches_reference_property(e, rng):
    # The folded source evaluates to the reference value, and the identifiers it
    # records as read are exactly the names the text reads.
    env = {name: rng.getrandbits(int(name[1:])) for name in _X}
    src, reads = _net(e, {**_X, "rst": 0})
    got = src if type(src) is int else eval(src, {}, dict(env))
    assert got == eval(_text(e, str), {}, {**env, "rst": 0}), src
    text_names = set() if type(src) is int else {
        n.id for n in ast.walk(ast.parse(src, mode="eval")) if isinstance(n, ast.Name)}
    assert set(reads) == text_names, src


@settings(derandomize=True, max_examples=300, deadline=None)
@given(st.integers(1, 8).flatmap(_trees))
@example(And(Slice(Xor(Ref("x8", 8), Ref("y8", 8)), 0, 4), Const(4, 6)))  # (x ^ y) & 0x6
def test_rendered_parentheses_are_minimal_property(e):
    # Only the parentheses Python's precedence needs: no more than ast.unparse
    # writes for the same program (the folding property checks the value).
    src = _net(e, {**_X, "rst": 0})[0]
    if type(src) is str:
        assert src.count("(") <= _norm(src).count("("), src


def test_selects_and_bit_tests_render_one_operator():
    # a replicated bit under an AND selects the other operand, and a bit read
    # for its truth below its base's top is tested with one AND
    bit = Slice(Ref("x8", 8), 3, 1)
    for e in (And(Repl(4, bit), Ref("x4", 4)), And(Ref("x4", 4), Repl(4, bit))):
        assert _norm(_net(e, _X)[0]) == _norm("(x4 if (x8 & 0x8) else 0x0)")
    top = Slice(Ref("x8", 8), 7, 1)
    assert _norm(_net(Mux(top, Ref("x3", 3), Ref("y3", 3)), _X)[0]) == \
        _norm("(x3 if (x8 >> 7) else y3)")
    assert _net(And(Repl(4, Ref("rst", 1)), Ref("x4", 4)), {**_X, "rst": 0})[0] == 0


def _flat_widths(top: RtlModule) -> dict:
    """The width of each identifier in top's kernel, from the IR."""
    origin: dict = {}
    _flatten(top, {**{p.name: p.name for p in top.ports}, "rst": 0}, origin, {}, [], {}, {})
    widths = {"a": top.ports[2].width, "b": top.ports[3].width}
    for ident, (mod, name) in origin.items():
        if "." in name:  # an instance port bound to an expression: <instance>.<port>
            inst, port = name.split(".")
            binding = dict(next(i for i in mod.instances if i.name == inst).bindings)[port]
            widths[ident] = binding.width
        else:
            widths[ident] = next(n.width for n in mod.nets if n.name == name)
    regs = []

    def walk(mod):  # registers are numbered in _flatten's order
        regs.extend(r.width for r in mod.regs)
        kids = {child.name: child for child in mod.children}
        for i in mod.instances:
            walk(kids[i.module_name])

    walk(top)
    widths.update((f"r{i}", w) for i, w in enumerate(regs))
    return widths


@pytest.mark.parametrize("params", [
    GenParams(kind, 64, mode, 8 if kind.arch.needs_digit else None)
    for kind in ArchKind for mode in _modes(kind)] + [GenParams(ArchKind.DIGIT_SERIAL, 64, n=2)],
    ids=lambda p: f"{p.kind.name}_{p.mode.name}{'_2' if p.n == 2 else ''}")
def test_kernel_has_nothing_left_to_fold(params):
    top = generate(params)
    sim = compile_sim(top, design_library(top))
    widths = _flat_widths(top)
    tree = ast.parse(sim.source)

    def const(node):
        return isinstance(node, ast.Constant)

    def sum_(node):
        return isinstance(node, ast.BinOp) and isinstance(node.op, (ast.Add, ast.Sub))

    for node in ast.walk(tree):
        if isinstance(node, (ast.If, ast.IfExp)):  # no branch or mux on a constant
            test = node.test.operand if isinstance(node.test, ast.UnaryOp) else node.test
            assert not const(test), ast.unparse(node)
        if not isinstance(node, ast.BinOp):
            continue
        text = ast.unparse(node)
        assert not (const(node.left) and const(node.right)), text
        if isinstance(node.op, (ast.BitOr, ast.BitXor, ast.Add, ast.LShift)):
            assert 0 not in [x.value for x in (node.left, node.right) if const(x)], text
        # a mask on a slice of a named base, (x >> lo) & mask or x & mask,
        # stops below the base's top
        if isinstance(node.op, ast.BitAnd) and const(node.right):
            base, lo = node.left, 0
            if isinstance(base, ast.BinOp) and isinstance(base.op, ast.RShift) \
                    and const(base.right):
                base, lo = base.left, base.right.value
            if isinstance(base, ast.Name):
                assert lo + node.right.value.bit_length() < widths[base.id], text
        # a replicated bit under an AND is a select, (y if bit else 0x0)
        if isinstance(node.op, ast.BitAnd):
            assert not any(isinstance(x, ast.BinOp) and isinstance(x.op, ast.Mult)
                           for x in (node.left, node.right)), text
        # a sum masked by M reads no operand through a cut (v & M), not even
        # an inner sum
        if isinstance(node.op, ast.BitAnd) and const(node.right):
            todo = [node.left]
            while todo:
                x = todo.pop()
                if sum_(x):
                    for y in (x.left, x.right):
                        assert not (isinstance(y, ast.BinOp) and isinstance(y.op, ast.BitAnd)
                                    and const(y.right)
                                    and y.right.value == node.right.value), text
                        todo.append(y)
    # a copy of a name is written into its readers: no phase assigns a bare name
    run = next(f for f in tree.body if isinstance(f, ast.FunctionDef) and f.name == "_run")
    rows = next(node for node in run.body if isinstance(node, ast.For)
                and ast.unparse(node.iter) == "rows")
    copies = [ast.unparse(x) for x in ast.walk(rows)
              if isinstance(x, ast.Assign) and isinstance(x.value, ast.Name)]
    assert copies == [], copies
    if params.kind is ArchKind.DIGIT_SERIAL:
        # no phase tests the digit ring: the hoist's one table holds one
        # entry per digit, each a slice of b and nothing else
        ring = {t.id for _, loop, _ in _phases(sim).values() for t in ast.walk(loop.target)
                if isinstance(t, ast.Name)}
        assert not [x for entry, loop, step in _phases(sim).values() for stmt in entry + [loop]
                    for x in ast.walk(stmt) if isinstance(x, ast.IfExp)
                    and {n.id for n in ast.walk(x.test) if isinstance(n, ast.Name)} & ring]
        (entries,) = _tables(sim).values()
        assert len(entries) == -(-params.m // params.n)
        for x in entries:
            assert {n.id for n in ast.walk(x) if isinstance(n, ast.Name)} == {"b"}, ast.unparse(x)
            assert not any(isinstance(y, ast.IfExp) for y in ast.walk(x)), ast.unparse(x)


def _flat_merge(top: RtlModule) -> tuple:
    """(nets, regs, order, rep, widths): top's flat netlist after `_merge`."""
    nets: dict = {}
    regs: list = []
    origin: dict = {}
    widths: dict = {}
    _flatten(top, {**{p.name: p.name for p in top.ports}, "rst": 0}, origin, nets, regs, widths, {})
    order = _order({t: sorted(reads.keys() & nets.keys()) for t, (_, reads) in nets.items()},
                   origin)
    return (*_merge(nets, regs, order, widths), widths)


@pytest.mark.parametrize("params", [
    GenParams(kind, 64, mode, 8 if kind.arch.needs_digit else None)
    for kind in ArchKind for mode in _modes(kind)], ids=lambda p: f"{p.kind.name}_{p.mode.name}")
def test_kernel_has_nothing_left_to_merge(params):
    # Sibling instances test equal bits of one column register (toom's point
    # multipliers): the merge keeps one net of each text, so no two nets of
    # equal width have the same text. No two registers of equal width and
    # reset have the same next-state text either: each of karatsuba2's three
    # cores steps its own copy of one schedule, which reads itself.
    top = generate(params)
    nets, regs, order, rep, widths = _flat_merge(top)
    assert set(order) == nets.keys() and rep.keys().isdisjoint(order)
    same: dict = {}
    for r, reset, (src, _) in regs:
        same.setdefault((widths[r], reset, src), []).append(r)
    for t in order:
        if t != "c":
            same.setdefault((widths[t], nets[t][0]), []).append(t)
    assert [ts for ts in same.values() if len(ts) > 1] == []

    sim = compile_sim(top, design_library(top))
    rows = sim._sched(1)[0][0]  # the control values the datapath reads on a cycle
    if params.kind is ArchKind.KARATSUBA2:  # each core's load and run bits; load, then run
        assert (len(rows), len(sim._phases)) == (6, 2)
    if params.kind is ArchKind.TOOM4:  # ld, first, the children's reset and the two result bits
        assert len(rows) == 5


@pytest.mark.parametrize("kind, bits", [(ArchKind.TOOM3, {64: 577, 1024: 8577}),
                                        (ArchKind.TOOM4, {64: 849, 1024: 12369})],
                         ids=["toom3", "toom4"])
def test_toom_keeps_no_register_to_merge(kind, bits):
    # Toom makes each piece of state once: the top's one schedule and one
    # column register serve every point multiplier, which keeps only its
    # accumulator. So the merge maps no register to another, and the
    # register bits summed over the instance tree (schedule, column register,
    # point operands, accumulators, result stages) are pinned.
    for m in (8, 13, 64):
        rep = _flat_merge(generate(GenParams(kind, m)))[3]
        assert [t for t in rep if t[0] == "r"] == [], m
    assert {m: sum(w for t, w in _flat_widths(generate(GenParams(kind, m))).items()
                   if t[0] == "r") for m in bits} == bits


@pytest.mark.parametrize("params", [
    GenParams(kind, m, mode, n) for kind in (ArchKind.KARATSUBA2, ArchKind.DIGIT_SERIAL)
    for mode in _modes(kind) for m in (8, 13, 64)
    for n in (sorted({2, 8, m}) if kind.arch.needs_digit else (None,))],
    ids=lambda p: f"{p.kind.name}_{p.mode.name}_{p.m}_{p.n}")
def test_control_twins_are_not_merged(params):
    # karatsuba2's three cores step equal schedules and the wrapper's phring
    # equals its core's ring, but all of it is control state, which `_sched`
    # steps once per plan: the merge maps no register, and the datapath
    # still meets karatsuba2's two phases and steps its run K cycles at a time.
    top = generate(params)
    rep = _flat_merge(top)[3]
    assert [t for t in rep if t[0] == "r"] == []
    sim = compile_sim(top, design_library(top))
    for a in _corners(params.m):
        for b in _corners(params.m):
            assert sim.run(a, b) == oracle_mul(a, b, params.mode), (a, b)
    if params.kind is ArchKind.KARATSUBA2 and params.m == 64:
        assert len(sim._phases) == 2
        if params.mode is ArithMode.INTEGER:
            assert "range(seg //" in sim.source


@pytest.mark.parametrize("kind", [ArchKind.TOOM3, ArchKind.TOOM4])
def test_toom_child_reset_is_the_ld_bit(kind):
    # The point multipliers keep no schedule of their own, only their
    # accumulators: the schedule steps the top's counter alone. The top holds
    # them in reset outside their h multiply cycles, crst = rst | ld | the
    # result bits | done, which reads ld and the bits after the multiply
    # cycles, and every point multiplier's register commits its reset value,
    # 0, in every phase in which the crst guard is 1: on ld and on each result
    # cycle.
    top = generate(GenParams(kind, 64))
    origin: dict = {}
    _flatten(top, {**{p.name: p.name for p in top.ports}, "rst": 0}, origin, {}, [], {}, {})
    ident = {name: t for t, (mod, name) in origin.items() if mod is top}
    crst = ident["crst"]
    sim = compile_sim(top, design_library(top))
    sched = next(f for f in ast.parse(sim.source).body
                 if isinstance(f, ast.FunctionDef) and f.name == "_sched")
    lines = {stmt.targets[0].id: stmt.value for stmt in ast.walk(sched)
             if isinstance(stmt, ast.Assign) and isinstance(stmt.targets[0], ast.Name)}
    stages = ["fin"] if kind is ArchKind.TOOM3 else ["fin1", "fin2"]
    assert {n.id for n in ast.walk(lines[crst]) if isinstance(n, ast.Name)} == \
        {ident[name] for name in ["ld", *stages, "done"]}
    # the top's registers are r0 .. r<len(top.regs) - 1>, each child's follow
    commit = next(stmt for stmt in sched.body if isinstance(stmt, ast.For)).body[-1]
    assert [t.id for t in commit.targets[0].elts] == \
        [f"r{[r.name for r in top.regs].index('sched')}"]
    assert [(len(child.regs), child.regs[0].reset) for child in top.children] == \
        [(1, 0)] * len(top.children)
    kids = {f"r{i}" for i in range(len(top.regs), len(top.regs) + len(top.children))}
    cleared = [loop.body[-1] for values, (_, loop, _) in _phases(sim).items()
               if values[sim._guards.index(crst)] == 1]
    assert len(cleared) == 1 + len(stages)
    for stmt in cleared:  # the commit of the phase's cycle
        commits = {t.id: v for t, v in zip(stmt.targets[0].elts, stmt.value.elts)}
        assert kids <= commits.keys()
        assert all(isinstance(commits[r], ast.Constant) and commits[r].value == 0 for r in kids)


def _control(top: RtlModule) -> set:
    """The flat identifiers, nets and registers, that a and b cannot reach."""
    nets: dict = {}
    regs: list = []
    _flatten(top, {**{p.name: p.name for p in top.ports}, "rst": 0}, {}, nets, regs, {}, {})
    reads = {t: r.keys() for t, (_, r) in nets.items()}
    reads.update((r, m.keys()) for r, _, (_, m) in regs)
    data = {"a", "b"}
    while more := {t for t, r in reads.items() if r & data} - data:
        data |= more
    return set(reads) - data


@pytest.mark.parametrize("params", [
    GenParams(kind, 64, mode, 8 if kind.arch.needs_digit else None)
    for kind in ArchKind for mode in _modes(kind)], ids=lambda p: f"{p.kind.name}_{p.mode.name}")
def test_loop_computes_no_control_state(params):
    # Counters, first/done/run bits, the ld pulse and the digit ring never read
    # a or b: the datapath's phases receive them as rows, the 1-bit ones bound
    # as constants, and neither compute nor commit them.
    top = generate(params)
    control = _control(top)
    regs = {t for t in control if t.startswith("r")}
    assert regs
    sim = compile_sim(top, design_library(top))
    phases = _phases(sim)
    assert phases
    for entry, loop, step in phases.values():
        targets = {n.id for n in ast.walk(loop.target) if isinstance(n, ast.Name)}
        for stmt in entry + (step.body if step else []) + loop.body:
            for node in ast.walk(stmt):
                if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Store):
                    assert node.id not in control, ast.unparse(stmt)[:120]
                if isinstance(node, ast.Name) and node.id in regs:
                    assert stmt in loop.body and node.id in targets, ast.unparse(stmt)[:120]


@pytest.mark.parametrize("params", [
    GenParams(kind, 13, mode, n) for kind in ArchKind for mode in _modes(kind)
    for n in ((1, 4, 13) if kind.arch.needs_digit else (None,))],
    ids=lambda p: f"{p.kind.name}_{p.mode.name}_{p.n}")
def test_kernel_matches_reference_stepper(params):
    # every cycle count up to three past the latency, so the schedule computed
    # on the call (cycles != latency) is checked as well as the stored one
    top = generate(params)
    sim, step = compile_sim(top, design_library(top)), _stepper(top)
    for a in _corners(13):
        for b in _corners(13):
            want = step(a, b, sim.latency + 3)
            assert want[sim.latency] == oracle_mul(a, b, params.mode), (a, b)
            assert [sim.run(a, b, cycles=k) for k in range(sim.latency + 4)] == want, (a, b)


def _merged(regs: tuple, nets: tuple = ()) -> str:
    """The kernel source of a module with the registers `regs` and the nets
    `nets`, the last of them c, or else c the concatenation of the 4-bit
    registers, after checking its values against the reference stepper for
    every cycle count 0..8 on the corner operands."""
    nets = nets or (("c", Concat(tuple(Ref(r.name, 4) for r in regs))),)
    mod = _module("merge", nets, regs, wc=nets[-1][1].width)
    sim, step = Simulator(mod, {mod.name: mod}), _stepper(mod)
    for a in _corners(4):
        for b in _corners(4):
            assert [sim.run(a, b, cycles=k) for k in range(9)] == step(a, b, 8), (a, b)
    return sim.source


def _regs(source: str) -> set:
    return set(re.findall(r"\br\d+\b", source))


def _count(name: str, reset: int = 0) -> RegDef:
    return RegDef(name, 4, reset, Add(Ref(name, 4), Const(4, 1)))


def test_merge_twin_counters():
    # (a) two identical counters stay two registers: the merge hash-conses
    # nets only
    assert _regs(_merged((_count("p"), _count("q")))) == {"r0", "r1"}


def test_merge_keeps_unequal_resets_apart():
    # (b) the same next state from different reset values never agrees
    assert _regs(_merged((_count("p"), _count("q", 3)))) == {"r0", "r1"}


def test_merge_finds_twin_pairs_that_read_each_other():
    # (c) x1 and y1 read each other, and x2 and y2 the same way: the pairs
    # step alike, and all four registers stay
    def pair(x, y):
        return (RegDef(x, 4, 1, Add(Ref(y, 4), Const(4, 3))),
                RegDef(y, 4, 1, Xor(Ref(x, 4), Ref("a", 4))))
    assert _regs(_merged(pair("x1", "y1") + pair("x2", "y2"))) == {f"r{i}" for i in range(4)}


def test_merge_splits_up_a_shift_chain():
    # (d) two three-stage shift chains whose first stages load different
    # operands: nothing merges
    def chain(name, first):
        return (RegDef(f"{name}0", 4, 0, first), RegDef(f"{name}1", 4, 0, Ref(f"{name}0", 4)),
                RegDef(f"{name}2", 4, 0, Ref(f"{name}1", 4)))
    assert _regs(_merged(chain("s", Ref("a", 4)) + chain("t", Ref("b", 4)))) == \
        {f"r{i}" for i in range(6)}


def test_merge_keeps_nets_of_unequal_width_apart():
    # (e) narrow and wide both render as the bare b; merged, the slice of
    # wide would become a mask on the 4-bit narrow that keeps every bit.
    # Both are copies of b in the hoist, which c reads as b, so the kernel
    # text is the same either way: the merge itself must keep them apart.
    wide = Ref("wide", 8)
    nets = (("narrow", Ref("b", 4)), ("wide", _zext8(Ref("b", 4))),
            ("c", Add(Concat((Ref("narrow", 4), Slice(wide, 0, 4))), wide)))
    assert "    c = (b & 0xf | b << 4) + b & 0xff\n" in _merged((), nets)
    assert _flat_merge(_module("merge", nets, wc=8))[3] == {}


def test_merge_reads_twins_on_every_cycle():
    # twin reads the same as once; step reads twin, and once only when odd:
    # merged, step reads once, twin's representative, in both places
    acc, odd = Ref("acc", 8), Ref("odd", 1)
    nets = (("odd", Slice(Ref("cnt", 4), 0, 1)),
            ("once", Add(acc, _zext8(Ref("a", 4)))), ("twin", Add(acc, _zext8(Ref("a", 4)))),
            ("step", Add(Ref("twin", 8), Mux(odd, Ref("once", 8), Const(8, 0)))), ("c", acc))
    source = _merged((_count("cnt"), RegDef("acc", 8, 0, Ref("step", 8))), nets)
    assert "n2" not in source


# a sign extension of a register, `r | (r >> k) * ones << j`, as _norm writes it
_SIGN_EXTEND = re.compile(r"(r\d+) \| \(\1 >> \d+\) \* \d+ << \d+")


@pytest.mark.parametrize("params, count, longest", [
    (GenParams(ArchKind.SBM, 64), 2, 2), (GenParams(ArchKind.KARATSUBA2, 64), 2, 6),
    (GenParams(ArchKind.TOOM3, 64), 4, 6), (GenParams(ArchKind.TOOM4, 64), 5, 8),
    (GenParams(ArchKind.DIGIT_SERIAL, 64, n=8), 3, 2)],
    ids=["sbm", "karatsuba2", "toom3", "toom4", "wrapper64_8"])
def test_phase_loops_hold_no_invariant_work(params, count, longest):
    # A phase is a distinct tuple of the 1-bit control values: load, then run
    # for one schedule (karatsuba2's three cores share it), plus toom's first
    # multiply cycle and its interpolation cycle (toom4 recomposes on one
    # more) and the wrapper's last cycle of a window. A cycle loop
    # sign-extends only a register its phase changes: toom's point operands,
    # eva<i>, are loaded on the ld cycle and held while the point multipliers
    # run, so their sign extension is evaluated once on entry to a phase,
    # never in a cycle loop, while the interpolation cycle sign-extends the
    # point products it clears. The commit of the longest phase holds only
    # the registers that change in it: toom's column register and its point
    # multipliers' accumulators.
    top = generate(params)
    sim = compile_sim(top, design_library(top))
    operands = {f"r{i}" for i, r in enumerate(top.regs) if r.name.startswith("eva")}
    phases = _phases(sim)
    assert len(phases) == len(sim._phases) == count
    for _, loop, step in phases.values():
        changed = {t.id for t in loop.body[-1].targets[0].elts}
        for stmt in (step.body if step else []) + loop.body:
            for r in _SIGN_EXTEND.findall(ast.unparse(stmt)):
                assert r in changed and r not in operands, ast.unparse(stmt)
    _, loop, step = _main_loop(sim)
    for commit in [loop.body[-1]] + (step.body[-1:] if step else []):  # after a K-step's indices
        assert len(commit.targets[0].elts) == longest


def test_phase_met_after_the_latency_is_rendered_on_demand():
    # The guard hi, the top bit of a free-running counter, is 0 for the one
    # cycle of the latency, so the kernel built with the simulator has one
    # phase; a longer run meets hi = 1, renders the phase and keeps it, and
    # a run of the default length is still right afterwards.
    cnt, acc = Ref("cnt", 2), Ref("acc", 4)
    hi = Ref("hi", 1)
    mod = _module("late", (("hi", Slice(cnt, 1, 1)), ("c", Concat((Const(4, 0), acc)))),
                  (RegDef("cnt", 2, 0, Add(cnt, Const(2, 1))),
                   RegDef("acc", 4, 3, Mux(hi, Add(acc, Ref("a", 4)), Xor(acc, Ref("b", 4))))))
    sim, step = Simulator(mod, {mod.name: mod}), _stepper(mod)
    assert len(sim._phases) == len(_phases(sim)) == 1
    for a in _corners(4):
        for b in _corners(4):
            assert [sim.run(a, b, cycles=k) for k in range(9)] == step(a, b, 8), (a, b)
    assert len(sim._phases) == len(_phases(sim)) == 2
    for a in _corners(4):
        for b in _corners(4):
            assert sim.run(a, b) == step(a, b, 1)[-1], (a, b)


def _main_loop(sim: Simulator) -> tuple:
    """(the statements on entry, the cycle loop, the K-step loop or None) of
    the phase that runs the most cycles of a transaction."""
    cycles: dict = {}
    for i, segment in sim._plans[sim.latency][0]:
        cycles[i] = cycles.get(i, 0) + (segment if type(segment) is int else len(segment))
    main = max(cycles, key=cycles.get)
    return next(block for values, block in _phases(sim).items() if sim._phases[values] == main)


def _reads_table(node) -> bool:
    return any(isinstance(x, ast.Subscript) for x in ast.walk(node))


def _column_shifts(loop) -> list:
    """The registers the cycle loop's commit steps as side-by-side fields:
    `r << 1`, cut with a mask that has a hole besides bit 0, each name read
    through the loop's own line for it."""
    *cycle, commit = loop.body
    lines = {stmt.targets[0].id: stmt.value for stmt in cycle}

    def line(v):
        return lines.get(v.id, v) if isinstance(v, ast.Name) else v

    out = []
    for r, v in zip(commit.targets[0].elts, map(line, commit.value.elts)):
        if isinstance(v, ast.BinOp) and isinstance(v.op, ast.BitAnd) \
                and isinstance(v.right, ast.Constant) and bin(v.right.value).count("0") > 2 \
                and ast.unparse(line(v.left)) == f"{r.id} << 1":
            out.append(r.id)
    return out


@pytest.mark.parametrize("kind, m", [(ArchKind.TOOM3, 13), (ArchKind.TOOM4, 25)],
                         ids=["toom3_13", "toom4_25"])
def test_column_register_masks_match_reference_stepper(kind, m):
    # below the K-step's widths the point multipliers' loop steps the merged
    # column register, the limbs of b side by side, with one shift and one
    # mask and adds each gated operand on its own: at m and at m - 1 it
    # reads no table
    top = generate(GenParams(kind, m))
    sim = compile_sim(top, design_library(top))
    _, loop, step = _main_loop(sim)
    assert step is None and len(_column_shifts(loop)) == 1
    assert not _reads_table(loop)
    assert not _reads_table(_main_loop(_sim(kind, m - 1))[1])
    step = _stepper(top)
    for a in _corners(m):
        for b in _corners(m):
            want = step(a, b, sim.latency + 3)
            assert [sim.run(a, b, cycles=k) for k in range(sim.latency + 4)] == want, (a, b)


def test_toom4_loop_shifts_once_and_reads_no_table():
    # the main loop steps the merged column register with one shift and one
    # mask, and each of the five multi-term point multipliers adds its gated
    # operands one by one: the loop reads that register once for the shift
    # and otherwise only for its bits, each tested by several gated operands,
    # assigns no index, and reads no table
    _, loop, step = _main_loop(_sim(ArchKind.TOOM4, 25))
    assert step is None
    cols = _column_shifts(loop)
    assert len(cols) == 1
    col = cols[0]
    *cycle, _ = loop.body
    reads = [stmt for stmt in cycle if col in {x.id for x in ast.walk(stmt.value)
                                               if isinstance(x, ast.Name)}]
    bits = [stmt for stmt in reads if ast.unparse(stmt.value) != f"{col} << 1"]
    assert len(reads) - len(bits) == 1 and bits
    for stmt in bits:  # `s >> p & 1`, or `s >> p` for the top bit
        bit = stmt.value.left if isinstance(stmt.value.op, ast.BitAnd) else stmt.value
        assert isinstance(bit.op, ast.RShift) and bit.left.id == col, ast.unparse(stmt)
        assert stmt.value is bit or stmt.value.right.value == 1, ast.unparse(stmt)
        tests = [x for x in cycle for y in ast.walk(x.value)
                 if isinstance(y, ast.Name) and y.id == stmt.targets[0].id]
        assert len(tests) > 1, ast.unparse(stmt)
    assert all(re.fullmatch(r"n\d+", stmt.targets[0].id) for stmt in cycle)
    assert not _reads_table(loop)


def _checked(regs: tuple, nets: tuple) -> Simulator:
    """A simulator of a module with the registers `regs` and the nets `nets`,
    the last of them c, and a latency of 8 edges, after checking its values
    against the reference stepper for every cycle count 0..8 on the corner
    operands."""
    mod = _module("rules", nets, regs, latency=8, wc=nets[-1][1].width)
    sim, step = Simulator(mod, {mod.name: mod}), _stepper(mod)
    for a in _corners(4):
        for b in _corners(4):
            assert [sim.run(a, b, cycles=k) for k in range(9)] == step(a, b, 8), (a, b)
    return sim


# a one-hot schedule: first on the edge after reset, then seven cycles of a
# loop, then done; sh loads b on the first cycle and shifts left in the loop
_FIRST, _DONE, _SH = Ref("first", 1), Ref("done", 1), Ref("sh", 4)
_SCHED = (RegDef("sched", 9, 1, Mux(_DONE, Ref("sched", 9),
                                    Slice(Shl(Ref("sched", 9), 1), 0, 9))),
          RegDef("sh", 4, 0, Mux(_FIRST, Ref("b", 4), Slice(Shl(_SH, 1), 0, 4))))
_STEPS = (("first", Slice(Ref("sched", 9), 0, 1)), ("done", Slice(Ref("sched", 9), 8, 1)))


def _gated(name: str, bit: int, value) -> tuple:
    return name, Mux(Slice(_SH, bit, 1), value, Const(8, 0))


def test_gated_sums_keep_their_signs():
    # acc' = g0 - (acc + g1) - g2: the gated operand on the left of a Sub is
    # added, those on its right subtracted; in sum3 the arm of g3 reads acc,
    # so changes every cycle. The loop reads no table: each sum adds its
    # gated operands one by one, each a conditional net of its own
    acc, acc3 = Ref("acc", 8), Ref("acc3", 8)
    za, zb = _zext8(Ref("a", 4)), _zext8(Ref("b", 4))
    nets = _STEPS + (
        _gated("g0", 3, za), _gated("g1", 2, zb), _gated("g2", 1, Xor(za, zb)),
        _gated("g3", 0, acc), _gated("g4", 2, Add(za, za)),
        ("step", Sub(Sub(Ref("g0", 8), Add(acc, Ref("g1", 8))), Ref("g2", 8))),
        ("sum3", Add(Add(Ref("g3", 8), acc3), Sub(Ref("g4", 8), Ref("g0", 8)))),
        ("c", Concat((Slice(acc, 0, 4), Slice(acc3, 0, 4)))))
    regs = _SCHED + (RegDef("acc", 8, 0, Mux(_FIRST, Const(8, 0), Ref("step", 8))),
                     RegDef("acc3", 8, 0, Mux(_FIRST, Const(8, 0), Ref("sum3", 8))))
    _, loop, _ = _main_loop(_checked(regs, nets))
    commit = loop.body[-1].value.elts
    assert [len([x for x in ast.walk(v) if isinstance(x, ast.Subscript)]) for v in commit] \
        == [0, 0, 0]  # sh, acc, acc3
    assert [sum(isinstance(x, ast.IfExp) for x in ast.walk(stmt)) for stmt in loop.body] \
        == [1] * 5 + [0, 0, 0]  # g0..g4, step, sum3, the commit


def test_cut_of_a_sum_read_by_a_child_sum():
    # x = t & 0xf, the cut of the sum t, is the child's operand a, so the
    # child's b - x & 0xf reads it; t, x and the child's sum each keep a
    # line of their own
    kid = _module("kid", (("c", Sub(Ref("b", 4), Ref("a", 4))),), wc=4)
    acc = Ref("acc", 4)
    top = _module("cuts", (
        ("t", Add(Concat((Const(1, 0), acc)), Concat((Const(1, 0), Ref("a", 4))))),
        ("x", Slice(Ref("t", 5), 0, 4)), ("c", _zext8(acc))),
        regs=(RegDef("acc", 4, 3, Ref("k", 4)),), latency=8, children=(kid,),
        instances=(Instance("u_kid", "kid", (
            ("clk", Ref("clk", 1)), ("rst", Ref("rst", 1)), ("a", Ref("x", 4)),
            ("b", Ref("b", 4)), ("c", Ref("k", 4)))),), bare=(Net("k", 4),))
    sim, step = Simulator(top, design_library(top)), _stepper(top)
    for a in _corners(4):
        for b in _corners(4):
            assert [sim.run(a, b, cycles=k) for k in range(9)] == step(a, b, 8), (a, b)
    _, loop, _ = _main_loop(sim)
    assert [ast.unparse(stmt.value) for stmt in loop.body] == \
        ["r0 + a & 31", "n0 & 15", "b - n1 & 15", "(n2,)"]


def _benchmark_designs() -> list:
    """The 93 designs the benchmark verifies (`perfbench/workloads.py`): the
    acceptance matrix, gf2 sbm and karatsuba2 at each of its widths, and the
    eight wide designs."""
    out = []
    for m in (8, 16, 24, 32, 48, 64, 128, 163, 192):
        out += [GenParams(kind, m) for kind in (ArchKind.SBM, ArchKind.KARATSUBA2,
                                                ArchKind.TOOM3, ArchKind.TOOM4)]
        out += [GenParams(ArchKind.DIGIT_SERIAL, m, n=n)
                for n in sorted({n for n in (2, 8, 32, m) if n <= m})]
        out += [GenParams(kind, m, ArithMode.CARRYLESS)
                for kind in (ArchKind.SBM, ArchKind.KARATSUBA2)]
    out += [GenParams(kind, 1024) for kind in (ArchKind.SBM, ArchKind.KARATSUBA2,
                                               ArchKind.TOOM3, ArchKind.TOOM4)]
    return out + [GenParams(ArchKind.KARATSUBA2, 1024, ArithMode.CARRYLESS),
                  GenParams(ArchKind.DIGIT_SERIAL, 1024, n=64),
                  GenParams(ArchKind.DIGIT_SERIAL, 521, n=32),
                  GenParams(ArchKind.DIGIT_SERIAL, 571, ArithMode.CARRYLESS, n=32)]


def test_no_benchmark_design_binds_a_cut_to_a_child_sum():
    # `_look` reads a sum's operand through a net driven by Slice(Ref(x), 0,
    # w) only within one module, so a cut bound to a child's port that a sum
    # in the child reads keeps its own mask beside the sum's (the test
    # above). No benchmark design binds one, so that mask costs none of them.
    designs = _benchmark_designs()
    assert len(set(designs)) == 93
    for params in designs:
        for mod in design_library(generate(params)).values():
            cuts = {a.target for a in mod.assigns if type(a.expr) is Slice
                    and not a.expr.lo and type(a.expr.base) is Ref}
            kids = {kid.name: kid for kid in mod.children}
            for inst in mod.instances:
                kid = kids[inst.module_name]
                todo = [a.expr for a in kid.assigns] + [r.next for r in kid.regs]
                todo += [e for i in kid.instances for _, e in i.bindings]
                summed = set()
                while todo:
                    e = todo.pop()
                    if type(e) in (Add, Sub):
                        summed.update(x.name for x in (e.a, e.b) if type(x) is Ref)
                    todo += children(e)
                for port, e in inst.bindings:
                    assert not (type(e) is Ref and e.name in cuts and port in summed), \
                        (params, mod.name, inst.name, port)


def _hoisted(sim: Simulator) -> dict:
    """The names `_run` assigns above its loop over the rows, each with its
    statement, parsed."""
    run = next(f for f in ast.parse(sim.source).body
               if isinstance(f, ast.FunctionDef) and f.name == "_run")
    body = run.body[:next(i for i, node in enumerate(run.body) if isinstance(node, ast.For))]
    return {t.id: stmt for stmt in body for t in ast.walk(stmt.targets[0])
            if isinstance(t, ast.Name)}


# the smallest widths at which the main loop steps K cycles per iteration.
# An integer step multiplies, and a phase run once per transaction steps from
# a run of 27 cycles: sbm from m = 28, karatsuba2 from m = 53, toom3 from
# m = 82 and toom4 from m = 109; the wrapper with 16-bit digits from three
# digits, m = 33. A gf2 step reads tables: sbm from m = 88, karatsuba2 from
# m = 173 (cores of 88 bits) and the wrapper with 32-bit digits from four
# digits, m = 97.
_FIRST_STEPPED = [(ArchKind.SBM, 28, None, ArithMode.INTEGER),
                  (ArchKind.KARATSUBA2, 53, None, ArithMode.INTEGER),
                  (ArchKind.DIGIT_SERIAL, 33, 16, ArithMode.INTEGER),
                  (ArchKind.TOOM3, 82, None, ArithMode.INTEGER),
                  (ArchKind.TOOM4, 109, None, ArithMode.INTEGER),
                  (ArchKind.SBM, 88, None, ArithMode.CARRYLESS),
                  (ArchKind.KARATSUBA2, 173, None, ArithMode.CARRYLESS),
                  (ArchKind.DIGIT_SERIAL, 97, 32, ArithMode.CARRYLESS)]
# where the integer step read tables, from m and m - 1 on: it fires at both
_TABLE_STEPPED = [(ArchKind.SBM, 88, None), (ArchKind.KARATSUBA2, 173, None),
                  (ArchKind.DIGIT_SERIAL, 97, 32), (ArchKind.TOOM3, 241, None),
                  (ArchKind.TOOM4, 321, None)]
_K_STEP_CASES = [(GenParams(kind, m - below, mode, n), not below)
                 for kind, m, n, mode in _FIRST_STEPPED for below in (0, 1)] + \
    [(GenParams(kind, m - below, ArithMode.INTEGER, n), True)
     for kind, m, n in _TABLE_STEPPED for below in (0, 1)]


@pytest.mark.parametrize("params, fires", _K_STEP_CASES,
                         ids=[f"{p.kind.name}_{p.mode.name}_{p.m}" for p, _ in _K_STEP_CASES])
def test_k_step_matches_reference_stepper(params, fires):
    # at the smallest width at which the K-step fires, and one bit below,
    # where it must not, and at the integer widths where it first read
    # tables: every cycle count, so each remainder seg % K of the main phase
    # runs, against the hierarchical IR stepped one cycle at a time
    top = generate(params)
    sim = compile_sim(top, design_library(top))
    assert (_main_loop(sim)[2] is not None) == fires
    step = _stepper(top)
    for a in _corners(params.m):
        for b in _corners(params.m):
            want = step(a, b, sim.latency + 3)
            assert want[sim.latency] == oracle_mul(a, b, params.mode), (a, b)
            assert [sim.run(a, b, cycles=k) for k in range(sim.latency + 4)] == want, (a, b)


def _serial(variant: str) -> Simulator:
    """A bit-serial multiplier by hand, 100 loop cycles long, after checking
    it against the reference stepper for every cycle count on the corner
    operands: the column register sh, 104 bits of b repeated, shifts left
    by one per cycle, and acc' = (acc << 1) + (v if bit p of sh else 0),
    v = a. Each variant changes one thing: `fires` none; `read` adds a
    register that reads sh on every cycle; `changing` gates acc itself as v;
    `ring` gates a AND a 4-bit control ring, a wide row value; `low` tests
    bit 1 of sh. The chain variants subtract a second gated operand,
    (2a if bit 51 of sh else 0), and change one thing more: `chain` none;
    `fields` shifts sh as 26 fields of 4 bits, a mask clearing bit 0 of
    each, so each is emptied after four cycles, and `narrow` as 52 fields
    of 2 bits; `ungated` adds a; `changing_term` gates acc as the second v;
    `low_term` tests bit 1 of sh for it."""
    loop, w = 100, 104
    sched, sh, acc = Ref("sched", loop + 2), Ref("sh", w), Ref("acc", 12)
    first, done, ring = Ref("first", 1), Ref("done", 1), Ref("ring", 4)
    za = _zext(Ref("a", 4), 12)
    value = {"changing": acc, "ring": And(za, _zext(ring, 12))}.get(variant, za)
    bit = Slice(sh, 1 if variant == "low" else w - 1, 1)
    step = Add(Slice(Shl(acc, 1), 0, 12), Mux(bit, value, Const(12, 0)))
    if variant in ("chain", "fields", "narrow", "ungated", "changing_term", "low_term"):
        twice = acc if variant == "changing_term" else Slice(Shl(za, 1), 0, 12)
        bit = Slice(sh, 1 if variant == "low_term" else 51, 1)
        step = Sub(step, Mux(bit, twice, Const(12, 0)))
        if variant == "ungated":
            step = Add(step, za)
    shift = Slice(Shl(sh, 1), 0, w)
    if size := {"fields": 4, "narrow": 2}.get(variant):
        shift = And(shift, Const(w, sum(((1 << size) - 2) << lo for lo in range(0, w, size))))
    regs = (RegDef("sched", loop + 2, 1, Mux(done, sched, Slice(Shl(sched, 1), 0, loop + 2))),
            RegDef("ring", 4, 1, Concat((Slice(ring, 0, 3), Slice(ring, 3, 1)))),
            RegDef("sh", w, 0, Mux(first, Concat((Ref("b", 4),) * (w // 4)), shift)),
            RegDef("acc", 12, 0, Mux(first, Const(12, 0), step)),
            RegDef("tap", 12, 0, Mux(first, Const(12, 0), Xor(Ref("tap", 12), Slice(sh, 0, 12)))
                   if variant == "read" else Ref("tap", 12)))
    nets = (("first", Slice(sched, 0, 1)), ("done", Slice(sched, loop + 1, 1)),
            ("c", Xor(acc, Ref("tap", 12))))
    mod = _module("serial", nets, regs, latency=loop + 1, wc=12)
    sim, step = Simulator(mod, {mod.name: mod}), _stepper(mod)
    for a in _corners(4):
        for b in _corners(4):
            assert [sim.run(a, b, cycles=k) for k in range(loop + 5)] == \
                step(a, b, loop + 4), (variant, a, b)
    return sim


def _zext(e, width: int):
    return Concat((Const(width - e.width, 0), e))


_VARIANTS = [("fires", 100), ("read", None), ("changing", None), ("ring", None), ("low", 2),
             ("chain", 52), ("fields", 4), ("narrow", 2), ("ungated", None),
             ("changing_term", None), ("low_term", 2)]


@pytest.mark.parametrize("variant, k", _VARIANTS, ids=[v for v, _ in _VARIANTS])
def test_k_step_fires_only_on_bit_serial_accumulate_phases(variant, k):
    # the rule fires only where every register the loop changes is a column
    # register or an accumulator of fixed, gated values, and the loop reads
    # no wide row value. K is the loop's 100 cycles, or fewer where the bits
    # below a tested bit p reach it in fewer: p + 1 cycles (bit 51 in
    # `chain`, bit 1 in `low` and `low_term`) or a field's width (`fields`,
    # `narrow`). `_serial` has checked every variant against the reference
    # stepper at every cycle count, so each remainder seg % K has run.
    _, _, step = _main_loop(_serial(variant))
    assert (step is not None) == (k is not None)
    if step:
        assert ast.unparse(step.iter) == f"range(seg // {k})" and not _reads_table(step)
        products = [x for x in ast.walk(step) if isinstance(x, ast.BinOp)
                    and isinstance(x.op, ast.Mult)]
        # a and a << 1 take one product, with the signs of their operands
        assert [ast.unparse(x.left) for x in products] == ["a"], ast.unparse(step)
        assert len(_addends(products[0].right)) == (1 if variant in ("fires", "low") else 2)


def _addends(e) -> list:
    """The terms of the Add/Sub tree e, each read past a left shift."""
    if isinstance(e, ast.BinOp) and isinstance(e.op, (ast.Add, ast.Sub)):
        return _addends(e.left) + _addends(e.right)
    return [e.left if isinstance(e, ast.BinOp) and isinstance(e.op, ast.LShift) else e]


def _column_read(ix, cols: list) -> bool:
    """Whether the table index ix is one shift of a column register of
    `cols`, masked below its top bit or not."""
    if isinstance(ix, ast.BinOp) and isinstance(ix.op, ast.BitAnd):
        ix = ix.left
    if isinstance(ix, ast.BinOp) and isinstance(ix.op, ast.RShift):
        ix = ix.left
    return isinstance(ix, ast.Name) and ix.id in cols


@pytest.mark.parametrize("params, k, cols, operands, hoisted", [
    (GenParams(ArchKind.SBM, 1024), 1023, 1, [1], True),
    (GenParams(ArchKind.KARATSUBA2, 1024), 512, 3, [1, 1, 1], True),
    (GenParams(ArchKind.KARATSUBA2, 1024, ArithMode.CARRYLESS), 5, 3, [1, 1, 1], True),
    (GenParams(ArchKind.TOOM3, 1024), 341, 1, [1, 1, 3, 3, 3], False),
    (GenParams(ArchKind.TOOM3, 539), 179, 1, [1, 1, 3, 3, 3], False),
    (GenParams(ArchKind.TOOM4, 1024), 255, 1, [1, 1, 4, 4, 4, 4, 4], False)],
    ids=["sbm", "karatsuba2", "karatsuba2_gf2", "toom3", "toom3_539", "toom4"])
def test_bit_serial_loop_steps_k_cycles_per_iteration(params, k, cols, operands, hoisted):
    # the main loop runs seg // K iterations of K cycles, then the seg % K
    # cycles left; in an iteration each column register steps with one
    # shift and one mask, and each accumulator with one shift of itself and
    # its gated operands, each indexed by one shift (and a mask below its
    # top bit) of a column register s, an index that several operands read
    # computed once. An integer step multiplies: K is the main phase's
    # whole run, which the column registers' bits cover (m - 1 cycles for
    # sbm, m / 2 for karatsuba2's cores, h - 1 for toom's point
    # multipliers), and an accumulator adds one product per distinct
    # operand x, `x * (ix + (ix' << k) - ...)`, x reading only the operands
    # and nets computed in the hoist, or, where the operands are not fixed
    # for the transaction (not `hoisted`), on entry. A gf2 step reads a table of `_sums` per gated operand, built
    # in the hoist and read as `h[s >> n]`. The seg % K cycles left read no
    # table.
    sim = _sim(params.kind, params.m, params.mode)
    entry, loop, step = _main_loop(sim)
    assert (ast.unparse(step.iter), ast.unparse(loop.iter)) == \
        (f"range(seg // {k})", f"range(seg % {k})")
    gf2 = params.mode is ArithMode.CARRYLESS
    assert gf2 or k == max(span for span, _ in sim._spans.values())
    *index, commit = step.body
    assert not (hoisted and index)
    shared = {stmt.targets[0].id: stmt.value for stmt in index}
    bound = _hoisted(sim) if hoisted else \
        {**_hoisted(sim), **{stmt.targets[0].id: stmt for stmt in entry}}
    targets = [t.id for t in commit.targets[0].elts]
    reads, products = {}, []
    for target, value in zip(targets, commit.value.elts):
        shifts = [x for x in ast.walk(value) if isinstance(x, ast.BinOp)
                  and isinstance(x.op, ast.LShift)]
        own = [x.right.value for x in shifts if ast.unparse(x.left) == target]
        assert own == [k], ast.unparse(value)
        if gf2:
            shifted = [x for x in shifts if isinstance(x.left, ast.Subscript)]
            assert len(shifts) == 1 + len(shifted) and not (hoisted and shifted), \
                ast.unparse(value)
            tables = [x for x in ast.walk(value) if isinstance(x, ast.Subscript)]
            for read in tables:
                assert ast.unparse(bound[read.value.id].value).startswith("_sums(")
            reads[target] = [read.slice for read in tables]
            continue
        mul = [x for x in ast.walk(value) if isinstance(x, ast.BinOp)
               and isinstance(x.op, ast.Mult)]
        assert len({ast.unparse(x.left) for x in mul}) == len(mul), ast.unparse(value)
        products += mul
        reads[target] = [ix for x in mul for ix in _addends(x.right)]
    col = [t for t in targets if not reads[t]]
    assert len(col) == cols
    assert sorted(len(r) for r in reads.values() if r) == operands
    for x in products:  # x reads only operands and nets bound before the loop
        assert {n.id for n in ast.walk(x.left) if isinstance(n, ast.Name)} <= \
            {"a", "b", *bound}, ast.unparse(x)
    for ix in [x for r in reads.values() for x in r]:
        if hoisted:
            assert isinstance(ix, ast.BinOp) and isinstance(ix.op, ast.RShift)
            assert isinstance(ix.left, ast.Name) and ix.left.id in col
            assert isinstance(ix.right, ast.Constant)
        else:
            assert _column_read(shared.get(ix.id, ix) if isinstance(ix, ast.Name) else ix, col)
    assert len(shared) == len({ast.unparse(v) for v in shared.values()})
    assert all(_column_read(v, col) for v in shared.values())
    assert gf2 or not _reads_table(step)
    assert not _reads_table(loop)


@pytest.mark.parametrize("kind, m, mode", [
    (ArchKind.SBM, 88, ArithMode.INTEGER), (ArchKind.KARATSUBA2, 192, ArithMode.INTEGER),
    (ArchKind.TOOM3, 13, ArithMode.INTEGER), (ArchKind.TOOM3, 163, ArithMode.INTEGER),
    (ArchKind.TOOM3, 241, ArithMode.INTEGER), (ArchKind.TOOM4, 25, ArithMode.INTEGER),
    (ArchKind.TOOM4, 192, ArithMode.INTEGER), (ArchKind.TOOM4, 321, ArithMode.INTEGER),
    (ArchKind.SBM, 88, ArithMode.CARRYLESS), (ArchKind.KARATSUBA2, 192, ArithMode.CARRYLESS)],
    ids=["sbm_88", "karatsuba2_192", "toom3_13", "toom3_163", "toom3_241", "toom4_25",
         "toom4_192", "toom4_321", "sbm_gf2_88", "karatsuba2_gf2_192"])
def test_every_table_read_is_a_k_step_sum(kind, m, mode):
    # the K-step's tables are the only ones a kernel reads: every subscript
    # in `_run` indexes a name bound to `_sums(...)`, above the loops or on
    # entry to a block. Only gf2 steps read them: an integer kernel holds no
    # subscript and names no `_sums`.
    source = _sim(kind, m, mode).source
    run = next(f for f in ast.parse(source).body
               if isinstance(f, ast.FunctionDef) and f.name == "_run")
    bound = {t.id: stmt.value for stmt in ast.walk(run) if isinstance(stmt, ast.Assign)
             for t in ast.walk(stmt.targets[0]) if isinstance(t, ast.Name)}
    reads = [x for x in ast.walk(run) if isinstance(x, ast.Subscript)]
    for read in reads:
        assert ast.unparse(bound[read.value.id]).startswith("_sums("), ast.unparse(read)
    if mode is ArithMode.INTEGER:
        assert not reads and "_sums" not in source
    else:
        assert reads


@st.composite
def _stepped_designs(draw):
    """(kind, m, n, mode) from just below the width at which the main loop
    steps K cycles per iteration up to 1024 bits: integer sbm, karatsuba2,
    the wrapper, toom3 or toom4, or gf2 sbm, karatsuba2 or the wrapper; the
    wrapper with a digit width whose loop may fire, or with two-bit digits,
    whose digit select reads a table of up to 512 entries."""
    mode = draw(st.sampled_from(list(ArithMode)))
    if mode is ArithMode.INTEGER:
        kind = draw(st.sampled_from([ArchKind.SBM, ArchKind.KARATSUBA2, ArchKind.DIGIT_SERIAL,
                                     ArchKind.TOOM3, ArchKind.TOOM4]))
        m = draw(st.integers({ArchKind.SBM: 26, ArchKind.KARATSUBA2: 50, ArchKind.TOOM3: 79,
                              ArchKind.TOOM4: 106}.get(kind, 30), 1024))
    else:
        kind = draw(st.sampled_from([ArchKind.SBM, ArchKind.KARATSUBA2, ArchKind.DIGIT_SERIAL]))
        m = draw(st.integers({ArchKind.SBM: 86, ArchKind.KARATSUBA2: 170}.get(kind, 92), 1024))
    n = draw(st.sampled_from([2, 16, 32, m])) if kind is ArchKind.DIGIT_SERIAL else None
    return kind, m, n, mode


@settings(derandomize=True, max_examples=100, deadline=None)
@given(st.data())
def test_stepped_designs_match_oracle_property(data):
    kind, m, n, mode = data.draw(_stepped_designs())
    sim = _sim(kind, m, mode, n)
    for _ in range(3):
        a, b = data.draw(_operand(m)), data.draw(_operand(m))
        assert sim.run(a, b) == oracle_mul(a, b, mode), (hex(a), hex(b))
