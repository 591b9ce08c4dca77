"""IR interpreter tests: compiled simulation semantics."""

import functools
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from polymulgen.generators import GenParams, design_library, gen_karatsuba2, gen_sbm, generate
from polymulgen.interp import Simulator, compile_sim
from polymulgen.ir import Assign, Net, Port, Ref, RtlModule
from polymulgen.models import ArchKind
from polymulgen.numeric import ArithMode, oracle_mul

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


def test_combinational_loop_detected():
    ports = (
        Port("clk", "in", 1),
        Port("rst", "in", 1),
        Port("a", "in", 4),
        Port("b", "in", 4),
        Port("c", "out", 8),
    )
    loop = RtlModule(
        name="looper",
        ports=ports,
        nets=(Net("x", 8),),
        regs=(),
        assigns=(Assign("x", Ref("x", 8)), Assign("c", Ref("x", 8))),
        instances=(),
        latency_cycles=1,
        meta=(("method", "loop"), ("m", "4"), ("n", "4"), ("mode", "integer")),
    )
    with pytest.raises(ValueError):
        Simulator(loop, {"looper": loop})
