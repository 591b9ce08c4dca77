"""RTL generator tests: conformance against the oracle, structure, and
parameter validation."""

import random

import pytest

from polymulgen.errors import BadDigit, BadParams
from polymulgen.generators import (
    GenParams,
    design_library,
    gen_digit_serial,
    gen_karatsuba2,
    gen_sbm,
    gen_toom3,
    gen_toom4,
    generate,
    top_name,
)
from polymulgen.interp import compile_sim
from polymulgen.ir import check
from polymulgen.models import (
    ArchKind,
    cycle_contract,
    run_digit_serial,
    run_karatsuba2,
    run_sbm,
    run_toom3,
    run_toom4,
)
from polymulgen.numeric import ArithMode, oracle_mul


def _conform(top, mode=ArithMode.INTEGER, vectors=60, seed=41):
    """check() clean, then random vectors against the oracle."""
    library = design_library(top)
    for mod in library.values():
        assert check(mod, library) == [], f"diagnostics in {mod.name}"
    sim = compile_sim(top, library)
    m = top.ports[2].width
    rng = random.Random(seed)
    for _ in range(vectors):
        a = rng.getrandbits(m)
        b = rng.getrandbits(m)
        assert sim.run(a, b) == oracle_mul(a, b, mode), f"{top.name} a={a:#x} b={b:#x}"
    # corner operands
    top_val = (1 << m) - 1
    for a, b in ((0, 0), (top_val, top_val), (top_val, 1), (1, top_val), (0, top_val)):
        assert sim.run(a, b) == oracle_mul(a, b, mode)


def test_sbm_conformance():
    for m in (4, 8, 13, 24):
        _conform(gen_sbm(m))
    _conform(gen_sbm(8, ArithMode.CARRYLESS), ArithMode.CARRYLESS)


def test_karatsuba_conformance():
    for m in (8, 15, 16, 33):
        _conform(gen_karatsuba2(m))
    _conform(gen_karatsuba2(12, ArithMode.CARRYLESS), ArithMode.CARRYLESS)


def test_toom3_conformance():
    for m in (6, 7, 9, 16, 24, 25):
        _conform(gen_toom3(m))


def test_toom4_conformance():
    for m in (8, 9, 15, 16, 32, 35):
        _conform(gen_toom4(m))


def test_digit_serial_conformance():
    for m, n in ((8, 2), (16, 4), (16, 16), (21, 5), (24, 8)):
        _conform(gen_digit_serial(m, n))
    _conform(gen_digit_serial(16, 4, mode=ArithMode.CARRYLESS), ArithMode.CARRYLESS)


def test_latency_matches_contract():
    assert gen_sbm(163).latency_cycles == 163
    assert gen_karatsuba2(163).latency_cycles == 83
    assert gen_toom3(163).latency_cycles == 57
    assert gen_toom4(163).latency_cycles == 44
    assert gen_digit_serial(521, 32).latency_cycles == 544
    assert gen_digit_serial(1024, 64).latency_cycles == 1024


def test_karatsuba_structure():
    # one shared child definition, three instances
    top = gen_karatsuba2(192)
    assert len(top.children) == 1
    assert len(top.instances) == 3
    assert top.children[0].name == "mul_sbm_97"
    assert top.children[0].ports[2].width == 97  # ceil(192/2)+1


def test_karatsuba_odd_width_child():
    # m=521: halves are 261 bits, sum is 262 bits; child takes the wide form
    top = gen_karatsuba2(521)
    child = top.children[0]
    assert child.ports[2].width == 262
    assert child.ports[3].width == 262
    assert top.latency_cycles == 262


def test_toom_instance_counts():
    assert len(gen_toom3(48).instances) == 5
    assert len(gen_toom4(64).instances) == 7


def test_digit_serial_single_core():
    top = gen_digit_serial(1024, 64)
    assert len(top.children) == 1
    assert len(top.instances) == 1
    core = top.children[0]
    assert core.ports[2].width == 1024
    assert core.ports[3].width == 64


def test_generators_are_deterministic():
    assert gen_toom3(36) == gen_toom3(36)
    assert gen_toom4(36) == gen_toom4(36)
    assert gen_digit_serial(48, 8) == gen_digit_serial(48, 8)
    assert generate(GenParams(ArchKind.SBM, 16)) == gen_sbm(16)


def test_genparams_validation():
    with pytest.raises(BadParams):
        GenParams(ArchKind.SBM, 3)
    with pytest.raises(BadParams):
        GenParams(ArchKind.TOOM3, 24, mode=ArithMode.CARRYLESS)
    with pytest.raises(BadParams):
        GenParams(ArchKind.TOOM4, 24, mode=ArithMode.CARRYLESS)
    with pytest.raises(BadParams):
        GenParams(ArchKind.SBM, 16, n=4)  # digit size without wrapper
    with pytest.raises(BadDigit):
        GenParams(ArchKind.DIGIT_SERIAL, 16, n=0)
    with pytest.raises(BadDigit):
        GenParams(ArchKind.DIGIT_SERIAL, 16, n=17)


def test_generator_minimum_widths():
    with pytest.raises(BadParams):
        gen_toom3(5)
    with pytest.raises(BadParams):
        gen_toom4(7)
    with pytest.raises(BadParams):
        gen_sbm(3)


_DIRECT = {  # kind -> the public generator, called directly with (m, n)
    ArchKind.SBM: lambda m, n: gen_sbm(m),
    ArchKind.KARATSUBA2: lambda m, n: gen_karatsuba2(m),
    ArchKind.TOOM3: lambda m, n: gen_toom3(m),
    ArchKind.TOOM4: lambda m, n: gen_toom4(m),
    ArchKind.DIGIT_SERIAL: lambda m, n: gen_digit_serial(m, n),
}


_MODELS = {  # kind -> the public model, called directly with (m, n)
    ArchKind.SBM: lambda m, n: run_sbm(1, 1, m),
    ArchKind.KARATSUBA2: lambda m, n: run_karatsuba2(1, 1, m),
    ArchKind.TOOM3: lambda m, n: run_toom3(1, 1, m),
    ArchKind.TOOM4: lambda m, n: run_toom4(1, 1, m),
    ArchKind.DIGIT_SERIAL: lambda m, n: run_digit_serial(1, 1, m, n),
}


def _raised(call) -> tuple:
    with pytest.raises((BadParams, BadDigit)) as exc:
        call()
    return type(exc.value), str(exc.value)


@pytest.mark.parametrize("kind", list(ArchKind), ids=lambda kind: kind.value)
def test_direct_calls_follow_the_architecture_table(kind):
    arch = kind.arch
    m = arch.min_m
    n = 1 if arch.needs_digit else None
    bad = [(m - 1, n)] + ([(m, 0), (m, m + 1)] if arch.needs_digit else [])
    for bm, bn in bad:
        want = _raised(lambda: GenParams(kind, bm, n=bn))
        assert _raised(lambda: _DIRECT[kind](bm, bn)) == want
        assert _raised(lambda: _MODELS[kind](bm, bn)) == want
    assert dict(_DIRECT[kind](m, n).meta)["method"] == kind.value


def test_top_name_matches_generated_module():
    cases = [
        (GenParams(ArchKind.SBM, 16), None),
        (GenParams(ArchKind.SBM, 16, mode=ArithMode.CARRYLESS), None),
        (GenParams(ArchKind.KARATSUBA2, 20), None),
        (GenParams(ArchKind.TOOM3, 18), None),
        (GenParams(ArchKind.TOOM4, 16), None),
        (GenParams(ArchKind.DIGIT_SERIAL, 16, n=4), None),
        (GenParams(ArchKind.DIGIT_SERIAL, 16, n=4, mode=ArithMode.CARRYLESS), None),
    ]
    for params, _ in cases:
        assert generate(params).name == top_name(params.kind, params.m, params.mode, params.n)


def test_toom3_exhaustive_m6():
    top = gen_toom3(6)
    sim = compile_sim(top, design_library(top))
    for a in range(64):
        for b in range(64):
            assert sim.run(a, b) == a * b


def test_toom4_sampled_m8():
    top = gen_toom4(8)
    sim = compile_sim(top, design_library(top))
    rng = random.Random(42)
    for _ in range(512):
        a = rng.getrandbits(8)
        b = rng.getrandbits(8)
        assert sim.run(a, b) == a * b


def test_meta_carries_parameters():
    meta = dict(gen_digit_serial(48, 8).meta)
    assert meta["method"] == "wrapper"
    assert meta["m"] == "48"
    assert meta["n"] == "8"
    assert meta["mode"] == "integer"
