"""Verilog emission, testbench, and skeleton re-parse tests."""

import hashlib
import pathlib

import pytest

from polymulgen.errors import UncheckedIR
from polymulgen.generators import (
    GenParams,
    design_library,
    gen_digit_serial,
    gen_karatsuba2,
    gen_sbm,
    gen_toom3,
    gen_toom4,
    generate,
)
from polymulgen.ir import Assign, Concat, Net, Port, Ref, RtlModule
from polymulgen.models import ArchKind
from polymulgen.numeric import ArithMode
from polymulgen.verilog import (
    emit_testbench,
    emit_verilog,
    parse_skeleton,
    skeleton_of,
)

GOLDEN = pathlib.Path(__file__).parent / "golden"


def _mods(top):
    return list(top.children) + [top]


def test_golden_sbm_8():
    art = emit_verilog([gen_sbm(8)])
    assert art.text == (GOLDEN / "mul_sbm_8.v").read_text()
    assert art.file_name == "mul_sbm_8.v"
    assert art.top_name == "mul_sbm_8"
    assert art.latency_cycles == 8


@pytest.mark.parametrize("method, m, mode, n, digest", [
    ("karatsuba2", 24, "gf2", None,
     "f81ba54add24b3f61d84626ecda8e9e7beb33caa84bd655b6a9d358f9aaa9073"),
    ("wrapper", 40, "gf2", 8,
     "ded0e570290498fd9bdf22fc0e2a78611eeaf11331af8141cdf0cabb8e910b63"),
    ("wrapper", 12, "integer", 1,
     "4e508fd18748b0d941b178b6425c3c58d16e4cfae156bc98daebb085788036e5"),
    ("wrapper", 29, "integer", 6,  # the digit does not divide m
     "ed494e23ee43e64026480ba7255de530610f7071fca4b9540912adf9f6e72cd7"),
    ("wrapper", 16, "integer", 16,
     "9967b32da3f24b45770474f7958444a3bd8be8d2b336c1f5bb2bb9e7b93747a8"),
    ("toom3", 6, "integer", None,
     "e197e26f12c2b467c67b3c631b7bff029f4482320bcd9edda8b67cf16ff642f8"),
    ("toom4", 8, "integer", None,
     "9ff330bed4fa525c6524c671ec5c849da77ace9ead9e9cb3d219d9a8026da79a"),
    ("toom3", 163, "integer", None,  # the limb width does not divide m
     "70109f3c88c1e642ed9dfe8b48d58c61b82cf52c6327e5e84a4c144e2029ed6b"),
    ("toom4", 163, "integer", None,
     "50751ea52942b9e30ce6ad657265895a63fbeca2dcc45c776cfad99ce4edce3c"),
    ("sbm", 4, "integer", None,
     "485eb771666acf3e47d72a1c972d0721885db58907df98085d01b0b17afb5aeb"),
])
def test_emitted_text_is_pinned(method, m, mode, n, digest):
    # designs config.example.xml does not cover: any change to emission shows here
    top = generate(GenParams(kind=ArchKind(method), m=m, mode=ArithMode(mode), n=n))
    text = emit_verilog(list(design_library(top).values())).text
    assert hashlib.sha256(text.encode("utf-8")).hexdigest() == digest


def test_emission_is_deterministic():
    a = emit_verilog(_mods(gen_toom4(48))).text
    b = emit_verilog(_mods(gen_toom4(48))).text
    assert a == b


def test_header_carries_parameters():
    art = emit_verilog(_mods(gen_digit_serial(64, 16)))
    head = art.text.splitlines()[1]
    assert "method=wrapper" in head
    assert "m=64" in head
    assert "n=16" in head
    assert "mode=integer" in head
    assert "latency_cycles=64" in head


def test_normative_formatting():
    text = emit_verilog([gen_sbm(8)]).text
    assert "\r" not in text
    assert "\t" not in text
    for line in text.splitlines():
        if line and line != line.lstrip():
            indent = len(line) - len(line.lstrip())
            assert indent % 2 == 0
    # one port per line
    assert "  input wire clk," in text
    assert "  output wire [15:0] c" in text


def test_skeleton_roundtrip_all_architectures():
    tops = [
        gen_sbm(16),
        gen_karatsuba2(16),
        gen_toom3(12),
        gen_toom4(16),
        gen_digit_serial(16, 4),
    ]
    for top in tops:
        mods = _mods(top)
        art = emit_verilog(mods)
        assert parse_skeleton(art.text) == skeleton_of(mods)


def test_karatsuba_emits_one_shared_child():
    art = emit_verilog(_mods(gen_karatsuba2(192)))
    assert art.text.count("module mul_sbm_97(") == 1
    assert art.text.count("mul_sbm_97 u_") == 3


def test_emit_rejects_dirty_module():
    ports = (
        Port("clk", "in", 1),
        Port("rst", "in", 1),
        Port("a", "in", 4),
        Port("b", "in", 4),
        Port("c", "out", 8),
    )
    dirty = RtlModule(
        name="dirty",
        ports=ports,
        nets=(Net("ghost", 2),),  # undriven
        regs=(),
        assigns=(Assign("c", Concat((Ref("a", 4), Ref("b", 4)))),),
        instances=(),
        latency_cycles=1,
        meta=(("method", "x"), ("m", "4"), ("n", "4"), ("mode", "integer")),
    )
    with pytest.raises(UncheckedIR):
        emit_verilog([dirty])


def test_emit_rejects_keyword_identifiers():
    ports = (
        Port("clk", "in", 1),
        Port("rst", "in", 1),
        Port("a", "in", 4),
        Port("b", "in", 4),
        Port("c", "out", 8),
    )
    bad = RtlModule(
        name="dirty2",
        ports=ports,
        nets=(Net("wire", 8),),  # legal identifier regex, illegal Verilog
        regs=(),
        assigns=(
            Assign("wire", Concat((Ref("a", 4), Ref("b", 4)))),
            Assign("c", Ref("wire", 8)),
        ),
        instances=(),
        latency_cycles=1,
        meta=(("method", "x"), ("m", "4"), ("n", "4"), ("mode", "integer")),
    )
    with pytest.raises(UncheckedIR):
        emit_verilog([bad])


def test_generated_identifiers_avoid_keywords():
    for top in (gen_sbm(8), gen_karatsuba2(12), gen_toom3(9), gen_toom4(12),
                gen_digit_serial(12, 3)):
        emit_verilog(_mods(top))  # raises UncheckedIR on any keyword hit


def test_testbench_contents():
    top = gen_sbm(8)
    tb = emit_testbench(top, vectors=5, seed=7)
    assert tb.file_name == "tb_mul_sbm_8.v"
    assert tb.vector_count == 5
    assert tb.seed == 7
    assert tb.text.count("check_vec(") == 5 + 1  # 5 calls + task declaration
    assert "repeat (8) @(posedge clk);" in tb.text
    assert "TB_PASS" in tb.text
    assert "TB_FAIL" in tb.text
    assert "$dumpfile" not in tb.text


def test_testbench_dump_flag():
    tb = emit_testbench(gen_sbm(8), vectors=1, seed=1, dump=True)
    assert "$dumpfile" in tb.text
    assert "$dumpvars" in tb.text


def test_testbench_oracle_values_embedded():
    # seed fixes the vectors, so the embedded products are reproducible
    t1 = emit_testbench(gen_sbm(8), vectors=3, seed=5).text
    t2 = emit_testbench(gen_sbm(8), vectors=3, seed=5).text
    assert t1 == t2
    t3 = emit_testbench(gen_sbm(8), vectors=3, seed=6).text
    assert t1 != t3


def test_empty_testbench_rejected():
    # a testbench with no vectors would print TB_PASS without checking anything
    for vectors in (0, -3):
        with pytest.raises(ValueError, match="at least one vector"):
            emit_testbench(gen_sbm(8), vectors=vectors, seed=1)


def test_empty_module_list_rejected():
    with pytest.raises(UncheckedIR):
        emit_verilog([])
