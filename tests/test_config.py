"""Config parsing, batch orchestration, and CLI tests."""

import argparse
import dataclasses
import hashlib
import os
import pathlib
import subprocess
import sys

import pytest

from polymulgen import cli
from polymulgen.cli import (
    JobSpec,
    main,
    parse_config,
    run_batch,
    serialize_config,
)
from polymulgen.errors import (
    BadDigit,
    SchemaViolation,
    ToomRequiresInteger,
    XmlSyntax,
)
from polymulgen.models import ArchKind
from polymulgen.numeric import ArithMode

ROOT = pathlib.Path(__file__).parent.parent


def test_minimal_config():
    jobs = parse_config('<config><job method="sbm" width="192"/></config>')
    assert len(jobs) == 1
    assert jobs[0].method is ArchKind.SBM
    assert jobs[0].m == 192
    assert jobs[0].mode is ArithMode.INTEGER
    assert jobs[0].n is None
    assert jobs[0].synth is None


def test_wrapper_config():
    jobs = parse_config(
        '<config><job method="wrapper" width="1024" digit="64" inner="sbm"/></config>'
    )
    job = jobs[0]
    assert job.method is ArchKind.DIGIT_SERIAL
    assert job.m == 1024
    assert job.n == 64
    assert job.top_name() == "mul_serial_1024_64"


def test_wrapper_inner_must_be_sbm():
    with pytest.raises(SchemaViolation):
        parse_config(
            '<config><job method="wrapper" width="64" digit="8" inner="toom3"/></config>'
        )


def test_toom_gf2_rejected():
    with pytest.raises(ToomRequiresInteger):
        parse_config('<config><job method="toom3" width="192" mode="gf2"/></config>')
    with pytest.raises(ToomRequiresInteger):
        parse_config('<config><job method="toom4" width="256" mode="gf2"/></config>')


def test_schema_errors_carry_location():
    with pytest.raises(SchemaViolation) as exc:
        parse_config('<config><job method="sbm" width="8"/><zap/></config>')
    assert "config/zap" in str(exc.value)
    with pytest.raises(SchemaViolation) as exc:
        parse_config('<config><job method="sbm" width="8" frobnicate="1"/></config>')
    assert "config/job[0]" in str(exc.value)


def test_xml_syntax_error():
    with pytest.raises(XmlSyntax):
        parse_config("<config><job")


def test_bad_digit_errors():
    with pytest.raises(BadDigit):
        parse_config('<config><job method="wrapper" width="64"/></config>')
    with pytest.raises(BadDigit):
        parse_config('<config><job method="wrapper" width="64" digit="65"/></config>')
    with pytest.raises(SchemaViolation):
        parse_config('<config><job method="sbm" width="64" digit="8"/></config>')


def test_duplicate_identity_rejected():
    with pytest.raises(SchemaViolation):
        parse_config(
            '<config><job method="sbm" width="8"/><job method="sbm" width="8"/></config>'
        )
    # same method+width in different modes is fine
    jobs = parse_config(
        '<config><job method="sbm" width="8"/><job method="sbm" width="8" mode="gf2"/></config>'
    )
    assert len(jobs) == 2


def test_unsupported_version_rejected():
    with pytest.raises(SchemaViolation):
        parse_config('<config version="9"><job method="sbm" width="8"/></config>')


def test_serialize_roundtrip():
    xml = """<config version="1">
      <synth tool="genus" clock-ns="2.0"/>
      <job method="sbm" width="192"/>
      <job method="karatsuba2" width="48" mode="gf2" tb="true" tb-vectors="5" tb-seed="9"/>
      <job method="wrapper" width="521" digit="32">
        <synth tool="dc" clock-ns="1.25" lib="/libs/sc.lib"/>
      </job>
    </config>"""
    jobs = parse_config(xml)
    assert parse_config(serialize_config(jobs)) == jobs


def test_serialize_roundtrip_defaults():
    jobs = [JobSpec(method=ArchKind.TOOM3, m=96)]
    assert parse_config(serialize_config(jobs)) == jobs


def test_config_level_synth_applies_to_all_jobs():
    jobs = parse_config(
        '<config><synth tool="genus" clock-ns="2.0"/>'
        '<job method="sbm" width="16"/><job method="toom3" width="18"/></config>'
    )
    assert all(j.synth is not None for j in jobs)
    assert jobs[0].synth.top_name == "mul_sbm_16"
    assert jobs[1].synth.top_name == "mul_tc3_18"
    assert jobs[0].synth.source_files == ("vlog/mul_sbm_16.v",)


def test_run_batch_layout_and_manifest(tmp_path):
    jobs = parse_config(
        '<config><synth tool="genus" clock-ns="2.0"/>'
        '<job method="sbm" width="16" tb="true" tb-vectors="3" tb-seed="1"/>'
        '<job method="karatsuba2" width="16"/></config>'
    )
    batch = run_batch(jobs, tmp_path)
    assert batch.ok_count == 2
    assert batch.fail_count == 0
    assert (tmp_path / "vlog" / "mul_sbm_16.v").exists()
    assert (tmp_path / "vlog" / "tb_mul_sbm_16.v").exists()
    assert (tmp_path / "vlog" / "mul_km2_16.v").exists()
    assert (tmp_path / "synth" / "mul_sbm_16_genus.tcl").exists()
    lines = (tmp_path / "manifest").read_text().splitlines()
    assert len(lines) == 5  # 2 .v + 1 tb + 2 .tcl
    for line in lines:
        method, m, n, mode, latency, path, digest = line.split()
        assert method in ("sbm", "karatsuba2")
        assert hashlib.sha256((tmp_path / path).read_bytes()).hexdigest() == digest
    assert lines == sorted(lines)  # sorted by job identity


def test_run_batch_isolates_failures(tmp_path):
    # parse_config refuses width 3, so the failing job is built directly
    jobs = [JobSpec(method=ArchKind.SBM, m=3), JobSpec(method=ArchKind.SBM, m=16)]
    batch = run_batch(jobs, tmp_path)
    assert len(batch.results) == 2
    assert batch.fail_count == 1
    assert batch.results[0].error is not None
    assert "BadParams" in batch.results[0].error
    assert batch.results[1].error is None
    assert (tmp_path / "vlog" / "mul_sbm_16.v").exists()


def test_run_batch_idempotent(tmp_path):
    jobs = parse_config('<config><job method="toom4" width="32"/></config>')
    run_batch(jobs, tmp_path / "one")
    run_batch(jobs, tmp_path / "two")
    one = (tmp_path / "one" / "vlog" / "mul_tc4_32.v").read_bytes()
    two = (tmp_path / "two" / "vlog" / "mul_tc4_32.v").read_bytes()
    assert one == two
    m1 = (tmp_path / "one" / "manifest").read_bytes()
    m2 = (tmp_path / "two" / "manifest").read_bytes()
    assert m1 == m2


def _tree(root) -> list:
    return sorted(p.relative_to(root).as_posix() for p in root.rglob("*"))


def _tree_jobs() -> tuple:
    tb, synth, partial = parse_config(
        '<config><job method="sbm" width="16" tb="true" tb-vectors="3"/>'
        '<job method="karatsuba2" width="16"><synth tool="genus" clock-ns="2.0"/></job>'
        '<job method="sbm" width="8" tb="true"><synth tool="dc" clock-ns="1.0"/></job></config>'
    )
    # fails in emit_testbench, after its .v is emitted and before its synth script
    partial = dataclasses.replace(partial, tb_vectors=0)
    return tb, synth, partial, JobSpec(method=ArchKind.SBM, m=3)


def test_run_batch_makes_synth_dir_only_for_a_written_script(tmp_path):
    tb, _, partial, bad = _tree_jobs()
    batch = run_batch([bad, tb], tmp_path / "one")
    assert batch.fail_count == 1
    assert _tree(tmp_path / "one") == ["manifest", "vlog", "vlog/mul_sbm_16.v",
                                       "vlog/tb_mul_sbm_16.v"]
    batch = run_batch([bad, tb, partial], tmp_path / "two")
    assert batch.fail_count == 2
    assert not (tmp_path / "two" / "synth").exists()


def test_run_batch_output_tree(tmp_path):
    tb, synth, partial, bad = _tree_jobs()
    batch = run_batch([tb, bad, synth, partial], tmp_path)
    assert [r.error is None for r in batch.results] == [True, False, True, False]
    assert _tree(tmp_path) == [
        "manifest", "synth", "synth/mul_km2_16_genus.tcl", "vlog", "vlog/mul_km2_16.v",
        "vlog/mul_sbm_16.v", "vlog/tb_mul_sbm_16.v",
    ]
    # the partial job wrote nothing; every file on disk is in the manifest
    listed = {}
    for line in (tmp_path / "manifest").read_text().splitlines():
        *_, path, digest = line.split()
        listed[path] = digest
    assert sorted(listed) == ["synth/mul_km2_16_genus.tcl", "vlog/mul_km2_16.v",
                              "vlog/mul_sbm_16.v", "vlog/tb_mul_sbm_16.v"]
    for path, digest in listed.items():
        assert hashlib.sha256((tmp_path / path).read_bytes()).hexdigest() == digest


def test_run_batch_failed_write_leaves_no_file(tmp_path, monkeypatch):
    # the first job's second write fails: neither of its files is put in
    # place, no temp file is left, and the manifest lists only the other job
    tb, synth, _, _ = _tree_jobs()
    calls, write = [], cli._write_text

    def failing(path, text):
        calls.append(path)
        if len(calls) == 2:
            raise OSError("disk full")
        return write(path, text)

    monkeypatch.setattr(cli, "_write_text", failing)
    batch = run_batch([tb, synth], tmp_path)
    assert [r.error for r in batch.results] == ["OSError: disk full", None]
    assert _tree(tmp_path) == ["manifest", "synth", "synth/mul_km2_16_genus.tcl", "vlog",
                               "vlog/mul_km2_16.v"]
    assert [line.split()[5] for line in (tmp_path / "manifest").read_text().splitlines()] \
        == ["synth/mul_km2_16_genus.tcl", "vlog/mul_km2_16.v"]


def test_cli_model(capsys):
    assert main(["model", "--method", "sbm", "--m", "8", "--a", "AB", "--b", "CD"]) == 0
    out = capsys.readouterr().out
    assert "88EF" in out
    assert "cycles=8" in out


def test_cli_model_wrapper(capsys):
    code = main(
        ["model", "--method", "wrapper", "--m", "16", "--digit", "4", "--a", "ffff", "--b", "ffff"]
    )
    assert code == 0
    out = capsys.readouterr().out
    assert f"0x{0xffff * 0xffff:X}" in out
    assert "cycles=16" in out


def test_cli_verify(capsys):
    assert main(["verify", "--method", "toom4", "--m", "64", "--vectors", "50", "--seed", "7"]) == 0
    assert "ok" in capsys.readouterr().out


def test_cli_gen_and_exit_codes(tmp_path, capsys):
    cfg = tmp_path / "c.xml"
    cfg.write_text('<config><job method="sbm" width="8"/></config>')
    assert main(["gen", "--config", str(cfg), "--out", str(tmp_path / "o")]) == 0
    capsys.readouterr()
    # a width below the table's minimum is a config error, caught at parse time
    cfg.write_text('<config><job method="sbm" width="3"/></config>')
    assert main(["gen", "--config", str(cfg), "--out", str(tmp_path / "o2")]) == 2
    capsys.readouterr()
    # a job that fails while writing is a job failure
    cfg.write_text('<config><job method="sbm" width="8"/><job method="sbm" width="16"/></config>')
    (tmp_path / "o4" / "vlog" / "mul_sbm_8.v").mkdir(parents=True)
    assert main(["gen", "--config", str(cfg), "--out", str(tmp_path / "o4")]) == 1
    assert "1 ok, 1 failed" in capsys.readouterr().out
    cfg.write_text("<config><job")
    assert main(["gen", "--config", str(cfg), "--out", str(tmp_path / "o3")]) == 2
    capsys.readouterr()
    assert main(["gen", "--config", str(tmp_path / "missing.xml"), "--out", str(tmp_path)]) == 2
    capsys.readouterr()


def test_cli_usage_errors(capsys):
    assert main([]) == 2
    assert main(["frobnicate"]) == 2
    assert main(["model", "--method", "nope", "--m", "8", "--a", "1", "--b", "1"]) == 2
    capsys.readouterr()


def test_cli_builds_its_parser_once(monkeypatch, capsys):
    # Calls of main in one process share one parser, built on the first: the
    # top-level parser and its four subcommands, five ArgumentParser objects
    # whatever the calls parse or fail on.
    built = []
    init = argparse.ArgumentParser.__init__

    def counting(self, *args, **kwargs):
        built.append(self)
        init(self, *args, **kwargs)

    monkeypatch.setattr(argparse.ArgumentParser, "__init__", counting)
    forget = getattr(cli._build_parser, "cache_clear", lambda: None)
    forget()  # an earlier test may have built it already
    try:
        assert main(["frobnicate"]) == 2
        assert main(["--help"]) == 0
        assert capsys.readouterr().out.startswith("usage: polymulgen")
        assert main(["verify", "--method", "sbm", "--m", "8", "--vectors", "3"]) == 0
        assert capsys.readouterr().out == "ok mul_sbm_8 vectors=3 latency_cycles=8\n"
        assert main(["model", "--method", "sbm", "--m", "8", "--a", "AB", "--b", "CD"]) == 0
        assert capsys.readouterr().out.startswith("product=0x88EF\n")
        assert main(["model", "--method", "nope", "--m", "8", "--a", "1", "--b", "1"]) == 2
    finally:
        forget()  # later tests build their own, with the real __init__
    assert len(built) == 5


def test_cli_design_parameter_errors(capsys):
    # every design parameter outside the architecture table is exit 2
    assert main(["model", "--method", "toom4", "--m", "5", "--a", "1", "--b", "1"]) == 2
    assert main(["verify", "--method", "toom4", "--m", "5", "--vectors", "1"]) == 2
    assert main(["model", "--method", "toom3", "--m", "16", "--mode", "gf2",
                 "--a", "1", "--b", "1"]) == 2
    assert main(["verify", "--method", "toom3", "--m", "16", "--mode", "gf2",
                 "--vectors", "1"]) == 2
    assert main(["model", "--method", "wrapper", "--m", "16", "--digit", "20",
                 "--a", "1", "--b", "1"]) == 2
    assert main(["verify", "--method", "wrapper", "--m", "16", "--digit", "0",
                 "--vectors", "1"]) == 2
    # --digit missing for the wrapper, or given to another method
    assert main(["model", "--method", "wrapper", "--m", "16", "--a", "1", "--b", "1"]) == 2
    assert main(["verify", "--method", "wrapper", "--m", "16", "--vectors", "1"]) == 2
    assert main(["model", "--method", "sbm", "--m", "16", "--digit", "4",
                 "--a", "1", "--b", "1"]) == 2
    assert main(["verify", "--method", "sbm", "--m", "16", "--digit", "4",
                 "--vectors", "1"]) == 2
    capsys.readouterr()


def test_config_design_parameter_errors():
    # the same rules as the CLI, reported with the job's location
    with pytest.raises(SchemaViolation) as exc:
        parse_config('<config><job method="sbm" width="8"/>'
                     '<job method="toom4" width="5"/></config>')
    assert "config/job[1]" in str(exc.value)
    with pytest.raises(ToomRequiresInteger) as exc:
        parse_config('<config><job method="toom3" width="192" mode="gf2"/></config>')
    assert "config/job[0]" in str(exc.value)
    with pytest.raises(BadDigit) as exc:
        parse_config('<config><job method="wrapper" width="64" digit="0"/></config>')
    assert "config/job[0]" in str(exc.value)
    with pytest.raises(SchemaViolation):
        parse_config('<config><job method="sbm" width="64" inner="sbm"/></config>')


def test_config_tb_vectors_must_be_positive():
    for count in ("0", "-2"):
        with pytest.raises(SchemaViolation) as exc:
            parse_config(f'<config><job method="sbm" width="8" tb="true" '
                         f'tb-vectors="{count}"/></config>')
        assert "tb-vectors" in str(exc.value)


def test_cli_operand_errors(capsys):
    # an operand wider than --m is a domain error: exit 1 with an error line
    assert main(["model", "--method", "sbm", "--m", "8", "--a", "1FF", "--b", "1"]) == 1
    assert "error:" in capsys.readouterr().err
    # an operand that is not hex is a usage error
    assert main(["model", "--method", "sbm", "--m", "8", "--a", "zz", "--b", "1"]) == 2
    assert "hexadecimal" in capsys.readouterr().err


def test_cli_verify_needs_a_vector(capsys):
    for count in ("0", "-3", "x"):
        assert main(["verify", "--method", "sbm", "--m", "8", "--vectors", count]) == 2
        captured = capsys.readouterr()
        assert "ok" not in captured.out
        assert "positive integer" in captured.err


def test_cli_analyze(tmp_path, capsys):
    src = pathlib.Path(__file__).parent / "fixtures" / "table2.csv"
    out_csv = tmp_path / "report.csv"
    assert main(["analyze", "--csv", str(src), "--out", str(out_csv)]) == 0
    table = capsys.readouterr().out
    assert "argmax fom_area" in table
    assert out_csv.exists()
    assert out_csv.read_text().startswith("label,m,n,d,freq_mhz,cycles,area,power")


def test_cli_analyze_out_makes_missing_directories(tmp_path, capsys):
    src = pathlib.Path(__file__).parent / "fixtures" / "table2.csv"
    out_csv = tmp_path / "new" / "deeper" / "report.csv"
    assert main(["analyze", "--csv", str(src), "--out", str(out_csv)]) == 0
    assert out_csv.read_text().startswith("label,m,n,d,freq_mhz,cycles,area,power")


def test_cli_analyze_freq_col(tmp_path, capsys):
    csv_text = "label,m,n,d,mhz,cycles,area,power\nx,16,,,100,16,5,2\n"
    p = tmp_path / "alt.csv"
    p.write_text(csv_text)
    assert main(["analyze", "--csv", str(p), "--freq-col", "mhz"]) == 0
    out = capsys.readouterr().out
    assert "100.000" in out


@pytest.mark.parametrize("csv_text, args", [
    ("", []),
    ("label,m,cycles\nx,16,16\n", []),
    ("label,m,n,d,freq_mhz,cycles\nx,16,,,100,16\n", ["--freq-col", "mhz"]),
    ("label,m,n,d,freq_mhz,cycles\nx,16,,,0,16\n", []),
    ("label,m,n,d,freq_mhz,cycles,area\nx,16,,,100,16,-5\n", []),
    ("label,m,n,d,freq_mhz,cycles\nx,sixteen,,,100,16\n", []),
], ids=["empty", "missing_column", "unknown_freq_col", "zero_freq", "negative_area",
        "not_a_number"])
def test_cli_analyze_malformed_csv_exits_2(tmp_path, capsys, csv_text, args):
    p = tmp_path / "bad.csv"
    p.write_text(csv_text)
    assert main(["analyze", "--csv", str(p), *args]) == 2
    assert capsys.readouterr().err.startswith("csv error: ")


def test_example_config_parses():
    jobs = parse_config((ROOT / "config.example.xml").read_text())
    methods = [j.method for j in jobs]
    assert ArchKind.SBM in methods
    assert ArchKind.KARATSUBA2 in methods
    assert ArchKind.TOOM3 in methods
    assert ArchKind.TOOM4 in methods
    assert ArchKind.DIGIT_SERIAL in methods
    assert any(j.mode is ArithMode.CARRYLESS for j in jobs)
    assert all(j.synth is not None for j in jobs)


# gen config.example.xml's manifest, one line per file written, so a change
# to one design's output shows which job it moved
_EXAMPLE_MANIFEST = """\
karatsuba2 192 - integer 97 synth/mul_km2_192_genus.tcl d12d429808fe9b2e01361e01e3b01610615d2bafc00ded6e6555681a2464d9e0
karatsuba2 192 - integer 97 vlog/mul_km2_192.v 000ced87e631ce8b1b0089d2b3f6141a8efd0c1d9f6808f35c7f6bfd9936f65e
sbm 163 - gf2 163 synth/mul_sbm_cl_163_genus.tcl 3fb7551220f0fbb99d11643cae4c7b635921fbf57fe484d65e8282c3326267d3
sbm 163 - gf2 163 vlog/mul_sbm_cl_163.v 7f1907447cd5d70b473f50cf5b42dc33f72fc6c660ad56e8baa5a69e1a62638f
sbm 163 - gf2 163 vlog/tb_mul_sbm_cl_163.v 1fb8f6ab8ddc150033d4b46f98a9a18f16c77bd54c05a59164442b63b9f86653
sbm 192 - integer 192 synth/mul_sbm_192_genus.tcl df69860d86a22aec66edce2e6e61de08ab37c2ea258cfa526e669956cce9b6dc
sbm 192 - integer 192 vlog/mul_sbm_192.v 262fad07add12c29576e2c83411971df77029e391f4b02799709639ff79ed80f
toom3 192 - integer 66 synth/mul_tc3_192_genus.tcl 8e36be848b1fce5ab1df13b32c91bb21f9ff47894cba085dbd4da35fa41ac6ba
toom3 192 - integer 66 vlog/mul_tc3_192.v 0153243cd7d5b1891c6b30dd8c585768e940e8de3f8148a69d2a753a54c841d1
toom4 192 - integer 51 synth/mul_tc4_192_genus.tcl 70cbbd0fa42908c48efb63f196c6311dcb55bb0f1fb4f174575131fa6bb58dcb
toom4 192 - integer 51 vlog/mul_tc4_192.v 0a4018cf105cbcdd93be7728ba7f340cf82264948dff6415618fc65e08b238a2
wrapper 521 32 integer 544 synth/mul_serial_521_32_genus.tcl b0df9fe6bd3d76cfff68d90a16b08c28bf497ee18e22319471ca9f5210a2abc0
wrapper 521 32 integer 544 vlog/mul_serial_521_32.v 4a52ffe77155d90cbd1616a784cf9f5e7a47b0bdaa7c9a8187796abd3102d137
wrapper 1024 64 integer 1024 synth/mul_serial_1024_64_genus.tcl 6429e665d94569b8c695333c050bbb7647194bde11612bd541620397fa530b1f
wrapper 1024 64 integer 1024 vlog/mul_serial_1024_64.v a0550523262f6969ca4a5c268a932bc3f37b9a477653c59df9dc1165a547abf8
"""


def test_example_config_manifest_is_unchanged(tmp_path):
    jobs = parse_config((ROOT / "config.example.xml").read_text())
    batch = run_batch(jobs, tmp_path)
    assert batch.fail_count == 0
    assert (tmp_path / "manifest").read_bytes().decode() == _EXAMPLE_MANIFEST


@pytest.mark.parametrize("module", ["polymulgen", "polymulgen.cli"])
def test_python_dash_m_runs_quietly(module):
    # runpy warns on stderr when the package has already imported the module it runs
    src = str(ROOT / "src")
    env = {**os.environ,
           "PYTHONPATH": os.pathsep.join(filter(None, (src, os.environ.get("PYTHONPATH"))))}
    run = subprocess.run([sys.executable, "-m", module, "model", "--method", "sbm", "--m", "8",
                          "--a", "3", "--b", "5"], env=env, capture_output=True, text=True,
                         timeout=60)
    assert (run.returncode, run.stderr) == (0, "")
    assert "product=0xF" in run.stdout
