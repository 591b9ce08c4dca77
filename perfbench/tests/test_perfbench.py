"""The benchmark's own tests: small smoke runs and fault injection.

    python3 -m pytest -q perfbench/tests
"""

import json
import sys
from pathlib import Path

import pytest

BENCH_DIR = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(BENCH_DIR))

import run  # noqa: E402
import workloads  # noqa: E402

BENCHMARK = json.loads((BENCH_DIR.parent / "BENCHMARK.json").read_text())


def small_run(capsys, workload, trace):
    assert run.run(workload, seed=3, seconds=0.01, trace=trace, small=True) == 0
    lines = capsys.readouterr().out.strip().splitlines()
    return json.loads(lines[-2])["record"], json.loads(lines[-1])


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
@pytest.mark.parametrize("trace", [False, True])
def test_every_metric_printed_with_its_unit(capsys, workload, trace):
    record, result = small_run(capsys, workload, trace)
    declared = BENCHMARK["per_layer" if trace else "end_to_end"]
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["failed"] == 0
    assert result["attempted"] >= 1
    assert {name: m["unit"] for name, m in result["metrics"].items()} == {
        m["name"]: m["unit"] for m in declared}
    if not trace:
        assert all(m["value"] > 0 for m in result["metrics"].values())
    assert record["workload"] == workload and record["seed"] == 3


def test_workloads_match_benchmark_json():
    assert [w["name"] for w in BENCHMARK["workloads"]] == list(workloads.WORKLOADS)
    assert len(workloads.matrix_designs()) == 85


def test_inputs_repeat_for_a_seed():
    for name in workloads.WORKLOADS:
        a = workloads.Workload(name, 7).pass_ops(2)
        assert a == workloads.Workload(name, 7).pass_ops(2)
        assert a != workloads.Workload(name, 8).pass_ops(2)


def test_gen_configs_have_4_to_10_jobs():
    for k in range(20):
        ops = workloads.Workload("gen_batch", 5).pass_ops(k)
        assert all(4 <= len(op.jobs) <= 10 for op in ops)


def _wrong_product(monkeypatch):
    from polymulgen.interp import Simulator
    real = Simulator.run
    monkeypatch.setattr(Simulator, "run", lambda self, a, b, cycles=None: real(self, a, b, cycles) ^ 1)


def _verify_exits_nonzero(monkeypatch):
    import polymulgen.cli
    monkeypatch.setattr(polymulgen.cli, "_cmd_verify", lambda args: 1)


def _synth_fails(monkeypatch):
    import polymulgen.cli

    def broken(params):
        raise ValueError("injected")
    monkeypatch.setattr(polymulgen.cli, "emit_synth_script", broken)


def _verilog_port_renamed(monkeypatch):
    import dataclasses
    import polymulgen.cli
    real = polymulgen.cli.emit_verilog

    def renamed(mods):
        art = real(mods)
        return dataclasses.replace(art, text=art.text.replace("input wire clk", "input wire clock"))
    monkeypatch.setattr(polymulgen.cli, "emit_verilog", renamed)


@pytest.mark.parametrize("workload,fault", [
    ("verify_many", _wrong_product),
    ("verify_wide", _wrong_product),
    ("verify_many", _verify_exits_nonzero),
    ("gen_batch", _synth_fails),
    ("gen_batch", _verilog_port_renamed),
])
def test_fault_is_counted_as_failed(capsys, monkeypatch, workload, fault):
    run.load_program()
    fault(monkeypatch)
    _, result = small_run(capsys, workload, False)
    assert result["correct"] is False
    assert 0 < result["failed"] <= result["attempted"]
