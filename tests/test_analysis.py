"""Latency, figure-of-merit, CSV, and sweep report tests."""

import pathlib

import pytest

from polymulgen.analysis import (
    ReportRow,
    billed_cycles,
    emit_csv,
    fom_area,
    fom_power,
    latency_us,
    read_rows,
    sweep_report,
)
from polymulgen.errors import BadFrequency, BadInput
from polymulgen.models import ArchKind

FIXTURES = pathlib.Path(__file__).parent / "fixtures"


def test_latency_digitized_example():
    assert latency_us(32, 505, 17) == pytest.approx(1.077, abs=5e-4)


def test_latency_single_pass_example():
    assert latency_us(192, 500, 1) == pytest.approx(0.384, abs=5e-4)


def test_latency_zero_digits():
    assert latency_us(123, 400, 0) == 0.0


def test_latency_rejects_bad_frequency():
    with pytest.raises(BadFrequency):
        latency_us(100, 0)
    with pytest.raises(BadFrequency):
        latency_us(100, -5)


def test_latency_linearity():
    base = latency_us(64, 285, 16)
    assert latency_us(128, 285, 16) == pytest.approx(2 * base)
    assert latency_us(64, 285, 32) == pytest.approx(2 * base)
    assert latency_us(64, 570, 16) == pytest.approx(base / 2)


def test_fom_examples():
    assert fom_area(3.59, 122257.8) == pytest.approx(2.28e-6, rel=5e-3)
    assert fom_power(3.59, 20.8) == pytest.approx(1.34e-2, rel=5e-3)
    assert fom_area(1, 1) == 1
    assert fom_power(1, 1) == 1


def test_fom_rejects_nonpositive():
    for fn in (fom_area, fom_power):
        with pytest.raises(BadInput):
            fn(0, 5)
        with pytest.raises(BadInput):
            fn(5, 0)
        with pytest.raises(BadInput):
            fn(-1, 5)


def test_billed_cycles():
    assert billed_cycles(ArchKind.SBM, 192) == 192
    assert billed_cycles(ArchKind.KARATSUBA2, 521) == 261
    assert billed_cycles(ArchKind.TOOM3, 163) == 55
    assert billed_cycles(ArchKind.TOOM4, 409) == 103
    assert billed_cycles(ArchKind.DIGIT_SERIAL, 521, 32) == 544
    assert billed_cycles("toom3", 192) == 64  # string form accepted


def test_read_rows_comments_and_extras():
    rows = read_rows((FIXTURES / "table1.csv").read_text())
    assert len(rows) == 40
    first = rows[0]
    assert first.label == "sbm-p192"
    assert first.m == 192
    assert first.n is None
    assert first.freq_mhz == 500
    assert first.cycles == 192
    assert first.extra("ref_method") == "sbm"
    assert float(first.extra("ref_latency_us")) == pytest.approx(0.382)


def test_read_rows_freq_col():
    text = "label,m,n,d,freq_mhz,mhz,cycles,area,power\nx,16,,,250,100,16,5,2\n"
    (row,) = read_rows(text, freq_col="mhz")
    assert row.freq_mhz == 100.0
    assert ("ref_freq_mhz", "250") in row.extras
    (row,) = read_rows(text, freq_col="freq_mhz")
    assert row.freq_mhz == 250.0
    with pytest.raises(BadInput):
        read_rows(text, freq_col="ghz")


def test_read_rows_missing_columns():
    with pytest.raises(BadInput):
        read_rows("label,m\nx,8\n")
    with pytest.raises(BadInput):
        read_rows("")


def test_csv_roundtrip():
    rows = read_rows((FIXTURES / "table2.csv").read_text())
    report = sweep_report(rows)
    again = read_rows(report.csv_text)
    assert list(again) == list(report.rows)


def test_sweep_marks_argmax():
    rows = [r for r in read_rows((FIXTURES / "table2.csv").read_text()) if r.m == 1024]
    report = sweep_report(rows)
    assert report.argmax_area.n == 64
    assert report.argmax_power.n == 64
    marked = [r for r in report.rows if r.is_argmax_area]
    assert len(marked) == 1 and marked[0].n == 64
    assert "argmax fom_area" in report.table_text
    assert "argmax fom_power" in report.table_text


def test_sweep_scale_invariance():
    import dataclasses

    rows = [r for r in read_rows((FIXTURES / "table2.csv").read_text()) if r.m == 1024]
    base = sweep_report(rows)
    for k in (0.001, 7.0, 1e6):
        scaled_area = [dataclasses.replace(r, area=r.area * k) for r in rows]
        assert sweep_report(scaled_area).argmax_area.n == base.argmax_area.n
        scaled_power = [dataclasses.replace(r, power=r.power * k) for r in rows]
        assert sweep_report(scaled_power).argmax_power.n == base.argmax_power.n


def test_sweep_rejects_empty():
    with pytest.raises(BadInput):
        sweep_report([])


def test_sweep_handles_missing_area():
    rows = [
        ReportRow(label="x", m=16, freq_mhz=100, cycles=16),
        ReportRow(label="y", m=16, freq_mhz=100, cycles=16, area=5.0, power=2.0),
    ]
    report = sweep_report(rows)
    assert report.argmax_area.label == "y"
    assert report.rows[0].fom_area is None
    assert report.rows[0].latency_us == pytest.approx(0.16)


def test_emit_csv_schema():
    rows = [ReportRow(label="x", m=16, freq_mhz=100, cycles=16)]
    text = emit_csv(rows)
    header = text.splitlines()[0]
    assert header == (
        "label,m,n,d,freq_mhz,cycles,area,power,"
        "latency_us,fom_area,fom_power,is_argmax_area,is_argmax_power"
    )
