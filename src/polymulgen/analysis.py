"""Latency and figure-of-merit reporting.

Takes implementation rows (frequency, cycle count, area, power) from CSV or
from synthesis report extraction and computes latency plus two
figures-of-merit, marking the best digit size in a sweep.
"""

from __future__ import annotations

import csv
import dataclasses
import io

from .errors import BadFrequency, BadInput
from .models import ArchKind

CSV_INPUT_COLUMNS = ("label", "m", "n", "d", "freq_mhz", "cycles", "area", "power")
CSV_OUTPUT_COLUMNS = CSV_INPUT_COLUMNS + (
    "latency_us",
    "fom_area",
    "fom_power",
    "is_argmax_area",
    "is_argmax_power",
)


@dataclasses.dataclass(frozen=True)
class ReportRow:
    """One design point.  Derived fields stay None until a sweep fills them."""

    label: str
    m: int
    freq_mhz: float
    cycles: int
    n: int | None = None
    d: int | None = None
    area: float | None = None
    power: float | None = None
    latency_us: float | None = None
    fom_area: float | None = None
    fom_power: float | None = None
    is_argmax_area: bool = False
    is_argmax_power: bool = False
    extras: tuple = ()

    def extra(self, key: str, default=None):
        for k, v in self.extras:
            if k == key:
                return v
        return default


def latency_us(cycles: int, freq_mhz: float, digits: int = 1) -> float:
    """Latency in microseconds: cycles / freq_mhz * digits.

    For digit-serial designs pass the per-digit cycle count (the digit size)
    as ``cycles`` and the digit count as ``digits``; for single-pass designs
    leave digits at 1.
    """
    if not (freq_mhz > 0):
        raise BadFrequency(f"frequency must be positive, got {freq_mhz}")
    if digits == 0:
        return 0.0
    return cycles / freq_mhz * digits


def fom_area(latency: float, area: float) -> float:
    """Figure of merit 1/(latency*area); higher is better."""
    if not (latency > 0 and area > 0):
        raise BadInput(f"latency and area must be positive, got {latency}, {area}")
    return 1.0 / (latency * area)


def fom_power(latency: float, power_mw: float) -> float:
    """Figure of merit 1/(latency*power); higher is better."""
    if not (latency > 0 and power_mw > 0):
        raise BadInput(f"latency and power must be positive, got {latency}, {power_mw}")
    return 1.0 / (latency * power_mw)


def billed_cycles(kind: ArchKind, m: int, n: int | None = None) -> int:
    """Cycle count billed for latency reporting.

    This is the length of the serial operand-scanning phase: m for the
    schoolbook design, ceil(m/k) for the k-way splitting designs, and d*n
    for the digit-serial wrapper (d = ceil(m/n) windows of n cycles each).
    The constant-cycle tail that the splitting designs spend combining
    sub-products is excluded here; use models.cycle_contract for the exact
    number of cycles until the product port is valid.
    """
    arch = ArchKind(kind).arch
    return arch.billed(m, arch.digit(n))


# --- CSV input --------------------------------------------------------------


def _opt_int(text: str | None) -> int | None:
    if text is None or text.strip() == "":
        return None
    return int(text)


def _opt_float(text: str | None) -> float | None:
    if text is None or text.strip() == "":
        return None
    return float(text)


def _opt_bool(text: str | None) -> bool:
    if text is None or text.strip() == "":
        return False
    return text.strip() not in ("0", "false", "False")


def read_rows(text: str, freq_col: str | None = None) -> list:
    """Parse report rows from CSV text.

    Lines starting with '#' are comments.  Required columns: label, m,
    freq_mhz, cycles.  Optional: n, d, area, power, plus the derived output
    columns.  Any other columns (e.g. ref_* reference values) are kept in
    row.extras.  With freq_col, that column is read as freq_mhz and a
    freq_mhz column, if any, is kept as the extra ref_freq_mhz.
    """
    lines = [ln for ln in text.splitlines() if not ln.lstrip().startswith("#") and ln.strip()]
    reader = csv.DictReader(lines)
    if reader.fieldnames is None:
        raise BadInput("empty CSV")
    if freq_col is not None:
        names = [c.strip() for c in reader.fieldnames]
        if freq_col not in names:
            raise BadInput(f"column {freq_col!r} not in CSV header {names}")
        i = names.index(freq_col)
        names = ["ref_freq_mhz" if c == "freq_mhz" else c for c in names]
        names[i] = "freq_mhz"
        reader.fieldnames = names
    known = set(CSV_OUTPUT_COLUMNS)
    missing = {"label", "m", "freq_mhz", "cycles"} - set(reader.fieldnames)
    if missing:
        raise BadInput(f"CSV missing required columns: {sorted(missing)}")
    rows = []
    for rec in reader:
        extras = tuple(
            (k, rec[k]) for k in reader.fieldnames if k not in known and rec.get(k) is not None
        )
        rows.append(
            ReportRow(
                label=rec["label"],
                m=int(rec["m"]),
                freq_mhz=float(rec["freq_mhz"]),
                cycles=int(rec["cycles"]),
                n=_opt_int(rec.get("n")),
                d=_opt_int(rec.get("d")),
                area=_opt_float(rec.get("area")),
                power=_opt_float(rec.get("power")),
                latency_us=_opt_float(rec.get("latency_us")),
                fom_area=_opt_float(rec.get("fom_area")),
                fom_power=_opt_float(rec.get("fom_power")),
                is_argmax_area=_opt_bool(rec.get("is_argmax_area")),
                is_argmax_power=_opt_bool(rec.get("is_argmax_power")),
                extras=extras,
            )
        )
    return rows


def _cell(value) -> str:
    if value is None:
        return ""
    if isinstance(value, bool):
        return "1" if value else "0"
    return str(value)


def emit_csv(rows) -> str:
    """Serialize rows to CSV with the full output schema (no extras)."""
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(CSV_OUTPUT_COLUMNS)
    for r in rows:
        writer.writerow([_cell(getattr(r, col)) for col in CSV_OUTPUT_COLUMNS])
    return buf.getvalue()


# --- sweep report -----------------------------------------------------------


@dataclasses.dataclass(frozen=True)
class SweepReport:
    rows: tuple
    csv_text: str
    table_text: str
    argmax_area: ReportRow | None
    argmax_power: ReportRow | None


def _fmt(value, kind: str) -> str:
    if value is None:
        return "-"
    if kind == "f":
        return f"{value:.3f}"
    if kind == "e":
        return f"{value:.3e}"
    return str(value)


def sweep_report(rows) -> SweepReport:
    """Compute latency and both FoMs per row and mark the argmax rows.

    Rows missing area (or power) are skipped for the corresponding FoM and
    its argmax.  Ties keep the first row.
    """
    rows = list(rows)
    if not rows:
        raise BadInput("sweep_report needs at least one row")
    computed = []
    for r in rows:
        digits = r.d if r.d is not None else 1
        lat = latency_us(r.cycles, r.freq_mhz, digits)
        fa = fom_area(lat, r.area) if (r.area is not None and lat > 0) else None
        fp = fom_power(lat, r.power) if (r.power is not None and lat > 0) else None
        computed.append(
            dataclasses.replace(
                r,
                latency_us=lat,
                fom_area=fa,
                fom_power=fp,
                is_argmax_area=False,
                is_argmax_power=False,
                extras=(),
            )
        )
    best_a = max(
        (i for i in range(len(computed)) if computed[i].fom_area is not None),
        key=lambda i: computed[i].fom_area,
        default=None,
    )
    best_p = max(
        (i for i in range(len(computed)) if computed[i].fom_power is not None),
        key=lambda i: computed[i].fom_power,
        default=None,
    )
    if best_a is not None:
        computed[best_a] = dataclasses.replace(computed[best_a], is_argmax_area=True)
    if best_p is not None:
        computed[best_p] = dataclasses.replace(computed[best_p], is_argmax_power=True)

    headers = ("label", "m", "n", "d", "freq_mhz", "cycles", "latency_us", "area", "power", "fom_area", "fom_power", "best")
    table = []
    for r in computed:
        argmax = ("A" if r.is_argmax_area else "") + ("P" if r.is_argmax_power else "")
        table.append(
            [
                r.label,
                str(r.m),
                _cell(r.n) or "-",
                _cell(r.d) or "-",
                _fmt(r.freq_mhz, "f"),
                str(r.cycles),
                _fmt(r.latency_us, "f"),
                _cell(r.area) or "-",
                _cell(r.power) or "-",
                _fmt(r.fom_area, "e"),
                _fmt(r.fom_power, "e"),
                argmax or "-",
            ]
        )
    widths = [max(len(headers[i]), max(len(row[i]) for row in table)) for i in range(len(headers))]
    lines = ["  ".join(h.ljust(widths[i]) for i, h in enumerate(headers))]
    lines.append("  ".join("-" * w for w in widths))
    for row in table:
        lines.append("  ".join(cellv.ljust(widths[i]) for i, cellv in enumerate(row)))
    if best_a is not None:
        ra = computed[best_a]
        lines.append(f"argmax fom_area: {ra.label} (n={_cell(ra.n) or '-'}, fom={ra.fom_area:.3e})")
    if best_p is not None:
        rp = computed[best_p]
        lines.append(f"argmax fom_power: {rp.label} (n={_cell(rp.n) or '-'}, fom={rp.fom_power:.3e})")
    text = "\n".join(lines) + "\n"
    return SweepReport(
        rows=tuple(computed),
        csv_text=emit_csv(computed),
        table_text=text,
        argmax_area=computed[best_a] if best_a is not None else None,
        argmax_power=computed[best_p] if best_p is not None else None,
    )
