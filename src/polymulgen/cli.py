"""XML configuration, batch orchestration, and the command-line front end.

Config schema (version 1):

    <config version="1">
      <!-- optional default synthesis settings, applied to every job -->
      <synth tool="genus" clock-ns="2.0" lib="/path/to/lib.lib"/>
      <job method="sbm" width="192"/>
      <job method="wrapper" width="1024" digit="64" inner="sbm"/>
      <job method="karatsuba2" width="192" mode="gf2" tb="true"
           tb-vectors="25" tb-seed="7">
        <!-- per-job synth overrides the config-level default -->
        <synth tool="dc" clock-ns="1.5"/>
      </job>
    </config>

job attributes: method (sbm|karatsuba2|toom3|toom4|wrapper), width (bits),
digit + inner (wrapper only; inner is optional and must be sbm, the one core
the wrapper has), mode (integer|gf2, default integer), tb, tb-vectors,
tb-seed.  synth attributes: tool (genus|dc), clock-ns, lib (optional library
path), report-dir (optional, default "reports").
"""

from __future__ import annotations

import argparse
import dataclasses
import functools
import hashlib
import os
import random
import sys
import xml.etree.ElementTree as ET
from pathlib import Path

from .errors import BadDigit, BadParams, SchemaViolation, XmlSyntax
from .generators import GenParams, design_library, generate, top_name
from .interp import compile_sim
from .models import ArchKind, run_model
from .numeric import ArithMode, oracle_mul
from .synth import SUPPORTED_TOOLS, SynthParams, emit_synth_script, script_name
from .verilog import emit_testbench, emit_verilog
from . import analysis

CONFIG_VERSION = "1"

_JOB_ATTRS = ("method", "width", "digit", "inner", "mode", "tb", "tb-vectors", "tb-seed")
_SYNTH_ATTRS = ("tool", "clock-ns", "lib", "report-dir")


@dataclasses.dataclass(frozen=True)
class JobSpec:
    """One generation job from the config file."""

    method: ArchKind
    m: int
    mode: ArithMode = ArithMode.INTEGER
    n: int | None = None
    synth: SynthParams | None = None
    emit_tb: bool = False
    tb_vectors: int = 20
    tb_seed: int = 1

    def identity(self) -> tuple:
        return (self.method.value, self.m, -1 if self.n is None else self.n, self.mode.value)

    def top_name(self) -> str:
        return top_name(self.method, self.m, self.mode, self.n)


@dataclasses.dataclass(frozen=True)
class JobResult:
    job: JobSpec
    artifacts: tuple = ()
    error: str | None = None


@dataclasses.dataclass(frozen=True)
class BatchResult:
    results: tuple
    manifest_path: str

    @property
    def ok_count(self) -> int:
        return sum(1 for r in self.results if r.error is None)

    @property
    def fail_count(self) -> int:
        return sum(1 for r in self.results if r.error is not None)


def _int_attr(el, name: str, where: str, default: int | None = None) -> int | None:
    raw = el.get(name)
    if raw is None:
        return default
    try:
        return int(raw, 0)
    except ValueError:
        raise SchemaViolation(f"{where}: attribute {name}={raw!r} is not an integer") from None


def _bool_attr(el, name: str, where: str, default: bool = False) -> bool:
    raw = el.get(name)
    if raw is None:
        return default
    if raw in ("true", "1"):
        return True
    if raw in ("false", "0"):
        return False
    raise SchemaViolation(f"{where}: attribute {name}={raw!r} is not a boolean")


def _synth_proto(el, where: str) -> tuple:
    """Validate a <synth> element; top-specific fields are filled per job."""
    unknown = sorted(set(el.attrib) - set(_SYNTH_ATTRS))
    if unknown:
        raise SchemaViolation(f"{where}: unknown attribute(s) {unknown}")
    if len(el):
        raise SchemaViolation(f"{where}/{el[0].tag}: unknown element")
    tool = el.get("tool")
    if tool not in SUPPORTED_TOOLS:
        raise SchemaViolation(f"{where}: tool must be one of {SUPPORTED_TOOLS}, got {tool!r}")
    raw = el.get("clock-ns")
    if raw is None:
        raise SchemaViolation(f"{where}: missing clock-ns")
    try:
        clock_ns = float(raw)
    except ValueError:
        raise SchemaViolation(f"{where}: clock-ns={raw!r} is not a number") from None
    if not (clock_ns > 0):
        raise SchemaViolation(f"{where}: clock-ns must be positive, got {clock_ns}")
    return (tool, clock_ns, el.get("lib", ""), el.get("report-dir", "reports"))


def _synth_for(proto: tuple | None, top: str) -> SynthParams | None:
    if proto is None:
        return None
    tool, clock_ns, lib, report_dir = proto
    return SynthParams(
        tool=tool,
        clock_ns=clock_ns,
        top_name=top,
        source_files=(f"vlog/{top}.v",),
        report_dir=report_dir,
        lib_path=lib,
    )


def _job_from_element(el, where: str, default_synth: tuple | None) -> JobSpec:
    unknown = sorted(set(el.attrib) - set(_JOB_ATTRS))
    if unknown:
        raise SchemaViolation(f"{where}: unknown attribute(s) {unknown}")
    raw_method = el.get("method")
    if raw_method is None:
        raise SchemaViolation(f"{where}: missing method")
    try:
        method = ArchKind(raw_method)
    except ValueError:
        raise SchemaViolation(f"{where}: unknown method {raw_method!r}") from None
    m = _int_attr(el, "width", where)
    if m is None:
        raise SchemaViolation(f"{where}: missing width")
    raw_mode = el.get("mode", ArithMode.INTEGER.value)
    try:
        mode = ArithMode(raw_mode)
    except ValueError:
        raise SchemaViolation(f"{where}: unknown mode {raw_mode!r}") from None
    n = _int_attr(el, "digit", where)
    try:
        arch = method.validate(m, mode, n)
    except (SchemaViolation, BadDigit) as e:
        raise type(e)(f"{where}: {e}") from None
    except BadParams as e:
        raise SchemaViolation(f"{where}: {e}") from None
    inner = el.get("inner")
    if inner is not None and not arch.needs_digit:
        raise SchemaViolation(f"{where}: inner is only valid for method=wrapper")
    if inner not in (None, "sbm"):
        raise SchemaViolation(f"{where}: inner={inner!r}; the wrapper core is sbm")

    emit_tb = _bool_attr(el, "tb", where)
    tb_vectors = _int_attr(el, "tb-vectors", where, 20)
    if tb_vectors < 1:
        raise SchemaViolation(f"{where}: tb-vectors must be at least 1, got {tb_vectors}")
    tb_seed = _int_attr(el, "tb-seed", where, 1)

    proto = default_synth
    for child in el:
        if child.tag != "synth":
            raise SchemaViolation(f"{where}/{child.tag}: unknown element")
        proto = _synth_proto(child, f"{where}/synth")

    top = top_name(method, m, mode, n)
    return JobSpec(
        method=method,
        m=m,
        mode=mode,
        n=n,
        synth=_synth_for(proto, top),
        emit_tb=emit_tb,
        tb_vectors=tb_vectors,
        tb_seed=tb_seed,
    )


def parse_config(text: str) -> list:
    """Parse config XML into a list of JobSpec.

    Schema errors carry the path of the offending element; duplicate job
    identities (method, width, digit, mode) are rejected.
    """
    try:
        root = ET.fromstring(text)
    except ET.ParseError as e:
        raise XmlSyntax(f"config is not well-formed XML: {e}") from None
    if root.tag != "config":
        raise SchemaViolation(f"/{root.tag}: root element must be <config>")
    unknown = sorted(set(root.attrib) - {"version"})
    if unknown:
        raise SchemaViolation(f"config: unknown attribute(s) {unknown}")
    version = root.get("version", CONFIG_VERSION)
    if version != CONFIG_VERSION:
        raise SchemaViolation(f"config: unsupported version {version!r}")

    default_synth = None
    jobs = []
    seen = {}
    job_idx = 0
    for child in root:
        if child.tag == "synth":
            default_synth = _synth_proto(child, "config/synth")
        elif child.tag == "job":
            job = _job_from_element(child, f"config/job[{job_idx}]", default_synth)
            ident = job.identity()
            if ident in seen:
                raise SchemaViolation(
                    f"config/job[{job_idx}]: duplicate job identity {ident} (first at job[{seen[ident]}])"
                )
            seen[ident] = job_idx
            jobs.append(job)
            job_idx += 1
        else:
            raise SchemaViolation(f"config/{child.tag}: unknown element")
    return jobs


def serialize_config(jobs) -> str:
    """Inverse of parse_config: parse_config(serialize_config(jobs)) == jobs."""
    defaults = {f.name: f.default for f in dataclasses.fields(JobSpec)}
    lines = [f'<config version="{CONFIG_VERSION}">']
    for job in jobs:
        attrs = [f'method="{job.method.value}"', f'width="{job.m}"']
        if job.n is not None:
            attrs.append(f'digit="{job.n}"')
        if job.mode is not ArithMode.INTEGER:
            attrs.append(f'mode="{job.mode.value}"')
        if job.emit_tb:
            attrs.append('tb="true"')
        if job.tb_vectors != defaults["tb_vectors"]:
            attrs.append(f'tb-vectors="{job.tb_vectors}"')
        if job.tb_seed != defaults["tb_seed"]:
            attrs.append(f'tb-seed="{job.tb_seed}"')
        head = f"  <job {' '.join(attrs)}"
        if job.synth is None:
            lines.append(head + "/>")
        else:
            s = job.synth
            sattrs = [f'tool="{s.tool}"', f'clock-ns="{s.clock_ns}"']
            if s.lib_path:
                sattrs.append(f'lib="{s.lib_path}"')
            if s.report_dir != "reports":
                sattrs.append(f'report-dir="{s.report_dir}"')
            lines.append(head + ">")
            lines.append(f"    <synth {' '.join(sattrs)}/>")
            lines.append("  </job>")
    lines.append("</config>")
    return "\n".join(lines) + "\n"


# --- batch generation -------------------------------------------------------


def _gen_params(job: JobSpec) -> GenParams:
    return GenParams(kind=job.method, m=job.m, mode=job.mode, n=job.n)


def _write_text(path: Path, text: str) -> bytes:
    """Write text as UTF-8 with LF line endings into an existing directory;
    returns the bytes written."""
    data = text.encode("utf-8")
    path.write_bytes(data)
    return data


def _write_all(out: Path, texts: list) -> list:
    """Write each (relative path, text) of `texts` under out: first each to a
    temp name in its own directory, then, once all are written, each into
    place with os.replace, so a failed write leaves none of them behind.
    Returns each (relative path, bytes written)."""
    temps, written = [], []
    try:
        for rel, text in texts:
            path = out / rel
            path.parent.mkdir(exist_ok=True)
            temp = path.with_name(f".{path.name}.{os.getpid()}.tmp")
            temps.append((temp, path))
            written.append((rel, _write_text(temp, text)))
    except BaseException:
        for temp, _ in temps:
            temp.unlink(missing_ok=True)
        raise
    for temp, path in temps:
        os.replace(temp, path)
    return written


def run_batch(jobs, out_dir) -> BatchResult:
    """Generate every job into out_dir/vlog and out_dir/synth.

    One failing job is recorded in its result entry and does not stop the
    others, and it writes none of its files (`_write_all`).  The manifest is
    written last, the same way.  Reruns over the same jobs rewrite
    byte-identical artifacts.
    The manifest lists one line per artifact:
    method m n mode latency_cycles path sha256.
    """
    out = Path(out_dir)
    (out / "vlog").mkdir(parents=True, exist_ok=True)
    results = []
    manifest = []
    for job in jobs:
        try:
            top = generate(_gen_params(job))
            artifact = emit_verilog(list(design_library(top).values()))
            # Every file of the job is emitted before any is written, so a
            # job whose emission fails leaves no file behind.
            texts = [(f"vlog/{artifact.file_name}", artifact.text)]
            if job.emit_tb:
                tb = emit_testbench(top, job.tb_vectors, job.tb_seed)
                texts.append((f"vlog/{tb.file_name}", tb.text))
            if job.synth is not None:
                texts.append((f"synth/{script_name(job.synth)}", emit_synth_script(job.synth)))
            written = _write_all(out, texts)
            for rel, data in written:
                manifest.append((job.identity(), top.latency_cycles, rel,
                                 hashlib.sha256(data).hexdigest()))
            results.append(JobResult(job=job, artifacts=tuple(rel for rel, _ in written)))
        except Exception as e:
            results.append(JobResult(job=job, error=f"{type(e).__name__}: {e}"))
    manifest.sort()
    lines = []
    for (method, m, n, mode), latency, rel, digest in manifest:
        lines.append(f"{method} {m} {'-' if n < 0 else n} {mode} {latency} {rel} {digest}")
    manifest_path = out / "manifest"
    _write_all(out, [("manifest", "\n".join(lines) + ("\n" if lines else ""))])
    return BatchResult(results=tuple(results), manifest_path=str(manifest_path))


# --- command line -----------------------------------------------------------

_METHODS = tuple(k.value for k in ArchKind)
_MODES = tuple(mo.value for mo in ArithMode)


def _hex_operand(text: str) -> int:
    try:
        return int(text, 16)
    except ValueError:
        raise argparse.ArgumentTypeError(f"{text!r} is not a hexadecimal number") from None


def _positive_int(text: str) -> int:
    if not text.isdigit() or int(text) < 1:
        raise argparse.ArgumentTypeError(f"{text!r} is not a positive integer")
    return int(text)


@functools.cache
def _build_parser() -> argparse.ArgumentParser:
    """The command-line parser, built on first use and kept for the process:
    it depends only on the method and mode names."""
    parser = argparse.ArgumentParser(
        prog="polymulgen",
        description="Generate and analyze serial polynomial multiplier hardware.",
    )
    sub = parser.add_subparsers(dest="cmd", required=True)

    g = sub.add_parser("gen", help="run all jobs from a config file")
    g.add_argument("--config", required=True, help="config XML path")
    g.add_argument("--out", required=True, help="output directory")

    mo = sub.add_parser("model", help="run the cycle-accurate architecture model once")
    mo.add_argument("--method", required=True, choices=_METHODS)
    mo.add_argument("--m", required=True, type=int, help="operand width in bits")
    mo.add_argument("--digit", type=int, help="digit size (wrapper only)")
    mo.add_argument("--mode", default="integer", choices=_MODES)
    mo.add_argument("--a", required=True, type=_hex_operand, help="first operand, hex")
    mo.add_argument("--b", required=True, type=_hex_operand, help="second operand, hex")

    ve = sub.add_parser("verify", help="check generated RTL against the arithmetic oracle")
    ve.add_argument("--method", required=True, choices=_METHODS)
    ve.add_argument("--m", required=True, type=int)
    ve.add_argument("--digit", type=int)
    ve.add_argument("--mode", default="integer", choices=_MODES)
    ve.add_argument("--vectors", type=_positive_int, default=200)
    ve.add_argument("--seed", type=int, default=1)

    an = sub.add_parser("analyze", help="latency / figure-of-merit sweep report from CSV")
    an.add_argument("--csv", required=True, help="input CSV path")
    an.add_argument("--freq-col", help="use this column as the frequency column")
    an.add_argument("--out", help="also write the computed CSV here")
    return parser


def _cmd_gen(args) -> int:
    try:
        jobs = parse_config(Path(args.config).read_text(encoding="utf-8"))
    except (XmlSyntax, SchemaViolation, BadDigit) as e:
        print(f"config error: {e}", file=sys.stderr)
        return 2
    except OSError as e:
        print(f"cannot read config: {e}", file=sys.stderr)
        return 2
    batch = run_batch(jobs, args.out)
    for res in batch.results:
        ident = res.job.identity()
        if res.error is None:
            print(f"ok {ident[0]} m={ident[1]} -> {', '.join(res.artifacts)}")
        else:
            print(f"fail {ident[0]} m={ident[1]}: {res.error}")
    print(f"jobs: {batch.ok_count} ok, {batch.fail_count} failed; manifest: {batch.manifest_path}")
    return 0 if batch.fail_count == 0 else 1


def _cmd_model(args) -> int:
    trace = run_model(
        ArchKind(args.method),
        args.a,
        args.b,
        args.m,
        ArithMode(args.mode),
        n=args.digit,
    )
    print(f"product=0x{trace.product:X}")
    print(f"cycles={trace.cycles}")
    return 0


def _cmd_verify(args) -> int:
    mode = ArithMode(args.mode)
    top = generate(GenParams(kind=ArchKind(args.method), m=args.m, mode=mode, n=args.digit))
    sim = compile_sim(top, design_library(top))
    rng = random.Random(args.seed)
    for i in range(args.vectors):
        a = rng.getrandbits(args.m)
        b = rng.getrandbits(args.m)
        got = sim.run(a, b)
        want = oracle_mul(a, b, mode)
        if got != want:
            print(f"mismatch on vector {i}: a={a:#x} b={b:#x} got={got:#x} want={want:#x}",
                  file=sys.stderr)
            return 1
    print(f"ok {top.name} vectors={args.vectors} latency_cycles={top.latency_cycles}")
    return 0


def _cmd_analyze(args) -> int:
    try:
        text = Path(args.csv).read_text(encoding="utf-8")
    except OSError as e:
        print(f"cannot read csv: {e}", file=sys.stderr)
        return 2
    try:
        report = analysis.sweep_report(analysis.read_rows(text, freq_col=args.freq_col))
    except ValueError as e:  # BadInput, BadFrequency, or a cell that is no number
        print(f"csv error: {e}", file=sys.stderr)
        return 2
    sys.stdout.write(report.table_text)
    if args.out:
        out = Path(args.out)
        out.parent.mkdir(parents=True, exist_ok=True)
        _write_text(out, report.csv_text)
    return 0


def main(argv=None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as e:
        return 0 if e.code in (0, None) else 2
    try:
        if args.cmd == "gen":
            return _cmd_gen(args)
        if args.cmd == "model":
            return _cmd_model(args)
        if args.cmd == "verify":
            return _cmd_verify(args)
        if args.cmd == "analyze":
            return _cmd_analyze(args)
    except (BadParams, BadDigit) as e:  # a design parameter outside the table
        print(f"error: {type(e).__name__}: {e}", file=sys.stderr)
        return 2
    except (ValueError, OverflowError, OSError) as e:
        print(f"error: {type(e).__name__}: {e}", file=sys.stderr)
        return 1
    return 2


if __name__ == "__main__":
    sys.exit(main())
