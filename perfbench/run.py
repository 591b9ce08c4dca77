"""polymulgen benchmark: drives the public CLI in-process, closed loop, one client.

    python3 perfbench/run.py --workload verify_wide --seed 1 --seconds 25 --trace 0

Run it from the root of a checkout; it imports polymulgen from the
checkout's own `src/`. With `--trace 0` it prints the end-to-end metrics,
with `--trace 1` the per-layer metrics of a traced run. The last line of
standard output is one JSON object: correct, attempted, failed, metrics.
The line before it records the environment and the structural counts.
See perfbench/README.md for the workloads and the metrics.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
from pathlib import Path
from time import perf_counter

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
OUT_DIR = BENCH_DIR / "out"
SETUP_SAMPLES = 11

sys.path.insert(0, str(BENCH_DIR))
import probe  # noqa: E402
import workloads  # noqa: E402


def load_program():
    """Import polymulgen from this checkout's src/, never from elsewhere."""
    if not (SRC / "polymulgen" / "cli.py").is_file():
        raise SystemExit(f"error: {SRC / 'polymulgen'} not found; run from a polymulgen checkout")
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
    import polymulgen.cli
    if Path(polymulgen.cli.__file__).resolve().parent != SRC / "polymulgen":
        raise SystemExit(f"error: imported polymulgen from {polymulgen.cli.__file__}, not {SRC}")
    return polymulgen.cli


def measure_setup() -> tuple:
    """Median time for a fresh interpreter to import polymulgen.cli, ready for
    an op: (raw seconds, seconds divided by the slowdown probed after each)."""
    code = (f"import sys; sys.path.insert(0, {str(SRC)!r}); import polymulgen.cli; "
            "print('ready', flush=True)")
    samples = []
    scaled = []
    for i in range(SETUP_SAMPLES + 1):
        start = perf_counter()
        proc = subprocess.Popen([sys.executable, "-c", code], cwd=ROOT,
                                stdout=subprocess.PIPE, stdin=subprocess.DEVNULL)
        try:
            line = proc.stdout.readline()
            elapsed = perf_counter() - start
            rc = proc.wait(timeout=60)
        finally:
            if proc.poll() is None:
                proc.kill()
                proc.wait()
            proc.stdout.close()
        if rc != 0 or line.strip() != b"ready":
            raise SystemExit("error: a fresh interpreter could not import polymulgen.cli")
        slowdown = probe.slowdown(probe.probe(), 0.0, 0.0)
        if i:  # the first launch may still be writing bytecode caches
            samples.append(elapsed)
            scaled.append(elapsed / slowdown)
    return statistics.median(samples), statistics.median(scaled)


def invoke(cli, argv: list) -> tuple:
    """One CLI invocation, timed; returns (seconds, exit code, stdout + stderr)."""
    out = io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(out):
        start = perf_counter()
        rc = cli.main(argv)
        elapsed = perf_counter() - start
    return elapsed, rc, out.getvalue()


class Runner:
    """Runs passes of one workload and applies the correctness gate to every op."""

    def __init__(self, cli, work: workloads.Workload, work_dir: Path):
        import gate  # imports polymulgen, so only after load_program()
        self.gate = gate
        self.cli = cli
        self.work = work
        self.work_dir = work_dir
        self.attempted = 0
        self.failures = []
        self.latencies = []  # (seconds, slowdown of its pass) per invocation
        self.designs = 0
        self.vectors = 0
        self.jobs = []  # (design, verilog bytes, testbench bytes)

    def run_pass(self, k: int, tracer=None) -> tuple:
        """Runs pass k; returns the summed time of its invocations and the
        machine's slowdown, probed after each invocation."""
        total = 0.0
        slowdowns = []
        first = len(self.latencies)
        for i, op in enumerate(self.work.pass_ops(k)):
            self.attempted += 1
            if isinstance(op, workloads.GenOp):
                cfg = self.work_dir / "config.xml"
                out_dir = self.work_dir / "out"
                cfg.write_text(op.config(), encoding="utf-8")
                argv = ["gen", "--config", str(cfg), "--out", str(out_dir)]
            else:
                argv = op.argv()
            if tracer is None:
                elapsed, rc, out = invoke(self.cli, argv)
            else:
                tracer.op_id = self.attempted
                with tracer.span(f"cli.{argv[0]}"):
                    elapsed, rc, out = invoke(self.cli, argv)
            total += elapsed
            self.latencies.append(elapsed)
            files_s = 0.0
            if self.work.files_weight:
                files_s = probe.probe_files(self.work_dir / "probe")
            slowdowns.append(probe.slowdown(probe.probe(), files_s, self.work.files_weight))
            if isinstance(op, workloads.GenOp):
                failure, sizes = self.gate.check_gen(op, rc, out, out_dir)
                shutil.rmtree(out_dir, ignore_errors=True)
                self.designs += len(op.jobs)
                if k == 0:
                    self.jobs.extend(sizes)
            else:
                failure = self.gate.check_verify(op, rc, out)
                self.designs += 1
                self.vectors += op.vectors
            if failure is not None:
                self.failures.append(f"pass {k} op {i}: {failure}")
        slowdown = statistics.mean(slowdowns)
        self.latencies[first:] = [(t, slowdown) for t in self.latencies[first:]]
        return total, slowdown

    def check_corners(self) -> list:
        """Corner operands on every verified design; one gate op per design."""
        records = []
        for design in self.work.designs:
            self.attempted += 1
            failure, counts = self.gate.check_corners(design)
            if failure is not None:
                self.failures.append(f"corners: {failure}")
                continue
            records.append({"design": design_name(design), **counts})
        return records


def design_name(d) -> str:
    name = f"{d.method}/{d.m}" + (f"/{d.digit}" if d.digit is not None else "")
    return name + ("/gf2" if d.mode == "gf2" else "")


def git_commit() -> str:
    """The checkout's commit, read from .git without running git."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def cpu_model() -> str:
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as f:
            for line in f:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def percentile(values: list, q: int) -> float:
    return statistics.quantiles(values, n=100, method="inclusive")[q - 1]


def time_metrics(runner: Runner, passes: list, scale: bool) -> dict:
    """Time metrics over passes [(seconds, slowdown)], raw or divided by slowdown."""
    def sec(t, slowdown):
        return t / slowdown if scale else t
    walls = [sec(*p) for p in passes]
    ms = [sec(*lat) * 1000 for lat in runner.latencies]
    return {
        "wall_s": (statistics.median(walls), "s"),
        "designs_per_s": (runner.designs / sum(walls), "1/s"),
        "invocation_p50_ms": (statistics.median(ms), "ms"),
        "invocation_p90_ms": (percentile(ms, 90), "ms"),
    }


def timed_run(runner: Runner, seconds: float) -> tuple:
    passes = []
    while sum(t for t, _ in passes) < seconds:
        passes.append(runner.run_pass(len(passes)))
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    metrics = time_metrics(runner, passes, scale=True)
    metrics["peak_rss_mb"] = (peak_rss_mb, "MB")
    raw = {name: value for name, (value, _) in time_metrics(runner, passes, False).items()}
    raw["slowdown"] = statistics.median(s for _, s in passes)
    return metrics, len(passes), raw


def traced_run(runner: Runner, seconds: float, trace_path: Path) -> tuple:
    """Passes alternate traced and untraced runs of the same inputs, so the
    tracing overhead is measured on identical work."""
    import tracing
    tracer = tracing.Tracer()
    traced = []
    untraced = []
    while sum(t for t, _ in traced) < seconds / 2:
        k = len(traced)
        for with_trace in ((True, False) if k % 2 == 0 else (False, True)):
            if with_trace:
                tracer.install()
                try:
                    traced.append(runner.run_pass(k, tracer))
                finally:
                    tracer.uninstall()
            else:
                untraced.append(runner.run_pass(k))
    tracer.dump(trace_path)
    slowdown = statistics.median(s for _, s in traced)
    metrics = tracing.layer_metrics(tracer, len(traced), slowdown)
    with_trace = sum(t / s for t, s in traced)
    without = sum(t / s for t, s in untraced)
    metrics["trace.overhead"] = ((with_trace / without - 1) * 100, "%")
    return metrics, len(traced), {"slowdown": slowdown}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    return run(args.workload, args.seed, args.seconds, bool(args.trace))


def run(workload: str, seed: int, seconds: float, trace: bool, small: bool = False) -> int:
    cli = load_program()
    work = workloads.Workload(workload, seed, small)
    setup = None if trace else measure_setup()
    OUT_DIR.mkdir(exist_ok=True)
    work_dir = OUT_DIR / f"work-{os.getpid()}"
    work_dir.mkdir()
    try:
        runner = Runner(cli, work, work_dir)
        if trace:
            metrics, passes, raw = traced_run(
                runner, seconds, OUT_DIR / f"spans-{workload}-{seed}.jsonl")
        else:
            metrics, passes, raw = timed_run(runner, seconds)
            raw["setup_s"], scaled_setup = setup
            metrics["setup_s"] = (scaled_setup, "s")
        designs = runner.check_corners()
    finally:
        shutil.rmtree(work_dir, ignore_errors=True)
    for failure in runner.failures[:20]:
        print(f"FAIL {failure}", file=sys.stderr)
    record = {
        "workload": workload,
        "seed": seed,
        "trace": trace,
        "python": platform.python_version(),
        "nproc": os.cpu_count(),
        "cpu": cpu_model(),
        "commit": git_commit(),
        "ops": {"passes": passes, "invocations": len(runner.latencies),
                "designs": runner.designs, "vectors": runner.vectors,
                "gate_ops": len(work.designs)},
        "unscaled": raw,
        "designs": designs,
        "jobs_pass0": [{"design": design_name(d), "verilog_bytes": v, "tb_bytes": t}
                       for d, v, t in runner.jobs],
    }
    print(json.dumps({"record": record}))
    result = {
        "correct": not runner.failures,
        "attempted": runner.attempted,
        "failed": len(runner.failures),
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in sorted(metrics.items())},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
