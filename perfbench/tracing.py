"""Span tracing of polymulgen's layers, done entirely from the benchmark.

Each traced function is rebound where its caller looks it up (for example
`polymulgen.cli.generate`, or `polymulgen.verilog.check` as called from
`emit_verilog`), so the program's source is not edited. Spans are kept in
memory: (name, start, end, parent index, op id). A layer's self time is
its span's duration minus the part its child spans cover.
"""

from __future__ import annotations

import collections
import contextlib
import importlib
import json
import sys
from time import perf_counter

from gate import structure

# (module, attribute path, span name). Children are looked up where their
# callers find them, so nesting follows the real call tree.
SPANS = (
    ("polymulgen.cli", "run_batch", "cli.run_batch"),
    ("polymulgen.cli", "generate", "generators.generate"),
    ("polymulgen.cli", "compile_sim", "interp.compile_sim"),
    ("polymulgen.interp", "Simulator.run", "interp.run"),
    ("polymulgen.cli", "oracle_mul", "numeric.oracle_mul"),
    ("polymulgen.verilog", "oracle_mul", "numeric.oracle_mul"),
    ("polymulgen.cli", "emit_verilog", "verilog.emit_verilog"),
    ("polymulgen.verilog", "check", "ir.check"),
    ("polymulgen.cli", "emit_testbench", "verilog.emit_testbench"),
    ("polymulgen.cli", "emit_synth_script", "synth.emit_synth_script"),
)
# Counted but not timed, so their time stays in the caller's self time.
COUNTS = (
    ("polymulgen.cli", "_write_text", "cli.files_written"),
)

SELF_TIMED = ("cli.verify", "cli.gen", "cli.run_batch", "generators.generate",
              "interp.compile_sim", "interp.run", "numeric.oracle_mul", "ir.check",
              "verilog.emit_verilog", "verilog.emit_testbench",
              "synth.emit_synth_script")
CALLS = ("interp.run", "interp.compile_sim", "generators.generate", "ir.check",
         "numeric.oracle_mul")


def _resolve(module: str, path: str):
    owner = importlib.import_module(module)
    *outer, attr = path.split(".")
    for part in outer:
        owner = getattr(owner, part)
    return owner, attr


class Tracer:
    def __init__(self):
        self.spans = []
        self.counts = collections.Counter()
        self.op_id = -1
        self._stack = []
        self._undo = []

    @contextlib.contextmanager
    def span(self, name: str):
        idx = len(self.spans)
        self.spans.append(None)
        parent = self._stack[-1] if self._stack else -1
        self._stack.append(idx)
        start = perf_counter()
        try:
            yield
        finally:
            end = perf_counter()
            self._stack.pop()
            self.spans[idx] = (name, start, end, parent, self.op_id)

    def _count(self, name: str, result, args, kwargs):
        self.counts[name] += 1
        if name == "generators.generate":
            counts = structure(result)
            self.counts["design.nets"] += counts["nets"]
            self.counts["design.regs"] += counts["regs"]
        elif name == "interp.run":
            cycles = args[3] if len(args) > 3 else kwargs.get("cycles")
            self.counts["interp.sim_cycles"] += args[0].latency if cycles is None else cycles
        elif name == "verilog.emit_verilog" or name == "verilog.emit_testbench":
            self.counts["verilog.bytes"] += len(result.text.encode("utf-8"))

    def _wrap(self, fn, name: str, timed: bool):
        def traced(*args, **kwargs):
            if timed:
                with self.span(name):
                    result = fn(*args, **kwargs)
            else:
                result = fn(*args, **kwargs)
            self._count(name, result, args, kwargs)
            return result
        return traced

    def install(self):
        """Rebind every traced name; a name the program no longer has is skipped."""
        missing = []
        for table, timed in ((SPANS, True), (COUNTS, False)):
            for module, path, name in table:
                try:
                    owner, attr = _resolve(module, path)
                    fn = getattr(owner, attr)
                except AttributeError:
                    missing.append(f"{module}.{path}")
                    continue
                setattr(owner, attr, self._wrap(fn, name, timed))
                self._undo.append((owner, attr, fn))
        if missing:
            print(f"trace: not found, not traced: {', '.join(missing)}", file=sys.stderr)

    def uninstall(self):
        for owner, attr, fn in reversed(self._undo):
            setattr(owner, attr, fn)
        self._undo.clear()

    def self_times(self) -> dict:
        """name -> (calls, summed self seconds)."""
        covered = [0.0] * len(self.spans)
        for name, start, end, parent, _ in self.spans:
            if parent >= 0:
                covered[parent] += end - start  # siblings run one after another
        out = collections.defaultdict(lambda: [0, 0.0])
        for (name, start, end, _, _), child in zip(self.spans, covered):
            out[name][0] += 1
            out[name][1] += end - start - child
        return {name: tuple(v) for name, v in out.items()}

    def dump(self, path):
        with open(path, "w", encoding="utf-8") as f:
            for name, start, end, parent, op in self.spans:
                f.write(json.dumps({"name": name, "start": start, "end": end,
                                    "parent": parent, "op": op}) + "\n")


def layer_metrics(tracer: Tracer, passes: int, slowdown: float) -> dict:
    """Per-layer figures per pass, as (value, unit) pairs; times are divided
    by the machine's slowdown, as the end-to-end times are."""
    times = {name: (calls, self_s / slowdown)
             for name, (calls, self_s) in tracer.self_times().items()}
    out = {}
    for name in CALLS:
        out[f"{name}.calls"] = (times.get(name, (0, 0.0))[0] / passes, "count")
    for name in SELF_TIMED:
        out[f"{name}.self_s"] = (times.get(name, (0, 0.0))[1] / passes, "s")
    for name in ("interp.sim_cycles", "design.nets", "design.regs", "cli.files_written"):
        out[name] = (tracer.counts[name] / passes, "count")
    out["verilog.bytes"] = (tracer.counts["verilog.bytes"] / passes, "B")
    cycles = tracer.counts["interp.sim_cycles"]
    run_s = times.get("interp.run", (0, 0.0))[1]
    out["interp.us_per_cycle"] = (run_s / cycles * 1e6 if cycles else 0.0, "us")
    return out
