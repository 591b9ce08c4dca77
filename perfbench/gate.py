"""Correctness gate, run outside the timed region.

A verify invocation passes when it exits 0 and prints its
`ok <top> vectors=N latency_cycles=L` line with the requested N. A gen
invocation passes when it exits 0, reports every job ok, every manifest
sha256 matches its file, and every emitted .v re-parses with
`parse_skeleton` to the `skeleton_of` of freshly generated modules. Each
verified design is also run on corner operands through a freshly compiled
Simulator and compared with `oracle_mul`, because `verify` only draws
random vectors.
"""

from __future__ import annotations

import hashlib
import re
from pathlib import Path

from polymulgen.generators import GenParams, design_library, generate
from polymulgen.interp import compile_sim
from polymulgen.models import ArchKind
from polymulgen.numeric import ArithMode, oracle_mul
from polymulgen.verilog import parse_skeleton, skeleton_of

_OK_VERIFY = re.compile(r"^ok (\S+) vectors=(\d+) latency_cycles=(\d+)$", re.M)


def gen_params(design) -> GenParams:
    kind = ArchKind(design.method)
    mode = ArithMode(design.mode)
    if design.digit is None:
        return GenParams(kind=kind, m=design.m, mode=mode)
    return GenParams(kind=kind, m=design.m, mode=mode, n=design.digit)


def module_list(top) -> list:
    """Children before parents, duplicates collapsed by name."""
    ordered = {}

    def visit(mod):
        for child in mod.children:
            visit(child)
        ordered.setdefault(mod.name, mod)

    visit(top)
    return list(ordered.values())


def structure(top) -> dict:
    """Structural counts of one design, summed over its distinct modules."""
    mods = design_library(top).values()
    return {
        "nets": sum(len(mod.nets) for mod in mods),
        "regs": sum(len(mod.regs) for mod in mods),
        "latency_cycles": top.latency_cycles,
    }


def check_verify(op, rc: int, out: str) -> str | None:
    """None when the invocation passed, else the reason it did not."""
    if rc != 0:
        return f"exit code {rc}"
    match = _OK_VERIFY.search(out)
    if match is None:
        return f"no ok line in {out!r}"
    if int(match.group(2)) != op.vectors:
        return f"verified {match.group(2)} vectors, asked for {op.vectors}"
    return None


def corners(m: int) -> tuple:
    ones = (1 << m) - 1
    alt = int("01" * m, 2) & ones
    return (0, 1, ones, 1 << (m - 1), alt, ones ^ alt)


def check_corners(design) -> tuple:
    """Run every pair of corner operands; returns (failure or None, counts)."""
    top = generate(gen_params(design))
    sim = compile_sim(top, design_library(top))
    mode = ArithMode(design.mode)
    values = corners(design.m)
    for a in values:
        for b in values:
            got = sim.run(a, b)
            want = oracle_mul(a, b, mode)
            if got != want:
                return f"{top.name}: a={a:#x} b={b:#x} got={got:#x} want={want:#x}", None
    return None, structure(top)


def check_gen(op, rc: int, out: str, out_dir: Path) -> tuple:
    """Checks one gen output directory against the jobs of its config.

    Returns (failure or None, [(design, verilog_bytes, tb_bytes), ...]).
    """
    if rc != 0:
        return f"exit code {rc}: {out[-300:]!r}", []
    if f"jobs: {len(op.jobs)} ok, 0 failed" not in out:
        return f"not every job ok: {out[-300:]!r}", []
    manifest = (out_dir / "manifest").read_text(encoding="utf-8").splitlines()
    digests = {}
    for line in manifest:
        rel, digest = line.split()[-2:]
        digests[rel] = digest
    expected = 0
    sizes = []
    for job in op.jobs:
        top = generate(gen_params(job.design))
        top_name, skeleton = top.name, skeleton_of(module_list(top))
        files = {f"vlog/{top_name}.v": skeleton}
        if job.tb_vectors is not None:
            files[f"vlog/tb_{top_name}.v"] = [
                {"name": f"tb_{top_name}", "ports": [], "instances": [("dut", top_name)]}]
        if job.synth is not None:
            files[f"synth/{top_name}_{job.synth[0]}.tcl"] = None
        expected += len(files)
        nbytes = {}
        for rel, want in files.items():
            if rel not in digests:
                return f"{rel} missing from the manifest", []
            data = (out_dir / rel).read_bytes()
            if hashlib.sha256(data).hexdigest() != digests[rel]:
                return f"{rel}: sha256 differs from the manifest", []
            if want is not None and parse_skeleton(data.decode("utf-8")) != want:
                return f"{rel}: re-parsed skeleton differs from the IR", []
            nbytes[rel] = len(data)
        sizes.append((job.design, nbytes[f"vlog/{top_name}.v"],
                      nbytes.get(f"vlog/tb_{top_name}.v", 0)))
    if expected != len(digests):
        return f"manifest lists {len(digests)} files, expected {expected}", []
    return None, sizes
