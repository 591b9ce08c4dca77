"""Seeded inputs for the three benchmark workloads.

Every workload is a closed loop of CLI invocations from one client. Its
inputs are grouped into passes: pass k is a deterministic function of
(workload, seed, k), so the same seed always gives the same inputs. The
program under test only ever sees the argv and config files built here.

- verify_wide: one `verify` per wide design, many vectors each.
  Simulation dominates, so a faster or batched simulator shows here.
- verify_many: `verify` with few vectors on each of the 85 small designs
  (the acceptance matrix plus the gf2 sbm/karatsuba2 variants). Compile
  cost and per-design set-up show here.
- gen_batch: `gen` on seeded configs of 4-10 jobs. No simulation today;
  generation, the IR check and emission show here.
"""

from __future__ import annotations

import dataclasses
import random

WORKLOADS = ("verify_wide", "verify_many", "gen_batch")

METHODS = ("sbm", "karatsuba2", "toom3", "toom4", "wrapper")
GF2_METHODS = ("sbm", "karatsuba2", "wrapper")

WIDE_VECTORS = 32

MATRIX_M = (8, 16, 24, 32, 48, 64, 128, 163, 192)
MANY_VECTORS = 16

# gen_batch draws one job per (method, width band) cell, GEN_JOBS_PER_CELL
# times, so every pass holds the same mix of sizes and only the exact widths
# and flags vary with the seed.
WIDTH_BANDS = ((8, 63), (64, 255), (256, 511), (512, 1024))
GEN_JOBS_PER_CELL = 3
MAX_DIGITS = 32
# gen_batch writes, reads back and deletes ~15 files per invocation, so its
# slowdown adds the file probe at this weight (see probe.py). Chosen once,
# from a 2-minute gen_batch run, as the weight that best cancelled the
# host's drift; frozen since, like the nominal probe times.
GEN_FILES_WEIGHT = 0.5


@dataclasses.dataclass(frozen=True)
class Design:
    method: str
    m: int
    digit: int | None = None
    mode: str = "integer"

    def flags(self) -> list:
        argv = ["--method", self.method, "--m", str(self.m)]
        if self.digit is not None:
            argv += ["--digit", str(self.digit)]
        return argv + ["--mode", self.mode]


WIDE_DESIGNS = (
    Design("sbm", 1024),
    Design("karatsuba2", 1024),
    Design("toom3", 1024),
    Design("toom4", 1024),
    Design("karatsuba2", 1024, mode="gf2"),
    Design("wrapper", 1024, 64),
    Design("wrapper", 521, 32),
    Design("wrapper", 571, 32, "gf2"),
)


@dataclasses.dataclass(frozen=True)
class Job:
    design: Design
    tb_vectors: int | None  # None: no testbench
    synth: tuple | None  # (tool, clock_ns) or None

    def xml(self) -> str:
        d = self.design
        attrs = [f'method="{d.method}"', f'width="{d.m}"']
        if d.digit is not None:
            attrs.append(f'digit="{d.digit}"')
        if d.mode != "integer":
            attrs.append(f'mode="{d.mode}"')
        if self.tb_vectors is not None:
            attrs.append(f'tb="true" tb-vectors="{self.tb_vectors}"')
        head = f"  <job {' '.join(attrs)}"
        if self.synth is None:
            return head + "/>"
        tool, clock_ns = self.synth
        return f'{head}>\n    <synth tool="{tool}" clock-ns="{clock_ns}"/>\n  </job>'


@dataclasses.dataclass(frozen=True)
class VerifyOp:
    design: Design
    vectors: int
    seed: int

    def argv(self) -> list:
        return ["verify", *self.design.flags(),
                "--vectors", str(self.vectors), "--seed", str(self.seed)]


@dataclasses.dataclass(frozen=True)
class GenOp:
    jobs: tuple

    def config(self) -> str:
        body = "\n".join(job.xml() for job in self.jobs)
        return f'<config version="1">\n{body}\n</config>\n'


def matrix_designs() -> list:
    """The acceptance matrix plus gf2 sbm/karatsuba2: 85 designs."""
    out = []
    for m in MATRIX_M:
        for method in ("sbm", "karatsuba2", "toom3", "toom4"):
            out.append(Design(method, m))
        for n in sorted({n for n in (2, 8, 32, m) if n <= m}):
            out.append(Design("wrapper", m, n))
        out.append(Design("sbm", m, mode="gf2"))
        out.append(Design("karatsuba2", m, mode="gf2"))
    return out


def _rng(workload: str, seed: int, k: int) -> random.Random:
    return random.Random(f"{workload}/{seed}/{k}")


def _draw_job(rng: random.Random, method: str, band: tuple) -> Job:
    m = rng.randint(*band)
    digit = None
    if method == "wrapper":
        digit = rng.randint(max(2, -(-m // MAX_DIGITS)), min(m, 64))
    mode = "gf2" if method in GF2_METHODS and rng.random() < 0.3 else "integer"
    tb_vectors = rng.randint(4, 20) if rng.random() < 0.5 else None
    synth = None
    if rng.random() < 0.5:
        synth = (rng.choice(("genus", "dc")), rng.choice((1.0, 1.5, 2.0, 2.5)))
    return Job(Design(method, m, digit, mode), tb_vectors, synth)


def _gen_pass(rng: random.Random, jobs_per_cell: int) -> list:
    jobs = []
    seen = set()
    for _ in range(jobs_per_cell):
        for method in METHODS:
            for band in WIDTH_BANDS:
                job = _draw_job(rng, method, band)
                while job.design in seen:  # the CLI rejects duplicate identities
                    job = _draw_job(rng, method, band)
                seen.add(job.design)
                jobs.append(job)
    rng.shuffle(jobs)
    ops = []
    while len(jobs) > 10:
        k = rng.randint(4, min(10, len(jobs) - 4))
        ops.append(GenOp(tuple(jobs[:k])))
        jobs = jobs[k:]
    ops.append(GenOp(tuple(jobs)))
    return ops


class Workload:
    """The pass-by-pass inputs of one workload at one seed.

    `small` shrinks every pass for the benchmark's own smoke tests; the
    benchmark itself always runs at full size.
    """

    def __init__(self, name: str, seed: int, small: bool = False):
        if name not in WORKLOADS:
            raise ValueError(f"unknown workload {name!r}; expected one of {WORKLOADS}")
        self.name = name
        self.seed = seed
        self.small = small
        self.files_weight = GEN_FILES_WEIGHT if name == "gen_batch" else 0.0
        if name == "verify_wide":
            self.designs = list(WIDE_DESIGNS[4::3] if small else WIDE_DESIGNS)
            self.vectors = 2 if small else WIDE_VECTORS
        elif name == "verify_many":
            designs = matrix_designs()
            self.designs = designs[:11] if small else designs
            self.vectors = MANY_VECTORS
        else:
            self.designs = []
            self.vectors = 0

    def pass_ops(self, k: int) -> list:
        """The invocations of pass k, in order."""
        rng = _rng(self.name, self.seed, k)
        if self.name == "gen_batch":
            ops = _gen_pass(rng, 1 if self.small else GEN_JOBS_PER_CELL)
            return ops[:2] if self.small else ops
        return [VerifyOp(d, self.vectors, rng.getrandbits(31)) for d in self.designs]
