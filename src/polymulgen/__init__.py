"""polymulgen: serial polynomial multiplier generator and analysis workbench.

Generates parameterized structural Verilog for schoolbook, 2-way Karatsuba,
3-way and 4-way Toom-Cook multipliers plus a digit-serial wrapper, together
with synthesis scripts, self-checking testbenches, cycle-accurate models,
and latency / figure-of-merit reports.
"""

from .analysis import (
    ReportRow,
    SweepReport,
    billed_cycles,
    emit_csv,
    fom_area,
    fom_power,
    latency_us,
    read_rows,
    sweep_report,
)
from .errors import (
    BadDigit,
    BadFrequency,
    BadInput,
    BadParams,
    InexactDivision,
    InternalInterpolationError,
    SchemaViolation,
    ToomRequiresInteger,
    UncheckedIR,
    XmlSyntax,
)
from .generators import (
    GenParams,
    design_library,
    gen_digit_serial,
    gen_karatsuba2,
    gen_sbm,
    gen_toom3,
    gen_toom4,
    generate,
    top_name,
)
from .interp import Simulator, compile_sim
from .ir import RtlModule, check, expr_width
from .models import (
    ArchKind,
    RunTrace,
    cycle_contract,
    run_digit_serial,
    run_karatsuba2,
    run_model,
    run_sbm,
    run_toom3,
    run_toom4,
)
from .numeric import ArithMode, oracle_mul
from .synth import SynthParams, emit_synth_script, parse_report, script_name
from .verilog import (
    TestbenchArtifact,
    VerilogArtifact,
    emit_testbench,
    emit_verilog,
    parse_skeleton,
    skeleton_of,
)

__version__ = "0.1.0"

# The command-line module loads on first use, so `python -m polymulgen.cli`
# does not find it imported already (runpy warns when it does).
_CLI_NAMES = ("BatchResult", "JobResult", "JobSpec", "main", "parse_config", "run_batch",
              "serialize_config")


def __getattr__(name: str):
    if name in _CLI_NAMES:
        from . import cli
        return getattr(cli, name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


__all__ = [
    "ArchKind",
    "ArithMode",
    "BadDigit",
    "BadFrequency",
    "BadInput",
    "BadParams",
    "BatchResult",
    "GenParams",
    "InexactDivision",
    "InternalInterpolationError",
    "JobResult",
    "JobSpec",
    "ReportRow",
    "RtlModule",
    "RunTrace",
    "SchemaViolation",
    "Simulator",
    "SweepReport",
    "SynthParams",
    "TestbenchArtifact",
    "ToomRequiresInteger",
    "UncheckedIR",
    "VerilogArtifact",
    "XmlSyntax",
    "billed_cycles",
    "check",
    "compile_sim",
    "cycle_contract",
    "design_library",
    "emit_csv",
    "emit_synth_script",
    "emit_testbench",
    "emit_verilog",
    "expr_width",
    "fom_area",
    "fom_power",
    "gen_digit_serial",
    "gen_karatsuba2",
    "gen_sbm",
    "gen_toom3",
    "gen_toom4",
    "generate",
    "latency_us",
    "main",
    "oracle_mul",
    "parse_config",
    "parse_report",
    "parse_skeleton",
    "read_rows",
    "run_batch",
    "run_digit_serial",
    "run_karatsuba2",
    "run_model",
    "run_sbm",
    "run_toom3",
    "run_toom4",
    "script_name",
    "serialize_config",
    "skeleton_of",
    "sweep_report",
    "top_name",
]
