"""binprov: recover build provenance from stripped crash-report binaries.

Two questions, answered in order: which compiler, version, and optimization
level produced the binary (similarity-guided rebuild search), and which
program configuration was active (binary diffing, feature matching, and
constraint solving over preprocessor conditions).
"""

__version__ = "0.1.0"

from .binmodel import (
    BinaryProgram,
    BasicBlock,
    Function,
    KeyInstruction,
    ingest_disassembly_export,
    ingest_model,
    serialize_model,
    strip_program,
)
from .buildoracle import (
    BuildSpec,
    ConfigAssignment,
    ExternalToolchain,
    SimulatedToolchain,
    all_option_specs,
)
from .conditions import parse_expression
from .optinfer import InferenceTrace, infer_options
from .pipeline import (
    CaseReport,
    Verification,
    check_matrix_orderings,
    run_case,
    similarity_matrix,
)
from .simdiff import DiffReport, compare_programs, diff_programs
from .solver import Model, Unsatisfiable, solve
from .varsource import ConfigMap, SourceTree, scan_tree

__all__ = [
    "BinaryProgram",
    "BasicBlock",
    "BuildSpec",
    "CaseReport",
    "ConfigAssignment",
    "ConfigMap",
    "DiffReport",
    "ExternalToolchain",
    "Function",
    "InferenceTrace",
    "KeyInstruction",
    "Model",
    "SimulatedToolchain",
    "SourceTree",
    "Unsatisfiable",
    "Verification",
    "__version__",
    "all_option_specs",
    "check_matrix_orderings",
    "compare_programs",
    "diff_programs",
    "infer_options",
    "ingest_disassembly_export",
    "ingest_model",
    "parse_expression",
    "run_case",
    "scan_tree",
    "serialize_model",
    "similarity_matrix",
    "solve",
    "strip_program",
]
