"""Code generation: lowering the evaluation IR to specialized Python code.

Mirrors the paper's code-generation stage: an abstract program for the
HMatrix-matrix multiplication is lowered through *block lowering* (the
reduction loops iterate over the blockset) and *coarsen lowering* (the
CTree loops iterate over the coarsenset), gated by the block/coarsen
thresholds, then low-level transforms (root-iteration peeling) are applied.
The result is a set of tables specialized for one HMatrix structure, run by
plain loop functions (``repro.codegen.emit``).
"""

from repro.codegen.ir import EvaluationIR, build_ir
from repro.codegen.lowering import (
    LoweringDecision,
    batch_occupancy,
    decide_lowering,
    lower_batched,
)
from repro.codegen.emit import (
    GeneratedEvaluator,
    generate_batched_evaluator,
    generate_evaluator,
)

__all__ = [
    "EvaluationIR",
    "build_ir",
    "LoweringDecision",
    "decide_lowering",
    "lower_batched",
    "batch_occupancy",
    "GeneratedEvaluator",
    "generate_evaluator",
    "generate_batched_evaluator",
]
