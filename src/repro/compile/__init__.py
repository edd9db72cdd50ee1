"""Plan compilation: fused pipeline closures with cross-plan CSE.

The only FILTER/RESTRUCTURE engine.  The compiler partitions each deployed
plan into maximal linear segments of co-located fusable operators -- simple
and tree-pattern filters alike -- fuses every segment into a single call
frame per item (:class:`CompiledPipeline`, with a batched ``apply_many``
entry point per stage) and memoises identical sub-expressions across all
co-deployed subscriptions through one system-wide
:class:`MaterializedTable`.  Every other operator kind runs as an
:class:`~repro.algebra.operators.Operator` fed by the pipeline's tail
stream; ``tests/data/interpreted_golden.json`` freezes what the former
interpreted operator chain produced and the differential tests pin this
engine to it.
"""

from .cache import CompiledPlanCache
from .compiler import FALLBACK_REASONS, FUSABLE_KINDS, CompiledStage, PlanCompiler
from .pipeline import CompiledPipeline
from .signatures import stage_signature
from .stats import CompileStats
from .table import MISS, MaterializedTable

__all__ = [
    "FALLBACK_REASONS",
    "FUSABLE_KINDS",
    "MISS",
    "CompiledPlanCache",
    "CompiledPipeline",
    "CompiledStage",
    "CompileStats",
    "MaterializedTable",
    "PlanCompiler",
    "stage_signature",
]
