"""Plan compilation: fused pipelines, one shared filter per stream, CSE.

The only FILTER/RESTRUCTURE engine.  The compiler partitions each deployed
plan into maximal linear segments of co-located fusable operators and fuses
every segment into a single call frame per item (:class:`CompiledPipeline`,
with a batched entry point).  A FILTER -- simple or tree-pattern -- always
heads its segment and is decided, for all the segments reading one stream at
once, by that stream's :class:`FilterGroup` (the paper's preFilter -> AES ->
YFilter index); identical RESTRUCTUREs share their result across all
co-deployed subscriptions.  Every other operator kind runs as an
:class:`~repro.algebra.operators.Operator` fed by the pipeline's tail
stream; ``tests/data/interpreted_golden.json`` freezes what the former
interpreted operator chain produced and the differential tests pin this
engine to it.
"""

from .cache import CompiledPlanCache
from .compiler import FALLBACK_REASONS, FUSABLE_KINDS, CompiledStage, PlanCompiler
from .group import FilterGroup
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
    "FilterGroup",
    "MaterializedTable",
    "PlanCompiler",
    "stage_signature",
]
