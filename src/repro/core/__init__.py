"""ScalaPart core: configuration, results, registry, stages, drivers."""

from .complexity import ComplexityModel
from .config import ScalaPartConfig
from .cost import (
    ArrayCost,
    CostModel,
    DegreeCost,
    UnitCost,
    cost_model_names,
    get_cost_model,
    resolve_costs,
)
from .kway import (
    hierarchical_kway,
    kway_geometric,
    parse_hierarchy,
    partition_kway,
)
from .methods import METHOD_REGISTRY, MethodSpec, get_method, register_method
from .parallel import (
    dist_scalapart,
    run_parallel,
)
from .recursive import recursive_bisection
from ..graph.partition import KWayPartition
from ..results import PartitionResult
from .scalapart import scalapart, sp_pg7_nl
from .stages import (
    EMBED_STAGE,
    GEOMETRIC_STAGE,
    KWAY_GEOMETRIC_STAGE,
    KWAY_REFINE_STAGE,
    STRIP_REFINE_STAGE,
    EmbeddingArtifact,
    GeometricArtifact,
    KWayArtifact,
    RefineArtifact,
    StageArtifact,
)

__all__ = [
    "ComplexityModel",
    "ScalaPartConfig",
    "PartitionResult",
    "KWayPartition",
    "recursive_bisection",
    "partition_kway",
    "hierarchical_kway",
    "kway_geometric",
    "parse_hierarchy",
    "CostModel",
    "UnitCost",
    "DegreeCost",
    "ArrayCost",
    "cost_model_names",
    "get_cost_model",
    "resolve_costs",
    "scalapart",
    "sp_pg7_nl",
    "dist_scalapart",
    "run_parallel",
    "METHOD_REGISTRY",
    "MethodSpec",
    "get_method",
    "register_method",
    "StageArtifact",
    "EmbeddingArtifact",
    "GeometricArtifact",
    "KWayArtifact",
    "RefineArtifact",
    "EMBED_STAGE",
    "GEOMETRIC_STAGE",
    "KWAY_GEOMETRIC_STAGE",
    "KWAY_REFINE_STAGE",
    "STRIP_REFINE_STAGE",
]
