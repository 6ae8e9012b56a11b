"""Adaptive location-privacy toolkit.

Obfuscates GPS mobility traces with configurable protection mechanisms and
tunes their parameters per trace or per daily batch, via simulated
annealing, to satisfy declared privacy and utility objectives.
"""

from .geo import (
    CellGrid,
    Dataset,
    GeoPoint,
    Trace,
    distance_meters,
)
from .lppm import (
    LppmConfig,
    ParameterDomain,
    apply_lppm,
    geo_i_obfuscate,
    geo_i_sample_radius,
    prepare_lppm,
    promesse_obfuscate,
)
from .metrics import (
    PoiClusteringParams,
    Pois,
    bind_evaluators,
    extract_pois,
    median_of_k,
    poi_retrieval,
    prepare_replicates,
)
from .optimizer import (
    AnnealingSchedule,
    AnnealResult,
    Objective,
    acceptance_probability,
    anneal,
    initial_state,
    neighbour,
    parse_objective,
    parse_objectives,
    restrict_by_half,
)
from .pipeline import (
    Report,
    ReportRow,
    RunConfig,
    cdf_points,
    evaluate,
    protect,
    run_offline,
    run_online,
    split_daily_batches,
)
from .rng import RandomStream
from .synth import SynthSpec, SyntheticDataset, generate_synthetic_dataset

__version__ = "0.1.0"

__all__ = [
    "AnnealResult",
    "AnnealingSchedule",
    "CellGrid",
    "Dataset",
    "GeoPoint",
    "LppmConfig",
    "Objective",
    "ParameterDomain",
    "PoiClusteringParams",
    "Pois",
    "RandomStream",
    "Report",
    "ReportRow",
    "RunConfig",
    "SynthSpec",
    "SyntheticDataset",
    "Trace",
    "acceptance_probability",
    "anneal",
    "apply_lppm",
    "bind_evaluators",
    "cdf_points",
    "distance_meters",
    "evaluate",
    "extract_pois",
    "generate_synthetic_dataset",
    "geo_i_obfuscate",
    "geo_i_sample_radius",
    "initial_state",
    "median_of_k",
    "neighbour",
    "parse_objective",
    "parse_objectives",
    "poi_retrieval",
    "prepare_lppm",
    "prepare_replicates",
    "promesse_obfuscate",
    "protect",
    "restrict_by_half",
    "run_offline",
    "run_online",
    "split_daily_batches",
]
