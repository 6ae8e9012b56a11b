"""Adaptive location-privacy toolkit.

Obfuscates GPS mobility traces with configurable protection mechanisms and
tunes their parameters per trace or per daily batch, via simulated
annealing, to satisfy declared privacy and utility objectives.
"""

from .geo import (
    CellGrid,
    Dataset,
    GeoPoint,
    Record,
    Trace,
    distance_meters,
    from_local_plane,
    to_local_plane,
)
from .lppm import (
    GeoIndistinguishability,
    LppmConfig,
    Mechanism,
    ParameterDomain,
    Promesse,
    apply_lppm,
    default_domains,
    geo_i_obfuscate,
    geo_i_sample_radius,
    promesse_obfuscate,
)
from .metrics import (
    Poi,
    PoiClusteringParams,
    bind_evaluators,
    extract_pois,
    make_evaluator,
    median_of_k,
    poi_retrieval,
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
    Batch,
    Report,
    ReportRow,
    RunConfig,
    cdf_points,
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
    "Batch",
    "CellGrid",
    "Dataset",
    "GeoIndistinguishability",
    "GeoPoint",
    "LppmConfig",
    "Mechanism",
    "Objective",
    "ParameterDomain",
    "Poi",
    "PoiClusteringParams",
    "Promesse",
    "RandomStream",
    "Record",
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
    "default_domains",
    "distance_meters",
    "extract_pois",
    "from_local_plane",
    "generate_synthetic_dataset",
    "geo_i_obfuscate",
    "geo_i_sample_radius",
    "initial_state",
    "make_evaluator",
    "median_of_k",
    "neighbour",
    "parse_objective",
    "parse_objectives",
    "poi_retrieval",
    "promesse_obfuscate",
    "restrict_by_half",
    "run_offline",
    "run_online",
    "split_daily_batches",
    "to_local_plane",
]
