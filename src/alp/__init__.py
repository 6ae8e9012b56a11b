"""Adaptive location-privacy toolkit.

Obfuscates GPS mobility traces with configurable protection mechanisms and
tunes their parameters per trace or per daily batch, via simulated
annealing, to satisfy declared privacy and utility objectives.

Each public name is imported from its module on first access (PEP 562), so
``import alp`` loads neither numpy nor any of the package's modules; the
command-line front end relies on this to configure numpy before it loads.
"""

from importlib import import_module

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
    "evaluate",
    "extract_pois",
    "generate_synthetic_dataset",
    "initial_state",
    "median_of_k",
    "neighbour",
    "parse_objective",
    "parse_objectives",
    "poi_retrieval",
    "prepare_lppm",
    "prepare_replicates",
    "protect",
    "restrict_by_half",
    "run_offline",
    "run_online",
    "split_daily_batches",
]


# The modules that define public names, each after every module it imports
# from, so the first that holds a name is the one that defines it.
_MODULES = ("geo", "rng", "synth", "lppm", "metrics", "optimizer", "pipeline")


def __getattr__(name):
    # Python calls this only for a name missing from the module, and the
    # name is stored there once found, so each module is looked up once.
    if name in __all__:
        for module in (import_module(f"{__name__}.{m}") for m in _MODULES):
            if hasattr(module, name):
                value = globals()[name] = getattr(module, name)
                return value
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
