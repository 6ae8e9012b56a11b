"""Command-line front end.

Commands:

* ``synth``    - generate a synthetic dataset with planted POIs
* ``evaluate`` - print the metric table for a static configuration
* ``protect``  - write protected traces for a static configuration
* ``optimize`` - offline scenario: tune one configuration per user
* ``online``   - online scenario: tune per daily batch (or run a static
                 baseline when ``--param`` is given)

Flags can also come from a flat ``key = value`` config file (``--config``);
explicit flags win. ``--seed`` falls back to the ``ALP_SEED`` environment
variable, then to 42. Exit codes: 0 success, 1 runtime error, 2 usage error.
"""

from __future__ import annotations

import argparse
import math
import os
import re
import sys
from dataclasses import dataclass
from pathlib import Path

# alp calls no BLAS routine, and an idle OpenBLAS pool spins at start-up, so
# ask for one thread; the pool reads this once, when numpy (or scipy) loads,
# which is why it comes before the imports below. A caller's value wins.
os.environ.setdefault("OPENBLAS_NUM_THREADS", "1")

from .errors import AlpError
from .io import load_dataset, write_dataset_csv, write_json, write_rows_csv
from .lppm import MECHANISMS
from .metrics import PoiClusteringParams
from .optimizer import AnnealingSchedule, parse_objectives
from .pipeline import Report, RunConfig, evaluate, protect, run_offline, run_online
from .synth import SynthSpec, generate_synthetic_dataset


class UsageError(Exception):
    """Bad flag combination detected after parsing; exits with code 2."""


@dataclass
class CliInvocation:
    command: str
    flags: dict


def _parse_param_items(items) -> dict:
    assignment = {}
    parts = (part.strip() for item in items for part in str(item).split(","))
    for part in filter(None, parts):
        if "=" not in part:
            raise ValueError(f"bad --param {part!r}: want name=value")
        name, value = (s.strip() for s in part.split("=", 1))
        if name in assignment:
            raise ValueError(f"--param {name!r} given twice")
        try:
            assignment[name] = float(value)
        except ValueError:
            raise ValueError(f"bad --param {part!r}: {value!r} is not a number") from None
    return assignment


def _finite_float(text: str) -> float:
    """argparse type for real-valued flags: inf and nan are usage errors."""
    try:
        value = float(text)
        if math.isfinite(value):
            return value
    except ValueError:
        pass
    raise argparse.ArgumentTypeError(f"not a finite number: {text!r}")


def _add_common(p: argparse.ArgumentParser, *, needs_input: bool):
    p.add_argument("--config", metavar="FILE", help="flat key=value config file; flags win")
    p.add_argument("--seed", type=int, help="random seed (default: ALP_SEED or 42)")
    if needs_input:
        p.add_argument("--input", metavar="CSV", help="input dataset (user,timestamp,lat,lon)")
        p.add_argument("--lppm", help=f"mechanism name ({'|'.join(sorted(MECHANISMS))})")


def _add_metric_flags(p: argparse.ArgumentParser):
    p.add_argument("--cell-size", type=_finite_float, help="area-coverage cell edge in meters (default 250)")
    p.add_argument("--poi-diameter", type=_finite_float, help="max POI cluster diameter in meters (default 200)")
    p.add_argument("--poi-stay-minutes", type=_finite_float, help="min POI stay time in minutes (default 15)")
    p.add_argument("--match-threshold", type=_finite_float, help="POI match threshold in meters (default 100)")
    p.add_argument("--robust-k", type=int, help="median of k replicates per state; the first is published (default 1)")


def _add_optimizer_flags(p: argparse.ArgumentParser):
    p.add_argument("--objectives", help="comma list of min|max:<evaluator>[:scale=<v>]")
    p.add_argument("--t0", type=_finite_float, help="initial temperature (default 1)")
    p.add_argument("--t-min", type=_finite_float, help="final temperature (default 1e-5)")
    p.add_argument("--cooling", type=_finite_float, help="cooling rate in (0,1) (default 0.9)")
    # default=None so an unset flag can still be supplied by the config file
    p.add_argument("--final-state", action="store_true", default=None,
                   help="protect with the final annealing state instead of the best-seen one")
    p.add_argument("--workers", type=int, help="ignored: units run one at a time")
    p.add_argument("--out-dir", help="directory for report files (default .)")
    p.add_argument("--name", help="base name for report files (default <command>_<lppm>)")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="alp",
        description="Obfuscate mobility traces and tune protection mechanisms against privacy/utility objectives.",
    )
    sub = parser.add_subparsers(dest="command", metavar="command")
    sub.required = True

    p = sub.add_parser("synth", help="generate a synthetic dataset with planted POIs")
    _add_common(p, needs_input=False)
    p.add_argument("--users", type=int, help="number of users (default 1)")
    p.add_argument("--days", type=int, help="number of days (default 1)")
    p.add_argument("--pois", type=int, help="POIs per user (default 2)")
    p.add_argument("--dwell-minutes", type=_finite_float, help="minimum dwell duration (default 30)")
    p.add_argument("--speed", type=_finite_float, help="transit speed in m/s (default 10)")
    p.add_argument("--sample-period", type=_finite_float, help="sampling period in seconds (default 30)")
    p.add_argument("--trip", action="store_true", default=None,
                   help="end each day after the itinerary instead of dwelling until midnight")
    p.add_argument("--out", help="output CSV path (default synthetic.csv)")
    p.add_argument("--truth-out", help="optional JSON path for planted POI locations")

    p = sub.add_parser("evaluate", help="print metrics for a static configuration")
    _add_common(p, needs_input=True)
    p.add_argument("--param", action="append", default=None, metavar="NAME=VALUE",
                   help="parameter assignment; repeatable")
    _add_metric_flags(p)

    p = sub.add_parser("protect", help="write protected traces for a static configuration")
    _add_common(p, needs_input=True)
    p.add_argument("--param", action="append", default=None, metavar="NAME=VALUE")
    p.add_argument("--out", help="output CSV path (default <input-stem>_protected.csv)")

    p = sub.add_parser("optimize", help="offline scenario: tune one configuration per user")
    _add_common(p, needs_input=True)
    _add_metric_flags(p)
    _add_optimizer_flags(p)

    p = sub.add_parser("online", help="online scenario: tune per daily batch")
    _add_common(p, needs_input=True)
    p.add_argument("--param", action="append", default=None, metavar="NAME=VALUE",
                   help="fix the assignment instead of tuning (static baseline)")
    _add_metric_flags(p)
    _add_optimizer_flags(p)

    return parser


_TRUE = ("1", "true", "yes", "on")
_FALSE = ("0", "false", "no", "off")


def _config_actions(parser: argparse.ArgumentParser) -> dict:
    """Config-file key -> the flag's action, over the flags of every command."""
    (sub,) = (a for a in parser._actions if isinstance(a, argparse._SubParsersAction))
    return {a.dest: a for command in sub.choices.values() for a in command._actions
            if a.dest not in ("help", "config")}


def _config_value(action: argparse.Action, raw: str):
    if action.nargs == 0:  # a switch such as --trip
        if raw.lower() not in _TRUE + _FALSE:
            raise ValueError(raw)
        return raw.lower() in _TRUE
    return action.type(raw) if action.type else raw


def _read_config_file(path: str, actions: dict) -> dict:
    values: dict = {}
    for line_no, line in enumerate(Path(path).read_text(encoding="utf-8-sig").splitlines(), 1):
        line = re.sub(r"(^|\s)#.*", "", line).strip()  # a '#' inside a value is kept
        if not line:
            continue
        if "=" not in line:
            raise AlpError(f"{path}:{line_no}: expected key = value")
        key, value = line.split("=", 1)
        key, value = key.strip().replace("-", "_"), value.strip()
        if key not in actions:
            raise AlpError(f"{path}:{line_no}: unknown key {key!r}")
        append = isinstance(actions[key], argparse._AppendAction)
        if key in values and not append:
            raise AlpError(f"{path}:{line_no}: duplicate key {key!r}")
        try:
            parsed = _config_value(actions[key], value)
        except (ValueError, argparse.ArgumentTypeError):
            raise AlpError(f"{path}:{line_no}: bad value {value!r} for {key}") from None
        if append:  # repeated lines accumulate, like repeated flags
            values.setdefault(key, []).append(parsed)
        else:
            values[key] = parsed
    return values


def parse_args(argv) -> CliInvocation:
    parser = build_parser()
    namespace = parser.parse_args(argv)
    flags = {k: v for k, v in vars(namespace).items() if k != "command" and v is not None}

    config_file = flags.pop("config", None)
    if config_file:
        try:
            file_values = _read_config_file(config_file, _config_actions(parser))
        except (OSError, AlpError) as exc:
            parser.error(str(exc))
        except UnicodeDecodeError as exc:
            parser.error(f"{config_file}: {exc}")
        for key, value in file_values.items():
            flags.setdefault(key, value)  # explicit flags win

    if "seed" not in flags:
        env_seed = os.environ.get("ALP_SEED")
        try:
            flags["seed"] = int(env_seed) if env_seed else 42
        except ValueError:
            parser.error(f"ALP_SEED: bad value {env_seed!r}")

    return CliInvocation(namespace.command, flags)


def _require(inv: CliInvocation, *keys):
    missing = [k for k in keys if not inv.flags.get(k)]
    if missing:
        raise UsageError(f"{inv.command}: missing required flag(s): " +
                         ", ".join("--" + k.replace("_", "-") for k in missing))


def _given(flags: dict, **fields) -> dict:
    """Keyword arguments ``field=flags[flag]`` for the flags the user set, so
    every unset field keeps its dataclass default."""
    return {field: flags[flag] for field, flag in fields.items() if flag in flags}


def _run_config(inv: CliInvocation) -> RunConfig:
    """The checked settings of a command that reads an input, before it is read.
    ``--param`` is the static assignment of all but ``optimize``, which ignores
    the ``param`` lines of a shared config file."""
    flags = inv.flags
    given = _given(flags, cell_size_m="cell_size", robust_k="robust_k")
    if "objectives" in flags:
        given["objectives"] = parse_objectives(flags["objectives"])
    if inv.command != "optimize" and flags.get("param"):
        given["static_assignment"] = _parse_param_items(flags["param"])
    poi = _given(flags, max_diameter_m="poi_diameter", match_threshold_m="match_threshold")
    if "poi_stay_minutes" in flags:
        poi["min_stay_ms"] = round(flags["poi_stay_minutes"] * 60_000)
    return RunConfig(
        flags["lppm"],
        schedule=AnnealingSchedule(**_given(flags, t0="t0", t_min="t_min", delta_t="cooling")),
        poi_params=PoiClusteringParams(**poi),
        seed=flags["seed"],
        use_best=not flags.get("final_state", False),
        **given,
    )


def _write_report(report: Report, inv: CliInvocation, default_name: str):
    out_dir = Path(inv.flags.get("out_dir", "."))
    name = inv.flags.get("name", default_name)
    rows_path = write_rows_csv(report.rows, out_dir / f"{name}.csv")
    write_json(report.summary_payload(rows_file=f"{name}.csv"), out_dir / f"{name}.json")
    write_dataset_csv(report.protected, out_dir / f"{name}_protected.csv")
    print(f"wrote {rows_path}, {name}.json, {name}_protected.csv in {out_dir}")


def _cmd_synth(inv: CliInvocation) -> int:
    flags = inv.flags
    spec = SynthSpec(
        **_given(flags, users="users", days="days", pois_per_user="pois",
                 dwell_minutes="dwell_minutes", speed_mps="speed",
                 sample_period_s="sample_period"),
        seed=flags["seed"],
        pad_to_day_end=not flags.get("trip", False),
    )
    synthetic = generate_synthetic_dataset(spec)
    out = Path(flags.get("out", "synthetic.csv"))
    write_dataset_csv(synthetic.dataset, out)
    if flags.get("truth_out"):
        payload = {
            user: [[p.lat, p.lon] for p in points]
            for user, points in synthetic.true_pois.items()
        }
        write_json(payload, flags["truth_out"])
    print(f"wrote {synthetic.dataset.total_records()} records for "
          f"{len(synthetic.dataset)} user(s) to {out}")
    return 0


def _cmd_evaluate(inv: CliInvocation) -> int:
    _require(inv, "input")
    _require(inv, "lppm", "param")
    config = _run_config(inv)
    lines = [f"{'user':<12} {'pois':>8} {'distortion_m':>14} {'coverage':>10}"]
    lines += [f"{user:<12} {values['pois']:>8.4f} {values['distortion']:>14.2f} "
              f"{values['coverage']:>10.4f}"
              for user, values in evaluate(load_dataset(inv.flags["input"]), config)]
    print("\n".join(lines))
    return 0


def _cmd_protect(inv: CliInvocation) -> int:
    _require(inv, "input")
    _require(inv, "lppm", "param")
    config = _run_config(inv)
    protected = protect(load_dataset(inv.flags["input"]), config)
    source = Path(inv.flags["input"])
    out = inv.flags.get("out") or source.with_name(f"{source.stem}_protected.csv")
    write_dataset_csv(protected, out)
    print(f"wrote {protected.total_records()} protected records to {out}")
    return 0


def _cmd_tune(inv: CliInvocation) -> int:
    _require(inv, "input", "lppm")
    config = _run_config(inv)
    dataset = load_dataset(inv.flags["input"])
    run_fn = run_offline if inv.command == "optimize" else run_online
    _write_report(run_fn(dataset, config), inv, f"{inv.command}_{config.lppm_name}")
    return 0


_HANDLERS = {
    "synth": _cmd_synth,
    "evaluate": _cmd_evaluate,
    "protect": _cmd_protect,
    "optimize": _cmd_tune,
    "online": _cmd_tune,
}


def run(invocation: CliInvocation) -> int:
    """Execute a parsed invocation; returns the process exit code."""
    try:
        return _HANDLERS[invocation.command](invocation)
    except UsageError as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return 2
    except (AlpError, ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


def main(argv=None) -> int:
    invocation = parse_args(argv if argv is not None else sys.argv[1:])
    return run(invocation)


if __name__ == "__main__":
    sys.exit(main())
