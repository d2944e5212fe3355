"""Scenario files, experiment orchestration, and tabular output.

Scenario files are flat `key: value` text (see `SCENARIO_KEYS` and the
README); every model constant is a key with the reference defaults. The
`ablate` command sweeps one factor with paired trials (condition none and
proposed share a seed, hence an identical pedestrian stream), `matrix` runs
the full environment-by-density grid, and `simulate` runs a single trial.
"""

from __future__ import annotations

import argparse
import contextlib
import dataclasses
import os
import sys
from dataclasses import dataclass, replace
from pathlib import Path

from .simulation import ScenarioConfig, ScenarioError, TrialMetrics, reduction_ratio, run_trial

SWEEP_AXES = (
    "coefficient_c",
    "coefficient_d",
    "interpersonal_distance",
    "tracking_distance",
    "density",
    "environment",
)

# Axes that only the planner reads: a `none` trial builds no planner, so every
# point of a sweep over one of them shares the base scenario's `none` trial.
_PLANNER_AXES = ("coefficient_c", "coefficient_d", "tracking_distance")

MAX_REPLICATES = 1_000

_SCHEMA = {f.name: f for f in dataclasses.fields(ScenarioConfig)}
SCENARIO_KEYS = tuple(_SCHEMA)

_BOOL_WORDS = {"true": True, "yes": True, "1": True, "false": False, "no": False, "0": False}


def _coerce(key: str, raw: str):
    kind = _SCHEMA[key].metadata["type"]
    raw = raw.strip()
    try:
        return _BOOL_WORDS[raw.lower()] if kind is bool else kind(raw)
    except (KeyError, ValueError) as exc:
        raise ScenarioError(f"{key}: cannot parse {raw!r} as {kind.__name__}") from exc


def parse_scenario(text: str) -> ScenarioConfig:
    """Parse scenario text into a fully-defaulted, validated config."""
    values = {}
    for lineno, line in enumerate(text.splitlines(), start=1):
        body = line.split("#", 1)[0].strip()
        if not body:
            continue
        if ":" not in body:
            raise ScenarioError(f"line {lineno}: expected 'key: value', got {body!r}")
        key, raw = body.split(":", 1)
        key = key.strip()
        if key not in _SCHEMA:
            raise ScenarioError(f"line {lineno}: unknown key {key!r}")
        if key in values:
            raise ScenarioError(f"line {lineno}: duplicate key {key!r}")
        values[key] = _coerce(key, raw)
    return ScenarioConfig(**values)


def _replicate_seeds(replicates: int, seeds: list[int] | None) -> list[int]:
    """One distinct seed a replicate: the first `replicates` of `seeds`, or 1..replicates."""
    if not 1 <= replicates <= MAX_REPLICATES:
        raise ScenarioError(f"replicates: must be in 1..{MAX_REPLICATES}, got {replicates}")
    if seeds is None:
        return list(range(1, replicates + 1))
    if len(seeds) < replicates:
        raise ScenarioError("seeds: need at least one seed per replicate")
    used = seeds[:replicates]
    if len(set(used)) < replicates:
        raise ScenarioError(f"seeds: a seed repeats among {used}")
    return used


def _distinct(name: str, values: list) -> None:
    """Reject an empty sweep, which would run nothing, and a repeated value,
    whose trials would run once and be pooled twice."""
    if not values:
        raise ScenarioError(f"{name}: expected at least one value")
    try:
        distinct = set(values)
    except TypeError as exc:  # a list or another unhashable value in place of a setting
        raise ScenarioError(f"{name}: expected single values, got {values!r}") from exc
    if len(distinct) < len(values):
        raise ScenarioError(f"{name}: a value repeats among {values}")


@dataclass
class ResultRow:
    """One (sweep point, replicate) with both conditions side by side."""

    environment: str
    density: float
    axis: str
    value: str
    replicate: int
    seed: int
    social_none: int | None = None
    social_proposed: int | None = None
    physicality_none: int | None = None
    physicality_proposed: int | None = None
    social_reduction: float | None = None
    physicality_reduction: float | None = None
    stable_pct: float | None = None
    mean_ingroup: float | None = None


CSV_COLUMNS = tuple(f.name for f in dataclasses.fields(ResultRow))


def _run_many(configs: list[ScenarioConfig], jobs: int) -> dict[ScenarioConfig, TrialMetrics]:
    """Run each distinct config once, in up to `jobs` worker processes, no
    more than the usable CPUs or the distinct configs."""
    if jobs < 1:
        raise ScenarioError(f"jobs: must be >= 1, got {jobs}")
    todo = list(dict.fromkeys(configs))
    usable_cpus = len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count() or 1
    workers = min(jobs, usable_cpus, len(todo))
    if workers > 1:
        import concurrent.futures  # here, so that a single-process run never loads it

        with concurrent.futures.ProcessPoolExecutor(max_workers=workers) as pool:
            return dict(zip(todo, pool.map(run_trial, todo)))
    return {cfg: run_trial(cfg) for cfg in todo}


def _paired(cfg: ScenarioConfig, none_base: ScenarioConfig | None = None) -> tuple[ScenarioConfig, ScenarioConfig]:
    """cfg's none and proposed trials; the none trial is `none_base` at cfg's seed when given."""
    none = cfg if none_base is None else replace(none_base, seed=cfg.seed)
    return replace(none, condition="none"), replace(cfg, condition="proposed")


def _trial_row(axis: str, value, replicate: int, cfg: ScenarioConfig, metrics: TrialMetrics) -> ResultRow:
    """One trial's row, its conflict counts in the columns of its condition."""
    return ResultRow(
        environment=cfg.environment,
        density=cfg.density,
        axis=axis,
        value=str(value),
        replicate=replicate,
        seed=cfg.seed,
        stable_pct=metrics.stable_percentage,
        mean_ingroup=metrics.mean_ingroup,
        **{
            f"social_{cfg.condition}": metrics.social_conflicts,
            f"physicality_{cfg.condition}": metrics.physicality_conflicts,
        },
    )


def _paired_row(
    axis: str,
    value,
    replicate: int,
    pair: tuple[ScenarioConfig, ScenarioConfig],
    metrics: dict[ScenarioConfig, TrialMetrics],
) -> ResultRow:
    """The proposed trial's row plus the paired none trial's counts and the reductions."""
    none_cfg, prop_cfg = pair
    none, prop = metrics[none_cfg], metrics[prop_cfg]
    return replace(
        _trial_row(axis, value, replicate, prop_cfg, prop),
        social_none=none.social_conflicts,
        physicality_none=none.physicality_conflicts,
        social_reduction=reduction_ratio(none.social_conflicts, prop.social_conflicts),
        physicality_reduction=reduction_ratio(none.physicality_conflicts, prop.physicality_conflicts),
    )


def _run_pairs(points: list[tuple], jobs: int) -> list[ResultRow]:
    """One paired row a point `(axis, value, replicate, (none, proposed))`; each distinct trial runs once."""
    metrics = _run_many([cfg for *_, pair in points for cfg in pair], jobs)
    return [_paired_row(*point, metrics) for point in points]


def run_ablation(
    base: ScenarioConfig,
    axis: str,
    values: list,
    replicates: int = 5,
    seeds: list[int] | None = None,
    jobs: int = 1,
) -> list[ResultRow]:
    """Sweep one factor; each point runs paired none/proposed trials per seed.

    On a planner-only axis every point pairs with the base scenario's `none`
    trial of its seed, which runs once.
    """
    return _run_pairs(_ablation_points(base, axis, values, replicates, seeds), jobs)


def _ablation_points(
    base: ScenarioConfig,
    axis: str,
    values: list,
    replicates: int,
    seeds: list[int] | None,
) -> list[tuple]:
    """`run_ablation`'s checked arguments as `_run_pairs` points."""
    if axis not in SWEEP_AXES:
        raise ScenarioError(f"axis: must be one of {SWEEP_AXES}, got {axis!r}")
    kind = _SCHEMA[axis].metadata["type"]
    try:
        swept = [kind(value) for value in values]
    except (TypeError, ValueError) as exc:
        raise ScenarioError(f"values: cannot parse {values!r} as {kind.__name__}") from exc
    _distinct("values", swept)
    seeds = _replicate_seeds(replicates, seeds)
    none_base = base if axis in _PLANNER_AXES else None
    return [
        (axis, value, replicate, _paired(replace(base, seed=seed, **{axis: setting}), none_base))
        for value, setting in zip(values, swept)
        for replicate, seed in enumerate(seeds)
    ]


def run_matrix(
    base: ScenarioConfig,
    environments: list[str],
    densities: list[float],
    replicates: int = 5,
    seeds: list[int] | None = None,
    jobs: int = 1,
) -> list[ResultRow]:
    """Full environment-by-density grid with paired conditions per seed."""
    _distinct("environments", environments)
    _distinct("densities", densities)
    seeds = _replicate_seeds(replicates, seeds)
    points = [
        ("", "", replicate, _paired(replace(base, environment=env_name, density=density, seed=seed)))
        for env_name in environments
        for density in densities
        for replicate, seed in enumerate(seeds)
    ]
    return _run_pairs(points, jobs)


def _fmt(value) -> str:
    if value is None:
        return ""
    if isinstance(value, float):
        return f"{value:.6g}"
    return str(value)


def emit_csv(rows: list[ResultRow], path: str | Path) -> None:
    """Write rows with a stable column order and stable float formatting."""
    path = Path(path)
    lines = [",".join(CSV_COLUMNS)]
    ordered = sorted(rows, key=lambda r: (r.environment, r.density, r.axis, r.value, r.replicate, r.seed))
    for row in ordered:
        lines.append(",".join(_fmt(getattr(row, col)) for col in CSV_COLUMNS))
    try:
        path.write_text("\n".join(lines) + "\n")
    except OSError as exc:
        raise OSError(f"cannot write CSV to {path}: {exc}") from exc


def format_reduction_cell(dc_none: int, dc_avoid: int) -> str:
    """Percentage-and-fraction cell, e.g. '80% (104/522)'."""
    ratio = reduction_ratio(dc_none, dc_avoid)
    if ratio is None:
        return f"n/a ({dc_avoid}/0)"
    return f"{round(100 * ratio)}% ({dc_avoid}/{dc_none})"


def emit_summary(rows: list[ResultRow]) -> str:
    """Aggregate replicates per sweep point and format a text table.

    Counts are pooled across replicates; stable time and in-group comfort are
    averaged. A density or environment sweep names its value in the label
    once, as the point's density or environment.
    """
    groups: dict[tuple, list[ResultRow]] = {}
    for row in rows:
        groups.setdefault((row.environment, row.density, row.axis, row.value), []).append(row)
    lines = []
    for (env_name, density, axis, value), members in sorted(groups.items(), key=lambda kv: kv[0]):
        label = f"{env_name} density={_fmt(density)}"
        if axis not in ("", "density", "environment"):
            label += f" {axis}={value}"
        sn = sum(m.social_none for m in members)
        sp = sum(m.social_proposed for m in members)
        pn = sum(m.physicality_none for m in members)
        pp = sum(m.physicality_proposed for m in members)
        stable = sum(m.stable_pct for m in members)
        ingroups = [m.mean_ingroup for m in members if m.mean_ingroup is not None]
        ingroup_txt = f"{sum(ingroups) / len(ingroups):.3f}" if ingroups else "-"
        lines.append(
            f"{label}: social {format_reduction_cell(sn, sp)} | "
            f"physicality {format_reduction_cell(pn, pp)} | "
            f"stable {100 * stable / len(members):.1f}% | ingroup {ingroup_txt}"
        )
    return "\n".join(lines)


def _load_scenario(path: str | None, overrides: dict) -> ScenarioConfig:
    config = ScenarioConfig()
    if path:
        try:
            text = Path(path).read_text(encoding="utf-8-sig")
        except UnicodeDecodeError as exc:
            raise ScenarioError(f"scenario: {path} is not UTF-8 text ({exc.reason} at byte {exc.start})") from exc
        except OSError as exc:
            raise ScenarioError(f"scenario: cannot read {path} ({exc.strerror})") from exc
        config = parse_scenario(text)
    return replace(config, **overrides)


def _parse_list(name: str, raw: str, kind=float) -> list:
    items = [item.strip() for item in raw.split(",") if item.strip()]
    if not items:
        raise ScenarioError(f"{name}: expected a comma-separated list, got {raw!r}")
    try:
        return [kind(item) for item in items]
    except ValueError as exc:
        raise ScenarioError(f"{name}: cannot parse {raw!r} as a list of {kind.__name__}") from exc


def _cmd_simulate(args: argparse.Namespace) -> int:
    overrides = {}
    if args.seed is not None:
        overrides["seed"] = args.seed
    if args.duration is not None:
        overrides["duration"] = args.duration
    config = _load_scenario(args.scenario, overrides)
    out_dir = Path(args.out) if args.out else None
    if out_dir is not None:
        out_dir.mkdir(parents=True, exist_ok=True)
    if args.trace and out_dir is None:
        raise ScenarioError("--trace requires --out")
    with (out_dir / "trace.jsonl").open("w") if args.trace else contextlib.nullcontext() as trace_handle:
        metrics = run_trial(config, trace=trace_handle)
    if out_dir is not None:
        emit_csv([_trial_row("", "", 0, config, metrics)], out_dir / "metrics.csv")
    print(
        f"{config.environment} density={_fmt(config.density)} condition={config.condition} "
        f"seed={config.seed}: social={metrics.social_conflicts} "
        f"physicality={metrics.physicality_conflicts} "
        f"stable={100 * metrics.stable_percentage:.1f}%"
    )
    return 0


def _report(rows: list[ResultRow], out: str | None, csv_name: str) -> int:
    if out:
        out_dir = Path(out)
        out_dir.mkdir(parents=True, exist_ok=True)
        emit_csv(rows, out_dir / csv_name)
    print(emit_summary(rows))
    return 0


def _cmd_ablate(args: argparse.Namespace) -> int:
    rows = run_ablation(
        _load_scenario(args.scenario, {}),
        args.axis,
        _parse_list("values", args.values, _SCHEMA[args.axis].metadata["type"]),
        replicates=args.replicates,
        seeds=_parse_list("seeds", args.seeds, int) if args.seeds else None,
        jobs=args.jobs,
    )
    return _report(rows, args.out, f"ablation_{args.axis}.csv")


def _cmd_matrix(args: argparse.Namespace) -> int:
    rows = run_matrix(
        _load_scenario(args.scenario, {}),
        environments=_parse_list("environments", args.environments, str),
        densities=_parse_list("densities", args.densities),
        replicates=args.replicates,
        seeds=_parse_list("seeds", args.seeds, int) if args.seeds else None,
        jobs=args.jobs,
    )
    return _report(rows, args.out, "matrix.csv")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="vhsim", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    p_sim = sub.add_parser("simulate", help="run one trial")
    p_sim.add_argument("--scenario", help="scenario file (defaults apply when omitted)")
    p_sim.add_argument("--seed", type=int, default=None)
    p_sim.add_argument("--duration", type=float, default=None)
    p_sim.add_argument("--out", help="output directory for metrics.csv (and trace.jsonl)")
    p_sim.add_argument("--trace", action="store_true", help="write a JSONL tick trace")
    p_sim.set_defaults(func=_cmd_simulate)

    sweep = argparse.ArgumentParser(add_help=False)  # the options `ablate` and `matrix` share
    sweep.add_argument("--scenario", help="base scenario file")
    sweep.add_argument("--replicates", type=int, default=5)
    sweep.add_argument("--seeds", help="comma-separated seeds (default 1..replicates)")
    sweep.add_argument("--out", help="output directory")
    sweep.add_argument("--jobs", type=int, default=1)

    p_abl = sub.add_parser("ablate", parents=[sweep], help="sweep one factor with paired trials")
    p_abl.add_argument("--axis", required=True, choices=SWEEP_AXES)
    p_abl.add_argument("--values", required=True, help="comma-separated sweep values")
    p_abl.set_defaults(func=_cmd_ablate)

    p_mat = sub.add_parser("matrix", parents=[sweep], help="environment x density x condition grid")
    p_mat.add_argument("--environments", default="square20,passage")
    p_mat.add_argument("--densities", default="0.05,0.10,0.15,0.20,0.25")
    p_mat.set_defaults(func=_cmd_matrix)

    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except ScenarioError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
