"""Scenario files, experiment orchestration, and tabular output.

Scenario files are flat `key: value` text (see `SCENARIO_KEYS` and the
README); every model constant is a key with the reference defaults. The
`ablate` command sweeps one factor with paired trials (condition none and
proposed share a seed, hence an identical pedestrian stream), `matrix` runs
the full environment-by-density grid, and `simulate` runs a single trial.
"""

from __future__ import annotations

import argparse
import concurrent.futures
import dataclasses
import sys
from dataclasses import dataclass, field, replace
from pathlib import Path

from .simulation import ScenarioConfig, ScenarioError, TrialMetrics, reduction_ratio, run_trial

SWEEP_AXES = (
    "coefficient_c",
    "coefficient_d",
    "interpersonal_distance",
    "tracking_distance",
    "density",
    "environment",
    "condition",
)

_SCHEMA = {f.name: f for f in dataclasses.fields(ScenarioConfig)}
SCENARIO_KEYS = tuple(_SCHEMA)

CSV_COLUMNS = (
    "environment", "density", "axis", "value", "replicate", "seed",
    "social_none", "social_proposed", "physicality_none", "physicality_proposed",
    "social_reduction", "physicality_reduction", "stable_pct", "mean_ingroup",
)


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


def format_scenario(config: ScenarioConfig) -> str:
    """Render a config as scenario text; parse(format(c)) == c."""
    out = [f"{f.name}: {getattr(config, f.name)}" for f in dataclasses.fields(config)]
    return "\n".join(out) + "\n"


@dataclass
class ExperimentSpec:
    """One factor sweep: axis, values, and the shared base scenario."""

    base: ScenarioConfig
    axis: str
    values: list = field(default_factory=list)
    replicates: int = 5
    seeds: list[int] = field(default_factory=lambda: [1, 2, 3, 4, 5])

    def __post_init__(self) -> None:
        if self.axis not in SWEEP_AXES:
            raise ScenarioError(f"axis: must be one of {SWEEP_AXES}, got {self.axis!r}")
        if not self.values:
            raise ScenarioError("values: sweep values must be non-empty")
        if self.replicates < 1:
            raise ScenarioError("replicates: must be >= 1")
        if len(self.seeds) < self.replicates:
            raise ScenarioError("seeds: need at least one seed per replicate")


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


def _apply_axis(config: ScenarioConfig, axis: str, value) -> ScenarioConfig:
    if axis in ("environment", "condition"):
        return replace(config, **{axis: str(value)})
    return replace(config, **{axis: float(value)})


def _run_many(configs: list[ScenarioConfig], jobs: int) -> dict[ScenarioConfig, TrialMetrics]:
    """Run each distinct config once, in up to `jobs` worker processes."""
    if jobs < 1:
        raise ScenarioError(f"jobs: must be >= 1, got {jobs}")
    todo = list(dict.fromkeys(configs))
    workers = min(jobs, len(todo))
    if workers > 1:
        with concurrent.futures.ProcessPoolExecutor(max_workers=workers) as pool:
            return dict(zip(todo, pool.map(run_trial, todo)))
    return {cfg: run_trial(cfg) for cfg in todo}


def _paired(cfg: ScenarioConfig) -> tuple[ScenarioConfig, ScenarioConfig]:
    return replace(cfg, condition="none"), replace(cfg, condition="proposed")


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
    cfg: ScenarioConfig,
    metrics: dict[ScenarioConfig, TrialMetrics],
) -> ResultRow:
    none_metrics, prop_metrics = (metrics[c] for c in _paired(cfg))
    return ResultRow(
        environment=cfg.environment,
        density=cfg.density,
        axis=axis,
        value=str(value),
        replicate=replicate,
        seed=cfg.seed,
        social_none=none_metrics.social_conflicts,
        social_proposed=prop_metrics.social_conflicts,
        physicality_none=none_metrics.physicality_conflicts,
        physicality_proposed=prop_metrics.physicality_conflicts,
        social_reduction=reduction_ratio(none_metrics.social_conflicts, prop_metrics.social_conflicts),
        physicality_reduction=reduction_ratio(
            none_metrics.physicality_conflicts, prop_metrics.physicality_conflicts
        ),
        stable_pct=prop_metrics.stable_percentage,
        mean_ingroup=prop_metrics.mean_ingroup,
    )


def run_ablation(spec: ExperimentSpec, jobs: int = 1) -> list[ResultRow]:
    """Sweep one factor; each point runs paired none/proposed trials per seed.

    For the condition axis only that condition runs and reductions stay empty.
    """
    points = [
        (value, replicate, _apply_axis(replace(spec.base, seed=spec.seeds[replicate]), spec.axis, value))
        for value in spec.values
        for replicate in range(spec.replicates)
    ]
    if spec.axis == "condition":
        metrics = _run_many([cfg for _, _, cfg in points], jobs)
        return [_trial_row(spec.axis, value, replicate, cfg, metrics[cfg]) for value, replicate, cfg in points]
    metrics = _run_many([c for _, _, cfg in points for c in _paired(cfg)], jobs)
    return [_paired_row(spec.axis, value, replicate, cfg, metrics) for value, replicate, cfg in points]


def run_matrix(
    base: ScenarioConfig,
    environments: list[str],
    densities: list[float],
    replicates: int = 5,
    seeds: list[int] | None = None,
    jobs: int = 1,
) -> list[ResultRow]:
    """Full environment-by-density grid with paired conditions per seed."""
    if replicates < 1:
        raise ScenarioError("replicates: must be >= 1")
    seeds = seeds or list(range(1, replicates + 1))
    if len(seeds) < replicates:
        raise ScenarioError("seeds: need at least one seed per replicate")
    points = [
        (replicate, replace(base, environment=env_name, density=density, seed=seeds[replicate]))
        for env_name in environments
        for density in densities
        for replicate in range(replicates)
    ]
    metrics = _run_many([c for _, cfg in points for c in _paired(cfg)], jobs)
    return [_paired_row("", "", replicate, cfg, metrics) for replicate, cfg in points]


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


def format_reduction_cell(dc_none: int | None, dc_avoid: int | None) -> str:
    """Percentage-and-fraction cell, e.g. '80% (104/522)'."""
    if dc_none is None or dc_avoid is None:
        return "-"
    if dc_none == 0:
        return f"n/a ({dc_avoid}/0)"
    ratio = (dc_none - dc_avoid) / dc_none
    return f"{round(100 * ratio)}% ({dc_avoid}/{dc_none})"


def emit_summary(rows: list[ResultRow]) -> str:
    """Aggregate replicates per sweep point and format a text table.

    Counts are pooled across replicates; stable time and in-group comfort are
    averaged.
    """
    groups: dict[tuple, list[ResultRow]] = {}
    for row in rows:
        groups.setdefault((row.environment, row.density, row.axis, row.value), []).append(row)
    lines = []
    for (env_name, density, axis, value), members in sorted(groups.items(), key=lambda kv: kv[0]):
        label = f"{env_name} density={_fmt(density)}"
        if axis:
            label += f" {axis}={value}"
        sn = _sum_or_none([m.social_none for m in members])
        sp = _sum_or_none([m.social_proposed for m in members])
        pn = _sum_or_none([m.physicality_none for m in members])
        pp = _sum_or_none([m.physicality_proposed for m in members])
        stable = [m.stable_pct for m in members if m.stable_pct is not None]
        stable_txt = f"{100 * sum(stable) / len(stable):.1f}%" if stable else "-"
        ingroups = [m.mean_ingroup for m in members if m.mean_ingroup is not None]
        ingroup_txt = f"{sum(ingroups) / len(ingroups):.3f}" if ingroups else "-"
        lines.append(
            f"{label}: social {format_reduction_cell(sn, sp)} | "
            f"physicality {format_reduction_cell(pn, pp)} | "
            f"stable {stable_txt} | ingroup {ingroup_txt}"
        )
    return "\n".join(lines)


def _sum_or_none(values: list) -> int | None:
    present = [v for v in values if v is not None]
    return sum(present) if present else None


def _load_scenario(path: str | None, overrides: dict) -> ScenarioConfig:
    config = parse_scenario(Path(path).read_text()) if path else ScenarioConfig()
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
    trace_handle = None
    if args.trace:
        if out_dir is None:
            raise ScenarioError("--trace requires --out")
        trace_handle = (out_dir / "trace.jsonl").open("w")
    try:
        metrics = run_trial(config, trace=trace_handle)
    finally:
        if trace_handle is not None:
            trace_handle.close()
    if out_dir is not None:
        emit_csv([_trial_row("", "", 0, config, metrics)], out_dir / "metrics.csv")
    print(
        f"{config.environment} density={_fmt(config.density)} condition={config.condition} "
        f"seed={config.seed}: social={metrics.social_conflicts} "
        f"physicality={metrics.physicality_conflicts} "
        f"stable={100 * metrics.stable_percentage:.1f}%"
    )
    return 0


def _cmd_ablate(args: argparse.Namespace) -> int:
    base = _load_scenario(args.scenario, {})
    kind = str if args.axis in ("environment", "condition") else float
    spec = ExperimentSpec(
        base=base,
        axis=args.axis,
        values=_parse_list("values", args.values, kind),
        replicates=args.replicates,
        seeds=_parse_list("seeds", args.seeds, int) if args.seeds else list(range(1, args.replicates + 1)),
    )
    rows = run_ablation(spec, jobs=args.jobs)
    if args.out:
        out_dir = Path(args.out)
        out_dir.mkdir(parents=True, exist_ok=True)
        emit_csv(rows, out_dir / f"ablation_{args.axis}.csv")
    print(emit_summary(rows))
    return 0


def _cmd_matrix(args: argparse.Namespace) -> int:
    base = _load_scenario(args.scenario, {})
    rows = run_matrix(
        base,
        environments=_parse_list("environments", args.environments, str),
        densities=_parse_list("densities", args.densities),
        replicates=args.replicates,
        seeds=_parse_list("seeds", args.seeds, int) if args.seeds else None,
        jobs=args.jobs,
    )
    if args.out:
        out_dir = Path(args.out)
        out_dir.mkdir(parents=True, exist_ok=True)
        emit_csv(rows, out_dir / "matrix.csv")
    print(emit_summary(rows))
    return 0


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

    p_abl = sub.add_parser("ablate", help="sweep one factor with paired trials")
    p_abl.add_argument("--axis", required=True, choices=SWEEP_AXES)
    p_abl.add_argument("--values", required=True, help="comma-separated sweep values")
    p_abl.add_argument("--scenario", help="base scenario file")
    p_abl.add_argument("--replicates", type=int, default=5)
    p_abl.add_argument("--seeds", help="comma-separated seeds (default 1..replicates)")
    p_abl.add_argument("--out", help="output directory")
    p_abl.add_argument("--jobs", type=int, default=1)
    p_abl.set_defaults(func=_cmd_ablate)

    p_mat = sub.add_parser("matrix", help="environment x density x condition grid")
    p_mat.add_argument("--environments", default="square20,passage")
    p_mat.add_argument("--densities", default="0.05,0.10,0.15,0.20,0.25")
    p_mat.add_argument("--scenario", help="base scenario file")
    p_mat.add_argument("--replicates", type=int, default=5)
    p_mat.add_argument("--seeds", help="comma-separated seeds (default 1..replicates)")
    p_mat.add_argument("--out", help="output directory")
    p_mat.add_argument("--jobs", type=int, default=1)
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


if __name__ == "__main__":
    sys.exit(main())
