"""Command-line front end.

Subcommands: stats | path {greedy,direct,exact,local} | explain | pareto |
expected-cost | verify. Inputs are either a CSV dataset (standardized by
default) or a moments JSON {"gram": [[...]], "cross": [...], "tsm": x,
"names": [...]}. Exit codes: 0 success, 1 failed verification, 2 bad
input/config, 3 infeasible or over budget.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

import numpy as np

from .errors import BudgetError, InfeasibleError, InputError, not_utf8
from .optimizers import (
    OptimizerConfig,
    best_explanation,
    direct_path,
    exact_path,
    greedy_path,
    local_improvement,
)
from .pareto import (
    FRONT_CSV_HEADER,
    check_front_rows,
    default_lambda_grid,
    expected_cost_path,
    front_to_csv,
    front_to_json,
    sweep,
)
from .paths import (
    CoordinatePath,
    WeightSchedule,
    cost_sequence,
    model_from_json,
    path_to_json,
    weighted_loss,
)
from .regression import (
    LinearModel,
    compute_stats,
    cost,
    load_csv,
    ols,
    standardize,
    stats_from_moments,
)


def canonical_json(obj) -> str:
    return json.dumps(obj, indent=2, sort_keys=True) + "\n"


def read_text(path, what: str = "") -> str:
    """A UTF-8 input file's text; InputError if it cannot be read or decoded."""
    try:
        return Path(path).read_text(encoding="utf-8")
    except OSError as exc:
        raise InputError(f"cannot read {what}{path}: {exc}") from exc
    except UnicodeDecodeError as exc:
        raise not_utf8(path, exc) from None


def load_stats(args):
    if (args.input is None) == (args.moments is None):
        raise InputError("provide exactly one input source: --input CSV or --moments JSON")
    if args.moments is not None:
        try:
            payload = json.loads(read_text(args.moments))
        except json.JSONDecodeError as exc:
            raise InputError(f"{args.moments}: invalid JSON ({exc})") from exc
        for key in ("gram", "cross", "tsm"):
            if key not in payload:
                raise InputError(f"{args.moments}: missing '{key}' key")
        return stats_from_moments(
            payload["gram"], payload["cross"], payload["tsm"], payload.get("names")
        ), None
    if args.target is None:
        raise InputError("--target is required with --input")
    ds = load_csv(args.input, args.target)
    scaling = None
    if not args.no_standardize:
        ds, scaling = standardize(ds)
    return compute_stats(ds), scaling


def parse_schedule(args) -> WeightSchedule:
    given = [name for name in ("gamma", "weights", "dist") if getattr(args, name, None) is not None]
    if len(given) > 1:
        raise InputError(f"give at most one of --gamma/--weights/--dist (got {given})")
    if getattr(args, "weights", None) is not None:
        return WeightSchedule.explicit(_parse_floats(args.weights, "--weights"))
    if getattr(args, "dist", None) is not None:
        return WeightSchedule.distribution(_parse_floats(args.dist, "--dist"))
    gamma = args.gamma if getattr(args, "gamma", None) is not None else 1.0
    return WeightSchedule.geometric(gamma)


def _parse_floats(text: str, flag: str) -> list[float]:
    try:
        return [float(v) for v in text.split(",") if v.strip() != ""]
    except ValueError as exc:
        raise InputError(f"{flag}: expected comma-separated numbers, got '{text}'") from exc


def parse_lambda_grid(spec: str | None) -> np.ndarray:
    if spec is None:
        return default_lambda_grid()
    if spec.startswith("log:"):
        parts = spec.split(":")
        if len(parts) != 4:
            raise InputError("--lambda-grid log form is log:LO:HI:N")
        try:
            lo, hi, n = float(parts[1]), float(parts[2]), int(parts[3])
        except ValueError as exc:
            raise InputError(f"--lambda-grid: cannot parse '{spec}'") from exc
        if lo <= 0 or hi <= 0 or n < 1:
            raise InputError("--lambda-grid log form needs LO, HI > 0 and N >= 1")
        return np.logspace(np.log10(lo), np.log10(hi), n)
    return np.asarray(_parse_floats(spec, "--lambda-grid"), dtype=float)


def load_base(args, stats) -> LinearModel:
    if args.base is None or args.base == "zero":
        return LinearModel.zeros(stats.feature_names)
    return load_model_file(args.base, stats)


def load_model_file(path: str, stats) -> LinearModel:
    try:
        payload = json.loads(read_text(path, "model "))
    except json.JSONDecodeError as exc:
        raise InputError(f"{path}: invalid JSON ({exc})") from exc
    return model_from_json(payload, stats.feature_names)


# ---------------------------------------------------------------------------
# Rendering
# ---------------------------------------------------------------------------


def render_path_table(stats, path: CoordinatePath, precision: int) -> str:
    """Model-per-row table with the carried-over convention: a number marks
    the coefficient changed at that step, '|' a carried nonzero coefficient,
    '-' a zero one."""
    names = path.base.feature_names
    cols = [i for i in range(len(names)) if path.base.coefficients[i] != 0]
    for idx, _ in path.steps:
        if idx not in cols:
            cols.append(idx)
    costs = cost_sequence(stats, path)
    base_cost = cost(stats, path.base)

    header = ["model"] + [names[i] for i in cols] + ["MSE"]
    rows = []
    beta = path.base.coefficients.copy()
    row = ["beta_0"]
    for i in cols:
        row.append(f"{beta[i]:.{precision}f}" if beta[i] != 0 else "-")
    row.append(f"{base_cost:.{precision}f}")
    rows.append(row)
    for k, (idx, val) in enumerate(path.steps, start=1):
        beta[idx] = val
        row = [f"beta_{k}"]
        for i in cols:
            if i == idx:
                row.append(f"{val:.{precision}f}")
            elif beta[i] != 0:
                row.append("|")
            else:
                row.append("-")
        row.append(f"{costs[k - 1]:.{precision}f}")
        rows.append(row)

    widths = [max(len(header[c]), *(len(r[c]) for r in rows)) for c in range(len(header))]
    lines = ["  ".join(h.rjust(w) for h, w in zip(header, widths))]
    for r in rows:
        lines.append("  ".join(v.rjust(w) for v, w in zip(r, widths)))
    return "\n".join(lines)


def write_out(path: str, text: str):
    Path(path).write_text(text, encoding="utf-8")


def report_path(args, stats, path: CoordinatePath, schedule: WeightSchedule,
                loss_label: str | None) -> int:
    """Print the path's table and, under loss_label, its weighted loss; write
    it to --out if given."""
    print(render_path_table(stats, path, args.precision))
    if loss_label is not None:
        print(f"{loss_label}: {weighted_loss(stats, path, schedule):.{args.precision}f}")
    if args.out:
        write_out(args.out, canonical_json(path_to_json(path)))
        print(f"path written to {args.out}")
    return 0


# ---------------------------------------------------------------------------
# Subcommands
# ---------------------------------------------------------------------------


def cmd_stats(args) -> int:
    stats, _ = load_stats(args)
    p = args.precision
    print(f"features ({stats.d}): {', '.join(stats.feature_names)}")
    print(f"cost of zero model: {stats.target_second_moment:.{p}f}")
    fit = ols(stats)
    print("least-squares fit:")
    for name, value in zip(stats.feature_names, fit.coefficients):
        print(f"  {name}: {value:.{p}f}")
    print(f"least-squares cost: {cost(stats, fit):.{p}f}")
    if args.out:
        payload = {
            "gram": [[float(v) for v in row] for row in stats.gram],
            "cross": [float(v) for v in stats.cross],
            "tsm": stats.target_second_moment,
            "names": list(stats.feature_names),
        }
        write_out(args.out, canonical_json(payload))
        print(f"moments written to {args.out}")
    return 0


def _resolve_endpoint(args, stats) -> LinearModel | None:
    choice = getattr(args, "endpoint", None)
    if choice is None:
        # Integer steps almost never land exactly on the least-squares fit,
        # so unit mode defaults to a free endpoint.
        choice = "free" if getattr(args, "step_mode", "continuous") == "unit" else "ols"
    if choice == "free":
        return None
    if choice == "ols":
        return ols(stats)
    return load_model_file(choice, stats)


def search_q(args, K: int) -> int:
    """--q, or the default batch size min(2, K) for local search."""
    return args.q if args.q is not None else min(2, max(K, 1))


def cmd_path(args) -> int:
    stats, _ = load_stats(args)
    schedule = parse_schedule(args)
    base = load_base(args, stats)
    if args.method == "greedy":
        path = greedy_path(stats, base, args.K)
    elif args.method == "direct":
        path = direct_path(stats, base, args.K)
    else:
        endpoint = _resolve_endpoint(args, stats)
        cfg = OptimizerConfig(
            K=args.K,
            schedule=schedule,
            endpoint=endpoint,
            step_mode=args.step_mode,
            seed=args.seed,
            q=search_q(args, args.K),
            T=args.T,
        )
        if args.method == "exact":
            path = exact_path(stats, base, cfg)
        else:
            path = local_improvement(stats, base, cfg)
    label = f"steps: {path.K}  weighted loss [{schedule.describe()}]" if path.K > 0 else None
    return report_path(args, stats, path, schedule, label)


def cmd_explain(args) -> int:
    stats, _ = load_stats(args)
    schedule = parse_schedule(args)
    base = load_base(args, stats)
    target = load_model_file(args.model, stats) if args.model else ols(stats)
    path = best_explanation(stats, base, target, schedule, args.K)
    return report_path(args, stats, path, schedule,
                       f"best explanation: {path.K} steps, loss [{schedule.describe()}]")


def cmd_pareto(args) -> int:
    stats, _ = load_stats(args)
    schedule = parse_schedule(args)
    base = load_base(args, stats)
    grid = parse_lambda_grid(args.lambda_grid)
    cfg = OptimizerConfig(K=0, schedule=schedule, seed=args.seed, q=search_q(args, args.K),
                          T=args.T)
    report = sweep(stats, base, schedule, grid, args.K, solver=args.solver, cfg=cfg)
    print(f"front points: {len(report.points)}")
    hist = {}
    for point in report.points:
        hist[point.K] = hist.get(point.K, 0) + 1
    histtext = "  ".join(f"K={k}:{n}" for k, n in sorted(hist.items()))
    print(f"K histogram: {histtext}")
    p = args.precision
    for point in report.points:
        print(
            f"  lambda={point.lam:.6g}  K={point.K}  cost={point.cost:.{p}f}  "
            f"loss={point.interp_loss:.{p}f}"
        )
    if args.out:
        stem = Path(args.out)
        if stem.suffix in (".csv", ".json"):
            stem = stem.with_suffix("")
        csv_file = stem.with_suffix(".csv")
        json_file = stem.with_suffix(".json")
        write_out(csv_file, front_to_csv(report))
        write_out(json_file, canonical_json(front_to_json(report)))
        print(f"front written to {csv_file} and {json_file}")
    return 0


def cmd_expected_cost(args) -> int:
    stats, _ = load_stats(args)
    if args.dist is None:
        raise InputError("--dist is required for expected-cost")
    schedule = WeightSchedule.distribution(_parse_floats(args.dist, "--dist"))
    base = load_base(args, stats)
    cfg = OptimizerConfig(K=0, schedule=schedule, seed=args.seed,
                          q=search_q(args, len(schedule.values)), T=args.T)
    path = expected_cost_path(stats, base, schedule.values, solver=args.solver, cfg=cfg)
    return report_path(args, stats, path, schedule, "expected cost E_k[mse]")


def cmd_verify(args) -> int:
    if args.input is None:
        raise InputError("verify needs --input FILE (front CSV/JSON or path JSON)")
    path = Path(args.input)
    text = read_text(path)

    problems: list[str] = []
    if path.suffix == ".csv":
        lines = [ln for ln in text.splitlines() if ln.strip()]
        if not lines or lines[0] != FRONT_CSV_HEADER:
            raise InputError(f"{path}: expected header '{FRONT_CSV_HEADER}'")
        rows = []
        for i, ln in enumerate(lines[1:], start=1):
            cells = ln.split(",")
            if len(cells) != 4:
                raise InputError(f"{path}: malformed row '{ln}'")
            rows.append(_front_row(path, i, cells[0], cells[1]))
        problems = check_front_rows(rows)
        kind = f"front CSV ({len(rows)} points)"
    else:
        try:
            payload = json.loads(text)
        except json.JSONDecodeError as exc:
            raise InputError(f"{path}: invalid JSON ({exc})") from exc
        if isinstance(payload, dict) and "points" in payload:
            if not isinstance(payload["points"], list):
                raise InputError(f"{path}: 'points' is not a list")
            rows = []
            for i, pt in enumerate(payload["points"], start=1):
                if not isinstance(pt, dict) or "interp_loss" not in pt or "cost" not in pt:
                    raise InputError(f"{path}: point {i} is not an object with "
                                     "'interp_loss' and 'cost'")
                rows.append(_front_row(path, i, pt["interp_loss"], pt["cost"]))
            problems = check_front_rows(rows)
            kind = f"front JSON ({len(rows)} points)"
        elif isinstance(payload, dict) and "base" in payload and "steps" in payload:
            if not isinstance(payload["steps"], list):
                raise InputError(f"{path}: 'steps' is not a list")
            if canonical_json(payload) != text:
                problems.append("file is not in canonical form (round-trip differs)")
            for s, step in enumerate(payload["steps"]):
                if not isinstance(step, dict) or "feature" not in step or "value" not in step:
                    problems.append(f"step {s + 1} is malformed")
            kind = f"path JSON ({len(payload['steps'])} steps)"
        else:
            raise InputError(f"{path}: unrecognized artifact (not a front or a path)")
    if problems:
        for p in problems:
            print(f"FAIL: {p}", file=sys.stderr)
        return 1
    print(f"verified {kind}: OK")
    return 0


def _front_row(path, i: int, interp_loss, cost) -> tuple[float, float]:
    try:
        return float(interp_loss), float(cost)
    except (TypeError, ValueError):
        raise InputError(
            f"{path}: point {i}: interp_loss {interp_loss!r} and cost {cost!r} "
            "must be numbers"
        ) from None


# ---------------------------------------------------------------------------
# Parser
# ---------------------------------------------------------------------------


def nonnegative_int(text: str) -> int:
    value = int(text)
    if value < 0:
        raise argparse.ArgumentTypeError(f"must be >= 0, got {value}")
    return value


def build_parser() -> argparse.ArgumentParser:
    top = argparse.ArgumentParser(prog="pathlens", description=__doc__)
    sub = top.add_subparsers(dest="command", required=True)

    def add_io(p):
        p.add_argument("--input", help="CSV dataset path")
        p.add_argument("--target", help="target column name (with --input)")
        p.add_argument("--moments", help="moments JSON path")
        p.add_argument("--no-standardize", action="store_true",
                       help="skip standardization of CSV input")
        p.add_argument("--precision", type=nonnegative_int, default=4,
                       help="table decimals (default 4)")
        p.add_argument("--out", help="output artifact path")

    def add_schedule(p):
        p.add_argument("--gamma", type=float, help="geometric schedule weight(k)=gamma^k")
        p.add_argument("--weights", help="explicit comma-separated step weights")
        p.add_argument("--dist", help="comma-separated probabilities over path lengths")

    def add_search(p):
        p.add_argument("--q", type=int, help="local-search batch size (default min(2, K))")
        p.add_argument("--T", type=int, default=50, help="local-search iterations (default 50)")
        p.add_argument("--seed", type=int, default=0, help="local-search RNG seed")

    p = sub.add_parser("stats", help="print sufficient statistics and the OLS fit")
    add_io(p)
    p.set_defaults(func=cmd_stats)

    p = sub.add_parser("path", help="compute one coordinate path")
    p.add_argument("method", choices=("greedy", "direct", "exact", "local"))
    add_io(p)
    add_schedule(p)
    add_search(p)
    p.add_argument("--K", type=int, required=True, help="number of steps")
    p.add_argument("--base", help="base model JSON file, or 'zero' (default)")
    p.add_argument("--step-mode", choices=("continuous", "unit"), default="continuous")
    p.add_argument("--endpoint", help="exact/local target: 'ols' (default), 'free', or model JSON")
    p.set_defaults(func=cmd_path)

    p = sub.add_parser("explain", help="best explanation of a target model")
    add_io(p)
    add_schedule(p)
    p.add_argument("--K", type=int, required=True, help="maximum explanation length")
    p.add_argument("--base", help="base model JSON file, or 'zero' (default)")
    p.add_argument("--model", help="target model JSON (default: the OLS fit)")
    p.set_defaults(func=cmd_explain)

    p = sub.add_parser("pareto", help="sweep the cost/interpretability front")
    add_io(p)
    add_schedule(p)
    add_search(p)
    p.add_argument("--K", type=int, required=True, help="maximum path length")
    p.add_argument("--base", help="base model JSON file, or 'zero' (default)")
    p.add_argument("--lambda-grid", help="log:LO:HI:N or comma list (default log:1e-3:1e3:61)")
    p.add_argument("--solver", choices=("exact", "local"), default="exact")
    p.set_defaults(func=cmd_pareto)

    p = sub.add_parser("expected-cost", help="path minimizing expected cost over lengths")
    add_io(p)
    add_search(p)
    p.add_argument("--dist", required=True, help="comma-separated probabilities p_1..p_K")
    p.add_argument("--base", help="base model JSON file, or 'zero' (default)")
    p.add_argument("--solver", choices=("exact", "local"), default="exact")
    p.set_defaults(func=cmd_expected_cost)

    p = sub.add_parser("verify", help="re-check a written artifact")
    p.add_argument("--input", required=True, help="front CSV/JSON or path JSON")
    p.set_defaults(func=cmd_verify)

    return top


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except InputError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except (InfeasibleError, BudgetError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
