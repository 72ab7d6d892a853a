"""Command-line front end with deterministic CSV/JSON artifacts.

Subcommands mirror the library layout: ``sample`` draws permutations or
trees, ``exact`` evaluates closed forms and the enumeration oracle,
``bound`` evaluates tail bounds, and ``experiment`` runs the Monte Carlo
drivers. Identical argv (plus environment) always produces byte-identical
output; every artifact carries the command, its parameters, and the seed.
"""

from __future__ import annotations

import argparse
import functools
import json
import math
import os
import sys
from collections import Counter
from dataclasses import MISSING, asdict, dataclass, fields, is_dataclass

from .analytics import (
    c_star,
    chernoff_record_tail,
    conditional_height_tail_bound,
    enumerate_exact,
    left_profile_tail_bound,
    mu,
    profile_tail_constants,
    records_mgf,
    root_split_distribution,
    root_split_pmf,
)
from .experiments import (
    ExperimentConfig,
    log_to_stderr,
    parse_theta_value,
    run_dominance_check,
    run_height_ratio,
    run_record_concentration,
)
from .model import LeftProfile, RbParams, build_bst, check_int, check_real
from .model import height, record_count_tree
from .samplers import RandomSource, sample_height_only, sample_sequential, sample_tree_recursive

SEED_ENV_VAR = "RBL_SEED"
DEFAULT_THETA = "1.0"
MAX_PERM_TABLE_N = 8
# the largest n for commands that hold O(n) objects per draw or write O(n) rows
MAX_MATERIALIZED_N = 10**6
# commands whose one value is printed bare when neither --out nor --format is given
SCALAR_COMMANDS = ("exact mu", "exact cstar", "exact records-mgf")


class UsageError(ValueError):
    """Usage errors argparse cannot see: flag combinations, and a bad $RBL_SEED."""


@dataclass
class OutputTable:
    """One command's artifact. Rows are dicts of column -> value, or library row dataclasses."""

    command: str
    params: dict
    seed: int
    rows: list


def _format_cell(value) -> str:
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, float):
        return repr(value)
    return str(value)


def _row_dicts(table: OutputTable) -> list[dict]:
    return [asdict(row) if is_dataclass(row) else row for row in table.rows]


def render_csv(table: OutputTable) -> str:
    rows = _row_dicts(table)
    names = list(rows[0])
    lines = [",".join(["command"] + names)]
    for row in rows:
        cells = [table.command] + [_format_cell(row[name]) for name in names]
        lines.append(",".join(cells))
    return "\n".join(lines) + "\n"


def render_json(table: OutputTable) -> str:
    payload = {
        "command": table.command,
        "params": table.params,
        "seed": table.seed,
        "rows": _row_dicts(table),
    }
    return json.dumps(payload) + "\n"


def emit(table: OutputTable, fmt: str, out_path: str | None = None) -> None:
    """Serialize a table deterministically and write it out.

    CSV gets a header row, LF endings, and shortest-round-trip floats; JSON
    is a single object {command, params, seed, rows}. Raises on an empty
    table; file errors are rethrown with the path attached.
    """
    if not table.rows:
        raise ValueError("refusing to emit an empty table")
    if fmt == "csv":
        text = render_csv(table)
    elif fmt == "json":
        text = render_json(table)
    else:
        raise ValueError(f"unknown format {fmt!r}")
    if out_path is None:
        sys.stdout.write(text)
        return
    try:
        with open(out_path, "w", encoding="utf-8", newline="") as handle:
            handle.write(text)
    except OSError as exc:
        raise ValueError(f"cannot write {out_path}: {exc}") from exc


def _flag(name: str, check, parse=int, **bounds):
    """The argparse type of a flag: ``parse`` the text, then ``check`` it with ``bounds``.

    ``check`` is :func:`check_int` or :func:`check_real`; text that does not parse goes to it
    as it is, so every bad value reads "bad <name> '<text>': <name> must be <rule>, got ...".
    """

    def convert(text: str):
        try:
            value = parse(text)
        except ValueError:
            value = text
        try:
            return check(name, value, **bounds)
        except ValueError as exc:
            raise argparse.ArgumentTypeError(f"bad {name} {text!r}: {exc}") from exc

    return convert


_seed = _flag("seed", check_int, below=1 << 64, rule="an unsigned 64-bit integer")


def _int_list(text: str) -> tuple[int, ...]:
    try:
        return tuple(int(part) for part in text.split(","))
    except ValueError as exc:
        raise argparse.ArgumentTypeError(f"bad integer list {text!r}") from exc


def _resolve_seed(explicit: int | None) -> int:
    if explicit is not None:
        return explicit
    env = os.environ.get(SEED_ENV_VAR)
    try:
        return 0 if env is None else _seed(env)
    except argparse.ArgumentTypeError as exc:
        raise UsageError(f"${SEED_ENV_VAR}: {exc}") from None


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The CLI's parser, built once per process: parsing leaves it unchanged."""
    parser = argparse.ArgumentParser(
        prog="rbtrees",
        description="Sample record-biased permutations/trees and evaluate their exact laws and bounds.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    size = _flag("n", check_int)
    theta = _flag("theta", check_real, parse_theta_value, least=0.0, rule="finite and >= 0")
    t, epsilon, big_m = (
        _flag(name, check_real, float, rule="finite") for name in ("t", "epsilon", "M")
    )

    def add_io(p):
        p.add_argument("--seed", type=_seed, default=None, help="u64 seed (default: $RBL_SEED or 0)")
        p.add_argument("--out", default=None, help="output file path (default: stdout)")
        p.add_argument("--format", choices=["csv", "json"], default=None)

    p_sample = sub.add_parser("sample", help="draw permutations, trees, or height statistics")
    p_sample.add_argument("what", choices=["perm", "tree", "height"])
    p_sample.add_argument("--n", type=size, required=True)
    p_sample.add_argument("--theta", type=theta, default=DEFAULT_THETA)
    p_sample.add_argument("--trials", type=_flag("trials", check_int, least=1), default=1)
    p_sample.add_argument("--method", choices=["sequential", "recursive"], default=None)
    add_io(p_sample)

    p_exact = sub.add_parser("exact", help="closed-form quantities and the enumeration oracle")
    p_exact.add_argument("what", choices=["mu", "cstar", "split-pmf", "records-mgf", "enumerate"])
    p_exact.add_argument("--n", type=size, default=None)
    p_exact.add_argument("--theta", type=theta, default=DEFAULT_THETA)
    p_exact.add_argument("--t", type=t, default=0.0)
    p_exact.add_argument("--k", type=int, default=None)
    add_io(p_exact)

    p_bound = sub.add_parser("bound", help="tail bound evaluators")
    p_bound.add_argument("what", choices=["chernoff", "profile-tail", "height-tail"])
    p_bound.add_argument("--n", type=size, required=True)
    p_bound.add_argument("--theta", type=theta, default=DEFAULT_THETA)
    p_bound.add_argument("--epsilon", type=epsilon, default=None)
    p_bound.add_argument("--M", type=big_m, default=None)
    p_bound.add_argument("--k", type=int, default=None)
    p_bound.add_argument("--eta", type=_flag("eta", check_int), default=None)
    p_bound.add_argument("--t", type=t, default=math.log(2.0 * math.e))
    add_io(p_bound)

    p_exp = sub.add_parser("experiment", help="Monte Carlo experiment drivers")
    p_exp.add_argument("what", choices=["height-ratio", "record-concentration", "dominance"])
    p_exp.add_argument("--config", default=None, help="JSON config mirroring ExperimentConfig")
    p_exp.add_argument("--n-values", type=_int_list, default=None)
    p_exp.add_argument("--theta-spec", default=None)
    p_exp.add_argument("--trials", type=int, default=None)
    p_exp.add_argument("--epsilon", type=epsilon, default=None)
    p_exp.add_argument("--j-values", type=_int_list, default=None)
    threads = _flag("threads", check_int, least=1)
    p_exp.add_argument("--threads", type=threads, help="accepted for compatibility; no effect")
    add_io(p_exp)

    return parser


def _check_size(n: int, what: str, hint: str) -> None:
    if n > MAX_MATERIALIZED_N:
        raise ValueError(f"{what} requires n <= {MAX_MATERIALIZED_N}, got {n}; {hint}")


def _tally(draw, columns, trials: int, seed: int) -> list[dict]:
    """One row per distinct outcome of ``trials`` draws, in sorted outcome order.

    ``draw(rng)`` returns an outcome and ``columns(outcome)`` the row's leading columns. All
    draws share the stream RandomSource(seed, 0): building a source per trial would cost
    more than the draw itself at n <= 8 (about 19 us against 13 us at n = 8, 2-core Xeon).
    """
    rng = RandomSource(seed, 0)
    counts = Counter(draw(rng) for _ in range(trials))
    return [
        {**columns(outcome), "count": count, "frequency": count / trials, "seed": seed}
        for outcome, count in sorted(counts.items())
    ]


def _cmd_sample(args, seed) -> OutputTable:
    what, n, theta, trials = args.what, args.n, args.theta, args.trials
    method = args.method
    if method is None:
        method = "sequential" if what == "perm" else "recursive"
    head = {"n": n, "theta": theta, "trials": trials}
    if what == "perm":
        if method != "sequential":
            raise UsageError("sample perm supports only the sequential method")
        if n > MAX_PERM_TABLE_N:
            raise ValueError(
                "sample perm tabulates distinct permutations and requires "
                f"n <= {MAX_PERM_TABLE_N}; use 'sample height' for large n"
            )
        params = RbParams(n, theta)
        rows = _tally(
            lambda rng: sample_sequential(params, rng).values,
            lambda values: {**head, "perm": "-".join(str(v) for v in values)},
            trials,
            seed,
        )
    elif what == "tree":
        _check_size(n, "sample tree", "use 'sample height' for large n")
        params = RbParams(n, theta)

        def draw_tree(rng) -> tuple[int, int, int]:
            if method == "sequential":
                tree = build_bst(sample_sequential(params, rng))
            else:
                tree = sample_tree_recursive(params, rng)
            root_label = tree.labels[tree.root] if not tree.is_empty else 0
            return height(tree), record_count_tree(tree), root_label

        names = ("height", "records", "root_label")
        rows = _tally(
            draw_tree, lambda key: {**head, "method": method, **dict(zip(names, key))}, trials, seed
        )
    else:
        if method == "sequential":
            _check_size(n, "sample height --method sequential", "use 'sample height' for large n")
        config = ExperimentConfig(n_values=(n,), theta_spec=theta, trials=trials, seed=seed)
        rows = run_height_ratio(config, method=method)
    params = {"what": what, "n": n, "theta": theta, "trials": trials, "method": method}
    return OutputTable(f"sample {what}", params, seed, rows)


def _cmd_exact(args, seed) -> OutputTable:
    what = args.what
    if what == "cstar":
        rows = [{"n": 0, "theta": 0.0, "quantity": "c_star", "value": c_star(), "seed": seed}]
        return OutputTable("exact cstar", {"what": what}, seed, rows)
    if args.n is None:
        raise UsageError(f"exact {what} requires --n")
    n, theta = args.n, args.theta
    params = {"what": what, "n": n, "theta": theta}
    head = {"n": n, "theta": theta}
    if what == "mu":
        rows = [{**head, "quantity": "mu", "value": mu(n, theta), "seed": seed}]
    elif what == "records-mgf":
        value = records_mgf(RbParams(n, theta), args.t)
        params["t"] = args.t
        rows = [{**head, "t": args.t, "value": value, "seed": seed}]
    elif what == "split-pmf":
        rb = RbParams(n, theta)
        if args.k is not None:
            pmf = {args.k: root_split_pmf(rb, args.k)}
            params["k"] = args.k
        else:
            _check_size(n, "exact split-pmf", "pass --k for one probability")
            pmf = dict(enumerate(root_split_distribution(rb), start=1))
        rows = [{**head, "k": k, "probability": p, "seed": seed} for k, p in pmf.items()]
    else:
        laws = enumerate_exact(RbParams(n, theta))
        rows = []
        for law_name, dist in (
            ("record", laws.record),
            ("first_value", laws.first_value),
            ("left_subtree_size", laws.left_subtree_size),
            ("height", laws.height),
            ("profile", laws.profile),
        ):
            for key, prob in zip(dist.support, dist.probs):
                outcome = "|".join(str(v) for v in key) if isinstance(key, tuple) else str(key)
                rows.append(
                    {**head, "law": law_name, "outcome": outcome, "probability": prob, "seed": seed}
                )
    return OutputTable(f"exact {what}", params, seed, rows)


def _cmd_bound(args, seed) -> OutputTable:
    what = args.what
    n, theta = args.n, args.theta
    rb = RbParams(n, theta)
    head = {"n": n, "theta": theta}
    if what == "chernoff":
        if args.epsilon is None:
            raise UsageError("bound chernoff requires --epsilon")
        values = chernoff_record_tail(rb, args.epsilon)
        params = {"what": what, "n": n, "theta": theta, "epsilon": args.epsilon}
        rows = [
            {**head, "epsilon": args.epsilon, "side": side, "value": value, "seed": seed}
            for side, value in zip(("upper", "lower", "two_sided"), values)
        ]
    elif what == "profile-tail":
        if args.epsilon is None or args.M is None or args.k is None:
            raise UsageError("bound profile-tail requires --epsilon, --M, and --k")
        C, lam = profile_tail_constants(theta, args.epsilon)
        value = left_profile_tail_bound(rb, args.epsilon, args.M, args.k)
        inputs = {"epsilon": args.epsilon, "M": args.M, "k": args.k}
        params = {"what": what, **head, **inputs}
        rows = [{**head, **inputs, "C": C, "lam": lam, "value": value, "seed": seed}]
    else:
        if args.eta is None:
            raise UsageError("bound height-tail requires --eta")
        sample = sample_height_only(rb, RandomSource(seed, 0))
        profile = LeftProfile(sample.sizes.tolist())
        value = conditional_height_tail_bound(profile, args.eta, args.t)
        inputs = {"eta": args.eta, "t": args.t}
        params = {"what": what, **head, **inputs}
        rows = [{**head, **inputs, "records": sample.records, "value": value, "seed": seed}]
    return OutputTable(f"bound {what}", params, seed, rows)


# each experiment setting names a config key and the dest of the flag that overrides it
_EXPERIMENT_SETTINGS = tuple(f.name for f in fields(ExperimentConfig) if f.init)


def _load_experiment_settings(args) -> dict:
    settings: dict = {}
    if args.config is not None:
        try:
            with open(args.config, "r", encoding="utf-8") as handle:
                data = json.load(handle)
        except OSError as exc:
            raise ValueError(f"cannot read {args.config}: {exc}") from exc
        except json.JSONDecodeError as exc:
            raise ValueError(f"bad JSON in {args.config}: {exc}") from exc
        if not isinstance(data, dict):
            raise ValueError(f"{args.config} must hold a JSON object")
        unknown = set(data) - set(_EXPERIMENT_SETTINGS)
        if unknown:
            raise UsageError(f"unknown config fields: {sorted(unknown)}")
        settings.update(data)
    for key in _EXPERIMENT_SETTINGS:
        if getattr(args, key) is not None:
            settings[key] = getattr(args, key)
    required = [f.name for f in fields(ExperimentConfig) if f.init and f.default is MISSING]
    if not set(required) <= set(settings):
        raise UsageError(f"experiment requires {', '.join(required)} (flags or config)")
    return settings


def _cmd_experiment(args, seed) -> OutputTable:
    settings = _load_experiment_settings(args)
    seed = _resolve_seed(settings.pop("seed", None))
    config = ExperimentConfig(**settings, seed=seed)
    what = args.what
    if what == "height-ratio":
        rows = run_height_ratio(config, progress=log_to_stderr)
    elif what == "record-concentration":
        if config.epsilon is None:
            raise UsageError("record-concentration requires --epsilon (or config epsilon)")
        rows = run_record_concentration(config, progress=log_to_stderr)
    else:
        rows = run_dominance_check(config, progress=log_to_stderr)
    params = {
        "what": what,
        "n_values": list(config.n_values),
        "theta_spec": str(config.theta_spec),
        "trials": config.trials,
    }
    if config.epsilon is not None:
        params["epsilon"] = config.epsilon
    if config.j_values is not None:
        params["j_values"] = list(config.j_values)
    return OutputTable(f"experiment {what}", params, seed, rows)


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        seed = _resolve_seed(getattr(args, "seed", None))
        if args.command == "sample":
            table = _cmd_sample(args, seed)
        elif args.command == "exact":
            table = _cmd_exact(args, seed)
        elif args.command == "bound":
            table = _cmd_bound(args, seed)
        else:
            table = _cmd_experiment(args, seed)
        if table.command in SCALAR_COMMANDS and args.out is None and args.format is None:
            sys.stdout.write(repr(table.rows[0]["value"]) + "\n")
            return 0
        emit(table, args.format or "csv", args.out)
        return 0
    except UsageError as exc:
        parser.error(str(exc))
    except (ValueError, OverflowError, MemoryError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
