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
from dataclasses import dataclass, fields, is_dataclass

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
    parse_theta_value,
    run_dominance_check,
    run_height_ratio,
    run_record_concentration,
)
from .model import LeftProfile, RbParams, check_int, check_real, height, insertion_height
from .model import record_count_perm, record_count_tree
from .samplers import RandomSource, sample_height_only, sample_sequential, sample_tree_recursive

SEED_ENV_VAR = "RBL_SEED"
DEFAULT_THETA = "1.0"
MAX_PERM_TABLE_N = 8
# the largest n for commands that hold O(n) objects per draw or write O(n) rows
MAX_MATERIALIZED_N = 10**6
# commands whose one value is printed bare when neither --out nor --format is given
SCALAR_COMMANDS = ("exact mu", "exact cstar", "exact records-mgf")


class UsageError(ValueError):
    """Usage errors argparse cannot see: a bad $RBL_SEED, and experiment settings from a config."""


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
    # the row dataclasses are flat, so one dict of their fields, with no deep copy
    return [
        {f.name: getattr(row, f.name) for f in fields(row)} if is_dataclass(row) else row
        for row in table.rows
    ]


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


def _int_or_text(text: str):
    """``text`` as an int, or as it is: ExperimentConfig's rule then refuses it by its key."""
    try:
        return int(text)
    except ValueError:
        return text


def _int_list(text: str) -> tuple:
    return tuple(map(_int_or_text, text.split(",")))


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
    """The CLI's parser, built once per process: parsing leaves it unchanged.

    Each command has its own parser that takes exactly the flags it reads, so argparse refuses
    any other; an experiment's config file may also give its settings, so it names a missing
    one itself. Flags are spelled in full: an abbreviation could read as another flag of the
    command (``--t`` as ``--theta``).
    """
    parser = argparse.ArgumentParser(
        prog="rbtrees",
        description="Sample record-biased permutations/trees and evaluate their exact laws and bounds.",
        allow_abbrev=False,
    )
    groups = parser.add_subparsers(dest="command", required=True)
    size = _flag("n", check_int)
    theta = _flag("theta", check_real, parse_theta_value, least=0.0, rule="finite and >= 0")
    t, epsilon, big_m = (
        _flag(name, check_real, float, rule="finite") for name in ("t", "epsilon", "M")
    )

    def add_io(p):
        p.add_argument("--seed", type=_seed, default=None, help="u64 seed (default: $RBL_SEED or 0)")
        p.add_argument("--out", default=None, help="output file path (default: stdout)")
        p.add_argument("--format", choices=["csv", "json"], default=None)

    def add_group(name, help_text):
        group = groups.add_parser(name, help=help_text, allow_abbrev=False)
        return group.add_subparsers(dest="what", required=True)

    def add_leaf(commands, what):
        # main reports a UsageError through the parser of the command that ran
        p = commands.add_parser(what, allow_abbrev=False)
        p.set_defaults(error=p.error)
        return p

    def add_command(commands, what, model=True):
        p = add_leaf(commands, what)
        if model:
            p.add_argument("--n", type=size, required=True)
            p.add_argument("--theta", type=theta, default=DEFAULT_THETA)
        add_io(p)
        return p

    sample = add_group("sample", "draw permutations, trees, or height statistics")
    for what, methods in (
        ("perm", ["sequential"]),
        ("tree", ["sequential", "recursive"]),
        ("height", ["sequential", "recursive"]),
    ):
        p = add_command(sample, what)
        p.add_argument("--trials", type=_flag("trials", check_int, least=1), default=1)
        p.add_argument("--method", choices=methods, default=methods[-1])

    exact = add_group("exact", "closed-form quantities and the enumeration oracle")
    add_command(exact, "mu")
    add_command(exact, "cstar", model=False)
    add_command(exact, "split-pmf").add_argument("--k", type=_flag("k", check_int, least=1))
    add_command(exact, "records-mgf").add_argument("--t", type=t, default=0.0)
    add_command(exact, "enumerate")

    bound = add_group("bound", "tail bound evaluators")
    add_command(bound, "chernoff").add_argument("--epsilon", type=epsilon, required=True)
    p = add_command(bound, "profile-tail")
    p.add_argument("--epsilon", type=epsilon, required=True)
    p.add_argument("--M", type=big_m, required=True)
    p.add_argument("--k", type=_flag("k", check_int), required=True)
    p = add_command(bound, "height-tail")
    p.add_argument("--eta", type=_flag("eta", check_int), required=True)
    p.add_argument("--t", type=t, default=math.log(2.0 * math.e))

    experiment = add_group("experiment", "Monte Carlo experiment drivers")
    threads = _flag("threads", check_int, least=1)

    def add_experiment(what):
        p = add_leaf(experiment, what)
        p.add_argument("--config", default=None, help="JSON config mirroring ExperimentConfig")
        p.add_argument("--n-values", type=_int_list, default=None)
        p.add_argument("--theta-spec", default=None)
        p.add_argument("--trials", type=_int_or_text, default=None)
        p.add_argument("--threads", type=threads, help="accepted for compatibility; no effect")
        add_io(p)
        return p

    add_experiment("height-ratio")
    add_experiment("record-concentration").add_argument("--epsilon", type=epsilon, default=None)
    add_experiment("dominance").add_argument("--j-values", type=_int_list, default=None)

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


def _sample_rows(args, flags: dict, seed: int) -> list:
    what, n, theta, trials, method = args.what, args.n, args.theta, args.trials, args.method
    if what == "perm":
        if n > MAX_PERM_TABLE_N:
            raise ValueError(
                "sample perm tabulates distinct permutations and requires "
                f"n <= {MAX_PERM_TABLE_N}; use 'sample height' for large n"
            )
        params = RbParams(n, theta)
        head = {"n": n, "theta": theta, "trials": trials}
        return _tally(
            lambda rng: sample_sequential(params, rng).values,
            lambda values: {**head, "perm": "-".join(str(v) for v in values)},
            trials,
            seed,
        )
    if what == "tree":
        _check_size(n, "sample tree", "use 'sample height' for large n")
        params = RbParams(n, theta)

        def draw_tree(rng) -> tuple[int, int, int]:
            if method == "sequential":
                # the first value inserted is the root, and the records make its rightmost path
                perm = sample_sequential(params, rng)
                root_label = perm.values[0] if n else 0
                return insertion_height(perm.values), record_count_perm(perm), root_label
            tree = sample_tree_recursive(params, rng)
            root_label = tree.labels[tree.root] if not tree.is_empty else 0
            return height(tree), record_count_tree(tree), root_label

        names = ("height", "records", "root_label")
        return _tally(draw_tree, lambda key: {**flags, **dict(zip(names, key))}, trials, seed)
    if method == "sequential":
        _check_size(n, "sample height --method sequential", "use 'sample height' for large n")
    config = ExperimentConfig(n_values=(n,), theta_spec=theta, trials=trials, seed=seed)
    return run_height_ratio(config, method=method)


def _exact_rows(args, flags: dict, seed: int) -> list:
    what = args.what
    if what == "cstar":
        return [{"n": 0, "theta": 0.0, "quantity": "c_star", "value": c_star(), "seed": seed}]
    if what == "mu":
        return [{**flags, "quantity": "mu", "value": mu(args.n, args.theta), "seed": seed}]
    rb = RbParams(args.n, args.theta)
    if what == "records-mgf":
        return [{**flags, "value": records_mgf(rb, args.t), "seed": seed}]
    if what == "split-pmf":
        if args.k is not None:
            pmf = {args.k: root_split_pmf(rb, args.k)}
        else:
            _check_size(args.n, "exact split-pmf", "pass --k for one probability")
            pmf = dict(enumerate(root_split_distribution(rb), start=1))
        return [{**flags, "k": k, "probability": p, "seed": seed} for k, p in pmf.items()]
    laws = enumerate_exact(rb)
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
                {**flags, "law": law_name, "outcome": outcome, "probability": prob, "seed": seed}
            )
    return rows


def _bound_rows(args, flags: dict, seed: int) -> list:
    rb = RbParams(args.n, args.theta)
    if args.what == "chernoff":
        values = chernoff_record_tail(rb, args.epsilon)
        return [
            {**flags, "side": side, "value": value, "seed": seed}
            for side, value in zip(("upper", "lower", "two_sided"), values)
        ]
    if args.what == "profile-tail":
        C, lam = profile_tail_constants(args.theta, args.epsilon)
        value = left_profile_tail_bound(rb, args.epsilon, args.M, args.k)
        return [{**flags, "C": C, "lam": lam, "value": value, "seed": seed}]
    sample = sample_height_only(rb, RandomSource(seed, 0))
    value = conditional_height_tail_bound(LeftProfile(sample.sizes.tolist()), args.eta, args.t)
    return [{**flags, "records": sample.records, "value": value, "seed": seed}]


_ROWS = {"sample": _sample_rows, "exact": _exact_rows, "bound": _bound_rows}
# namespace entries that are not a command's own flags
_NOT_FLAGS = ("command", "what", "seed", "out", "format", "error")


# each experiment setting names a config key and the dest of the flag that overrides it
_EXPERIMENT_SETTINGS = tuple(f.name for f in fields(ExperimentConfig) if f.init)


def _cmd_experiment(args, seed) -> OutputTable:
    """Run one experiment on the settings its parser declares, which are also its config keys.

    A flag overrides its key; all but seed and j_values are required, and a null is refused.
    """
    keys = [k for k in vars(args) if k in _EXPERIMENT_SETTINGS]
    settings: dict = {}
    if args.config is not None:
        try:
            with open(args.config, "r", encoding="utf-8") as handle:
                settings = json.load(handle)
        except OSError as exc:
            raise ValueError(f"cannot read {args.config}: {exc}") from exc
        except (json.JSONDecodeError, UnicodeDecodeError) as exc:
            raise ValueError(f"bad JSON in {args.config}: {exc}") from exc
        if not isinstance(settings, dict):
            raise ValueError(f"{args.config} must hold a JSON object")
        unknown = set(settings) - set(keys)
        if unknown:
            raise UsageError(f"unknown config fields: {sorted(unknown)}")
        for key, value in settings.items():
            if value is None:
                raise ValueError(f"{key} in {args.config} is null: give a value or leave it out")
    settings.update((k, getattr(args, k)) for k in keys if getattr(args, k) is not None)
    missing = [k for k in keys if k not in settings and k not in ("seed", "j_values")]
    if missing:
        raise UsageError(f"experiment {args.what} requires {', '.join(missing)} (flags or config)")
    config = ExperimentConfig(**{"seed": seed, **settings})
    what = args.what
    progress = functools.partial(print, file=sys.stderr)
    if what == "height-ratio":
        rows = run_height_ratio(config, progress=progress)
    elif what == "record-concentration":
        rows = run_record_concentration(config, progress=progress)
    else:
        rows = run_dominance_check(config, progress=progress)
    given = {k: getattr(config, k) for k in keys if k != "seed" and getattr(config, k) is not None}
    params = {"what": what, **given, "theta_spec": str(config.theta_spec)}
    return OutputTable(f"experiment {what}", params, config.seed, rows)


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        if args.out is not None:
            # refuse an unwritable --out before any draw; appending changes no existing file, and
            # a file the probe makes (through a dangling link too) is removed, so none is left
            made = not os.path.exists(args.out)
            try:
                open(args.out, "a", encoding="utf-8").close()
            except OSError as exc:
                raise ValueError(f"cannot write {args.out}: {exc}") from exc
            if made:
                os.remove(os.path.realpath(args.out))
        seed = _resolve_seed(args.seed)
        if args.command == "experiment":
            table = _cmd_experiment(args, seed)
        else:
            # the command's flags in declaration order, which params and each row start with
            flags = {k: v for k, v in vars(args).items() if k not in _NOT_FLAGS and v is not None}
            rows = _ROWS[args.command](args, flags, seed)
            params = {"what": args.what, **flags}
            table = OutputTable(f"{args.command} {args.what}", params, seed, rows)
        if table.command in SCALAR_COMMANDS and args.out is None and args.format is None:
            sys.stdout.write(repr(table.rows[0]["value"]) + "\n")
            return 0
        emit(table, args.format or "csv", args.out)
        return 0
    except UsageError as exc:
        args.error(str(exc))
    except (ValueError, OverflowError, MemoryError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
