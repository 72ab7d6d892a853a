"""CLI behavior: outputs, determinism, seeds, and exit codes."""

import contextlib
import csv
import dataclasses
import io
import json
import math

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from rbtrees.cli import OutputTable, build_parser, emit, main
from rbtrees.analytics import c_star, mu, root_split_distribution
from rbtrees.experiments import TrialSummary
from rbtrees.model import RbParams


def run_cli(argv, capsys):
    code = main(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def parse_csv(text):
    return list(csv.DictReader(io.StringIO(text)))


class TestExactCommands:
    def test_mu_prints_value(self, capsys):
        code, out, _ = run_cli(["exact", "mu", "--n", "3", "--theta", "1"], capsys)
        assert code == 0
        assert out == "1.8333333333333333\n"

    def test_cstar_prefix(self, capsys):
        code, out, _ = run_cli(["exact", "cstar"], capsys)
        assert code == 0
        assert out.startswith("4.311")
        assert float(out) == c_star()

    def test_rational_theta(self, capsys):
        code, out, _ = run_cli(["exact", "mu", "--n", "10", "--theta", "1/2"], capsys)
        assert code == 0
        assert float(out) == mu(10, 0.5)

    def test_split_pmf_table(self, capsys):
        code, out, _ = run_cli(
            ["exact", "split-pmf", "--n", "5", "--theta", "2"], capsys
        )
        assert code == 0
        rows = parse_csv(out)
        assert len(rows) == 5
        pmf = root_split_distribution(RbParams(5, 2.0))
        for row, expected in zip(rows, pmf):
            assert float(row["probability"]) == expected
        assert rows[0]["command"] == "exact split-pmf"

    def test_records_mgf_at_zero(self, capsys):
        code, out, _ = run_cli(
            ["exact", "records-mgf", "--n", "9", "--theta", "2", "--t", "0"], capsys
        )
        assert code == 0
        assert float(out) == 1.0

    def test_records_mgf_far_below_zero_underflows(self, capsys):
        # at theta = 1e17 every step's record chance rounds to 1, not only the last one's
        for theta in ("1", "1e17"):
            argv = ["exact", "records-mgf", "--n", "3", "--theta", theta, "--t", "-800"]
            assert run_cli(argv, capsys) == (0, "0.0\n", "")

    def test_enumerate_probabilities_sum(self, capsys):
        code, out, _ = run_cli(["exact", "enumerate", "--n", "4", "--theta", "2"], capsys)
        assert code == 0
        rows = parse_csv(out)
        by_law = {}
        for row in rows:
            by_law.setdefault(row["law"], []).append(float(row["probability"]))
        assert set(by_law) == {"record", "first_value", "left_subtree_size", "height", "profile"}
        for probs in by_law.values():
            assert math.fsum(probs) == pytest.approx(1.0, abs=1e-12)


class TestSampleCommands:
    def test_perm_frequency_s2(self, capsys):
        code, out, _ = run_cli(
            ["sample", "perm", "--n", "2", "--theta", "2", "--trials", "600000", "--seed", "7"],
            capsys,
        )
        assert code == 0
        rows = {row["perm"]: row for row in parse_csv(out)}
        freq = float(rows["1-2"]["frequency"])
        p = 2 / 3
        se = math.sqrt(p * (1 - p) / 600000)
        assert abs(freq - p) <= 3 * se
        assert int(rows["1-2"]["count"]) + int(rows["2-1"]["count"]) == 600000
        assert rows["1-2"]["seed"] == "7"

    def test_perm_rejects_large_n(self, capsys):
        code, _, err = run_cli(["sample", "perm", "--n", "50", "--trials", "5"], capsys)
        assert code == 1
        assert "error:" in err

    def test_tree_table_fields(self, capsys):
        code, out, _ = run_cli(
            ["sample", "tree", "--n", "4", "--theta", "1", "--trials", "500", "--seed", "3"],
            capsys,
        )
        assert code == 0
        rows = parse_csv(out)
        assert sum(int(r["count"]) for r in rows) == 500
        assert all(r["method"] == "recursive" for r in rows)
        assert all(int(r["height"]) >= int(r["records"]) - 1 for r in rows)

    def test_height_summary_row(self, capsys):
        code, out, _ = run_cli(
            ["sample", "height", "--n", "200", "--theta", "2", "--trials", "50", "--seed", "5"],
            capsys,
        )
        assert code == 0
        rows = parse_csv(out)
        assert len(rows) == 1
        row = rows[0]
        assert row["command"] == "sample height"
        assert int(row["n"]) == 200
        assert float(row["mean_height"]) > 0
        assert 0 < float(row["ratio_height_norm"]) < 2

    def test_height_at_theta_zero_has_one_record(self, capsys):
        argv = ["sample", "height", "--n", "50", "--theta", "0", "--trials", "20"]
        code, out, _ = run_cli(argv, capsys)
        assert code == 0
        row = parse_csv(out)[0]
        assert row["mean_records"] == "1.0" and row["ratio_records_mu"] == "1.0"

    def test_height_sequential_method(self, capsys):
        code, out, _ = run_cli(
            [
                "sample", "height", "--n", "64", "--trials", "40",
                "--seed", "2", "--method", "sequential",
            ],
            capsys,
        )
        assert code == 0
        assert len(parse_csv(out)) == 1


class TestBoundCommands:
    def test_chernoff_rows(self, capsys):
        code, out, _ = run_cli(
            ["bound", "chernoff", "--n", "100", "--theta", "2", "--epsilon", "0.5"], capsys
        )
        assert code == 0
        rows = {r["side"]: float(r["value"]) for r in parse_csv(out)}
        assert set(rows) == {"upper", "lower", "two_sided"}
        assert rows["two_sided"] <= rows["upper"] + rows["lower"]

    def test_profile_tail_value(self, capsys):
        code, out, _ = run_cli(
            [
                "bound", "profile-tail", "--n", "10000", "--theta", "2",
                "--epsilon", "0.1", "--M", "4.0", "--k", "5",
            ],
            capsys,
        )
        assert code == 0
        row = parse_csv(out)[0]
        assert float(row["value"]) > 0
        assert float(row["lam"]) == pytest.approx(0.5)

    def test_profile_tail_precondition_exit_1(self, capsys):
        code, _, err = run_cli(
            [
                "bound", "profile-tail", "--n", "10", "--theta", "2",
                "--epsilon", "0.6", "--M", "1.0", "--k", "2",
            ],
            capsys,
        )
        assert code == 1
        assert "error:" in err

    def test_height_tail_row(self, capsys):
        code, out, _ = run_cli(
            ["bound", "height-tail", "--n", "500", "--theta", "2", "--eta", "40", "--seed", "9"],
            capsys,
        )
        assert code == 0
        row = parse_csv(out)[0]
        assert float(row["value"]) >= 0.0
        assert int(row["records"]) >= 1

    def test_height_tail_underflows_to_zero(self, capsys):
        # each term is about e^-778000, though the factor (k_j + 1)^(e^t - 1) alone overflows
        code, out, err = run_cli(
            ["bound", "height-tail", "--n", "1000", "--eta", "100000", "--t", "10"], capsys
        )
        assert (code, err) == (0, "")
        assert parse_csv(out)[0]["value"] == "0.0"


class TestExperimentCommand:
    def test_inline_height_ratio(self, capsys):
        code, out, err = run_cli(
            [
                "experiment", "height-ratio", "--n-values", "50,100",
                "--theta-spec", "constant:1", "--trials", "60", "--seed", "3",
                "--threads", "1",
            ],
            capsys,
        )
        assert code == 0
        rows = parse_csv(out)
        assert [int(r["n"]) for r in rows] == [50, 100]
        assert "height-ratio" in err  # progress on stderr

    def test_height_ratio_per_spec_form_to_csv(self, tmp_path, capsys):
        for spec, thetas in (("constant:1", [1.0, 1.0]), ("linear:1", [10.0, 40.0])):
            path = tmp_path / f"height_{spec.replace(':', '_')}.csv"
            code, out, _ = run_cli(
                [
                    "experiment", "height-ratio", "--n-values", "10,40", "--theta-spec", spec,
                    "--trials", "4", "--out", str(path),
                ],
                capsys,
            )
            assert (code, out) == (0, "")
            rows = parse_csv(path.read_text())
            assert [int(r["n"]) for r in rows] == [10, 40]
            assert [float(r["theta"]) for r in rows] == thetas
            assert all(float(r["mean_height"]) >= 1.0 for r in rows)

    def test_config_file(self, tmp_path, capsys):
        config = tmp_path / "config.json"
        config.write_text(
            json.dumps(
                {
                    "n_values": [40, 80],
                    "theta_spec": "constant:2",
                    "trials": 30,
                    "seed": 11,
                    "epsilon": 0.8,
                }
            )
        )
        code, out, _ = run_cli(
            ["experiment", "record-concentration", "--config", str(config), "--threads", "1"],
            capsys,
        )
        assert code == 0
        rows = parse_csv(out)
        assert len(rows) == 2
        assert all(r["seed"] == "11" for r in rows)

    def test_config_rejects_unknown_fields(self, tmp_path, capsys):
        config = tmp_path / "config.json"
        config.write_text(json.dumps({"n_values": [10], "theta_spec": 1, "trials": 5, "bogus": 1}))
        with pytest.raises(SystemExit) as excinfo:
            main(["experiment", "height-ratio", "--config", str(config)])
        assert excinfo.value.code == 2
        assert "bogus" in capsys.readouterr().err

    def test_record_concentration_at_theta_zero(self, capsys):
        code, out, _ = run_cli(
            [
                "experiment", "record-concentration", "--n-values", "10,1000", "--theta-spec", "0",
                "--trials", "200", "--epsilon", "0.5",
            ],
            capsys,
        )
        assert code == 0
        rows = parse_csv(out)
        assert len(rows) == 2 and all(r["mu"] == "1.0" and r["passed"] == "true" for r in rows)

    def test_dominance_inline(self, capsys):
        code, out, _ = run_cli(
            [
                "experiment", "dominance", "--n-values", "200", "--theta-spec", "2",
                "--trials", "2000", "--j-values", "0,1,2", "--seed", "4",
            ],
            capsys,
        )
        assert code == 0
        rows = parse_csv(out)
        assert [int(r["j"]) for r in rows] == [0, 1, 2]
        assert all(r["passed"] == "true" for r in rows)


class TestDeterminism:
    def test_csv_and_json_bytes_identical(self, tmp_path):
        argv_base = [
            "experiment", "height-ratio", "--n-values", "30,60",
            "--theta-spec", "constant:1", "--trials", "40", "--seed", "5",
            "--threads", "2",
        ]
        for fmt in ("csv", "json"):
            paths = [tmp_path / f"a.{fmt}", tmp_path / f"b.{fmt}"]
            for path in paths:
                code = main(argv_base + ["--format", fmt, "--out", str(path)])
                assert code == 0
            assert paths[0].read_bytes() == paths[1].read_bytes()

    def test_threads_flag_changes_no_byte(self, capsys):
        argv = ["experiment", "height-ratio", "--n-values", "30,2000", "--theta-spec", "constant:1",
                "--trials", "70", "--seed", "8"]
        outputs = []
        for extra in ([], ["--threads", "1"], ["--threads", "2"]):
            code, out, _ = run_cli(argv + extra, capsys)
            assert code == 0
            outputs.append(out)
        assert outputs[0] and outputs[0] == outputs[1] == outputs[2]

    def test_sample_output_identical(self, tmp_path):
        argv = ["sample", "tree", "--n", "5", "--theta", "1/2", "--trials", "300", "--seed", "21"]
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        assert main(argv + ["--out", str(a)]) == 0
        assert main(argv + ["--out", str(b)]) == 0
        assert a.read_bytes() == b.read_bytes()

    def test_json_round_trip_exact(self, tmp_path):
        path = tmp_path / "out.json"
        code = main(
            ["sample", "height", "--n", "100", "--theta", "2", "--trials", "25",
             "--seed", "13", "--format", "json", "--out", str(path)]
        )
        assert code == 0
        payload = json.loads(path.read_text())
        assert payload["command"] == "sample height"
        assert payload["seed"] == 13
        row = payload["rows"][0]
        # floats round-trip exactly through the JSON encoding
        text2 = json.dumps(payload)
        assert json.loads(text2)["rows"][0] == row
        assert isinstance(row["mean_height"], float)

    def test_csv_has_exactly_two_lines_for_single_row(self, tmp_path):
        path = tmp_path / "one.csv"
        assert main(["sample", "height", "--n", "10", "--trials", "5", "--out", str(path)]) == 0
        lines = path.read_text().split("\n")
        assert len(lines) == 3 and lines[2] == ""  # header, row, trailing newline


class TestParser:
    def test_built_once(self):
        assert build_parser() is build_parser()

    def test_repeated_calls_print_identical_bytes(self, capsys, monkeypatch):
        # the one parser keeps no state between calls: defaults come back after a flag set them
        monkeypatch.delenv("RBL_SEED", raising=False)
        plain = ["sample", "height", "--n", "30", "--trials", "4"]
        seeded = plain + ["--seed", "7", "--theta", "3", "--format", "json"]
        first = [run_cli(argv, capsys) for argv in (plain, seeded)]
        assert [run_cli(argv, capsys) for argv in (plain, seeded, plain)] == [*first, first[0]]
        assert first[0][0] == 0 and first[0][1] != first[1][1]

    def test_usage_errors_still_exit_2(self, capsys):
        for _ in range(2):
            with pytest.raises(SystemExit) as excinfo:
                main(["bound", "chernoff", "--n", "10"])
            assert excinfo.value.code == 2
            assert "the following arguments are required: --epsilon" in capsys.readouterr().err


class TestSeeds:
    def test_env_seed_used_when_flag_absent(self, capsys, monkeypatch):
        monkeypatch.setenv("RBL_SEED", "99")
        code, out, _ = run_cli(["sample", "height", "--n", "20", "--trials", "5"], capsys)
        assert code == 0
        assert parse_csv(out)[0]["seed"] == "99"

    def test_flag_overrides_env(self, capsys, monkeypatch):
        monkeypatch.setenv("RBL_SEED", "99")
        code, out, _ = run_cli(
            ["sample", "height", "--n", "20", "--trials", "5", "--seed", "1"], capsys
        )
        assert code == 0
        assert parse_csv(out)[0]["seed"] == "1"

    def test_default_seed_zero(self, capsys, monkeypatch):
        monkeypatch.delenv("RBL_SEED", raising=False)
        code, out, _ = run_cli(["sample", "height", "--n", "20", "--trials", "5"], capsys)
        assert code == 0
        assert parse_csv(out)[0]["seed"] == "0"

    @pytest.mark.parametrize("env", ("-1", "abc", str(2**64)))
    def test_bad_env_seed_exits_2_with_the_flags_rule(self, capsys, monkeypatch, env):
        monkeypatch.setenv("RBL_SEED", env)
        with pytest.raises(SystemExit) as excinfo:
            main(["sample", "height", "--n", "20", "--trials", "5"])
        assert excinfo.value.code == 2
        err = capsys.readouterr().err
        assert err.startswith("usage: rbtrees sample height [-h] --n N")
        last = err.splitlines()[-1]
        assert last.startswith(f"rbtrees sample height: error: $RBL_SEED: bad seed {env!r}: seed must be an ")


# (argv, flag, values its rule refuses): every flag whose argparse type is the shared rule
_INTS = ("-1", "abc", "nan", "inf", "2.5")
_COUNTS = ("0", "-1", "abc", "nan", "inf")
_FINITE = ("abc", "nan", "inf", "1e999")
_SEEDS = ("-1", "abc", "nan", "inf", str(2**64))
_EXPERIMENT = [
    "experiment", "height-ratio", "--n-values", "10", "--theta-spec", "1", "--trials", "3",
]
_ROUTED_FLAGS = (
    (["sample", "height"], "--n", _INTS),
    (["exact", "mu"], "--n", _INTS),
    (["bound", "chernoff", "--epsilon", "0.5"], "--n", _INTS),
    (["bound", "height-tail", "--n", "10"], "--eta", _INTS),
    (["sample", "height", "--n", "5"], "--trials", _COUNTS),
    (_EXPERIMENT, "--threads", _COUNTS),
    (["sample", "height", "--n", "5"], "--seed", _SEEDS),
    (_EXPERIMENT, "--seed", _SEEDS),
    (["bound", "chernoff", "--n", "5", "--epsilon", "0.5"], "--theta", ("-1", *_FINITE)),
    (["exact", "records-mgf", "--n", "3"], "--t", _FINITE),
    (["bound", "height-tail", "--n", "10", "--eta", "5"], "--t", _FINITE),
    (["bound", "chernoff", "--n", "10"], "--epsilon", _FINITE),
    (["experiment", "record-concentration", *_EXPERIMENT[2:]], "--epsilon", _FINITE),
    (["bound", "profile-tail", "--n", "10", "--epsilon", "0.1", "--k", "2"], "--M", _FINITE),
    (["exact", "split-pmf", "--n", "5"], "--k", ("0", *_INTS)),
    (["bound", "profile-tail", "--n", "10", "--epsilon", "0.1", "--M", "3"], "--k", _INTS),
)
# the flags that some commands of a group read and others do not, and a value for each flag
_GROUP_FLAGS = {
    "exact": ("--n", "--theta", "--t", "--k"),
    "bound": ("--n", "--theta", "--epsilon", "--M", "--k", "--eta", "--t"),
    "experiment": ("--epsilon", "--j-values"),
}
_VALUES = {
    "--n": "5", "--theta": "2", "--t": "0.5", "--k": "2", "--epsilon": "0.5", "--M": "3", "--eta": "4",
    "--n-values": "10", "--theta-spec": "1", "--trials": "3", "--j-values": "1,2",
}
# the config value of each experiment setting that the flag's value above stands for
_CONFIG_VALUES = {"n_values": [10], "theta_spec": 1, "trials": 3, "epsilon": 0.5, "j_values": [1, 2]}
# (required flags, optional flags) of each command; all of them also take --seed, --out, --format
_SAMPLE_FLAGS = (("--n",), ("--theta", "--trials", "--method", "--seed"))
_EXPERIMENT_FLAGS = ("--n-values", "--theta-spec", "--trials")
_COMMANDS = {
    ("sample", "perm"): _SAMPLE_FLAGS,
    ("sample", "tree"): _SAMPLE_FLAGS,
    ("sample", "height"): _SAMPLE_FLAGS,
    ("exact", "mu"): (("--n",), ("--theta",)),
    ("exact", "cstar"): ((), ()),
    ("exact", "split-pmf"): (("--n",), ("--theta", "--k")),
    ("exact", "records-mgf"): (("--n",), ("--theta", "--t")),
    ("exact", "enumerate"): (("--n",), ("--theta",)),
    ("bound", "chernoff"): (("--n", "--epsilon"), ("--theta", "--seed")),
    ("bound", "profile-tail"): (("--n", "--epsilon", "--M", "--k"), ("--theta", "--seed")),
    ("bound", "height-tail"): (("--n", "--eta"), ("--theta", "--t", "--seed")),
    ("experiment", "height-ratio"): (_EXPERIMENT_FLAGS, ("--seed",)),
    ("experiment", "record-concentration"): ((*_EXPERIMENT_FLAGS, "--epsilon"), ("--seed",)),
    ("experiment", "dominance"): (_EXPERIMENT_FLAGS, ("--j-values", "--seed")),
}

# every run below names --out out.csv, which a refused input must never create
_HEIGHT_RATIO = [
    "experiment", "height-ratio", "--n-values", "10,20", "--theta-spec", "1", "--trials", "2",
    "--out", "out.csv",
]
_RECORDS = ["experiment", "record-concentration", *_HEIGHT_RATIO[2:], "--epsilon", "0.5"]
_DOMINANCE = ["experiment", "dominance", *_HEIGHT_RATIO[2:]]
_PROFILE_TAIL = [
    "bound", "profile-tail", "--n", "100", "--epsilon", "0.1", "--M", "3", "--k", "2",
    "--out", "out.csv",
]
# (argv, exit code, last line of stderr) for a rule of each setting, each checked before the
# first draw; a repeated flag's last value is the one read
_RULES = (
    pytest.param([*_RECORDS, "--epsilon", "0"], 1,
                 "error: epsilon must be a finite positive number, got 0.0", id="epsilon"),
    pytest.param([*_DOMINANCE, "--theta-spec", "0"], 1, "error: theta must be positive", id="theta"),
    pytest.param([*_PROFILE_TAIL, "--theta", "20"], 1,
                 "error: epsilon * theta must be < 1, got 2.0", id="profile-epsilon-theta"),
    pytest.param([*_DOMINANCE, "--j-values", "-1"], 1,
                 "error: j_values[0] must be an integer >= 0, got -1", id="j-values"),
    pytest.param([*_PROFILE_TAIL, "--epsilon", "0"], 1,
                 "error: epsilon must be positive and finite, got 0.0", id="profile-epsilon"),
    pytest.param([*_HEIGHT_RATIO, "--trials", "0"], 1,
                 "error: trials must be in [1, 2**32), got 0", id="trials"),
    pytest.param([*_HEIGHT_RATIO, "--seed", "-1"], 2,
                 "rbtrees experiment height-ratio: error: argument --seed: bad seed '-1': "
                 "seed must be an unsigned 64-bit integer, got -1", id="seed"),
    pytest.param([*_HEIGHT_RATIO, "--n-values", "10,abc"], 1,
                 "error: n_values[1] must be an integer >= 1, got 'abc'", id="n-values-integer"),
    pytest.param([*_HEIGHT_RATIO, "--n-values", "20,10"], 1,
                 "error: n_values must be strictly increasing", id="n-values-increasing"),
    pytest.param([*_HEIGHT_RATIO, "--theta-spec", "bogus:1"], 1,
                 "error: unknown theta spec tag 'bogus'", id="theta-spec-tag"),
)


def _key(flag):
    """The config key of an experiment flag."""
    return flag[2:].replace("-", "_")


def _config(tmp_path, settings):
    path = tmp_path / "config.json"
    path.write_text(json.dumps(settings))
    return str(path)


# the one experiment command that reads each setting that not all of them read
_READER = {"epsilon": "record-concentration", "j_values": "dominance"}


def _config_argv(tmp_path, key, value):
    """The argv of the experiment that reads ``key``, its config giving key = value and the
    command's other required settings."""
    command = ("experiment", _READER.get(key, "height-ratio"))
    settings = {_key(f): _CONFIG_VALUES[_key(f)] for f in _COMMANDS[command][0]}
    return [*command, "--config", _config(tmp_path, {**settings, key: value})]


def _missing(command, flag):
    """The usage error of ``command`` run without its required ``flag``."""
    if command[0] == "experiment":
        return f"{' '.join(command)} requires {_key(flag)} (flags or config)"
    return f"the following arguments are required: {flag}"


# (command, flag) of each flag of the command's group that the command does not read
_UNREAD = [
    (command, flag)
    for command, (required, optional) in _COMMANDS.items()
    for flag in _GROUP_FLAGS.get(command[0], ())
    if flag not in required + optional
]
# (command, flag) of each required flag of each command
_REQUIRED = [(command, flag) for command, (required, _) in _COMMANDS.items() for flag in required]


def _params(pairs):
    return [pytest.param(command, flag, id=f"{' '.join(command)} {flag}") for command, flag in pairs]


def _with_values(command, flags):
    return [*command, *(word for flag in flags for word in (flag, _VALUES[flag]))]


class TestErrors:
    @pytest.mark.parametrize(
        "argv,flag,text",
        [
            pytest.param(argv, flag, text, id=f"{argv[0]} {argv[1]} {flag} {text}")
            for argv, flag, texts in _ROUTED_FLAGS
            for text in texts
        ],
    )
    def test_routed_flag_states_its_rule_and_exits_2(self, capsys, argv, flag, text):
        with pytest.raises(SystemExit) as excinfo:
            main([*argv, flag, text])
        assert excinfo.value.code == 2
        err = capsys.readouterr().err
        name = flag[2:]
        lines = [line for line in err.splitlines() if f"argument {flag}: " in line]
        assert len(lines) == 1 and "Traceback" not in err
        assert f"argument {flag}: bad {name} {text!r}: {name} must be " in lines[0]

    @pytest.mark.parametrize("argv,code,line", _RULES)
    def test_rule_states_itself_in_one_line_and_writes_nothing(
        self, tmp_path, capsys, monkeypatch, argv, code, line
    ):
        monkeypatch.chdir(tmp_path)
        (tmp_path / "taken").touch()
        try:
            got = main(argv)
        except SystemExit as exc:
            got = exc.code
        out, err = capsys.readouterr()
        assert (got, out) == (code, "")
        assert "Traceback" not in err
        assert err.splitlines()[-1] == line
        if code == 1:
            assert err == f"{line}\n"
        assert not (tmp_path / "out.csv").exists()

    def test_out_under_a_file_names_its_path_and_writes_nothing(self, tmp_path, capsys, monkeypatch):
        monkeypatch.chdir(tmp_path)
        (tmp_path / "taken").touch()
        code, out, err = run_cli([*_HEIGHT_RATIO, "--out", "taken/out.csv"], capsys)
        assert (code, out) == (1, "")
        line = "error: cannot write taken/out.csv: [Errno 20] Not a directory: 'taken/out.csv'"
        # the one line, before any draw: no progress line comes first
        assert err == f"{line}\n"
        assert (tmp_path / "taken").read_bytes() == b""

    def test_failed_run_leaves_an_existing_out_as_it_was(self, tmp_path, capsys, monkeypatch):
        monkeypatch.chdir(tmp_path)
        (tmp_path / "out.csv").write_bytes(b"old\n")
        code, out, err = run_cli([*_HEIGHT_RATIO, "--trials", "0"], capsys)
        assert (code, out, err) == (1, "", "error: trials must be in [1, 2**32), got 0\n")
        assert (tmp_path / "out.csv").read_bytes() == b"old\n"

    def test_failed_run_makes_no_file_through_a_dangling_link(self, tmp_path, capsys, monkeypatch):
        monkeypatch.chdir(tmp_path)
        (tmp_path / "out.csv").symlink_to("target.csv")
        assert run_cli([*_HEIGHT_RATIO, "--trials", "0"], capsys)[0] == 1
        assert sorted(p.name for p in tmp_path.iterdir()) == ["out.csv"]
        assert (tmp_path / "out.csv").is_symlink() and not (tmp_path / "target.csv").exists()

    @pytest.mark.parametrize("command,flag", _params(_UNREAD))
    def test_flag_the_command_does_not_read_exits_2(self, capsys, command, flag):
        argv = _with_values(command, _COMMANDS[command][0])
        assert run_cli(argv, capsys)[0] == 0
        with pytest.raises(SystemExit) as excinfo:
            main([*argv, flag, _VALUES[flag]])
        assert excinfo.value.code == 2
        lines = [line for line in capsys.readouterr().err.splitlines() if "error:" in line]
        assert lines == [f"rbtrees: error: unrecognized arguments: {flag} {_VALUES[flag]}"]

    @pytest.mark.parametrize("command,flag", _params(c for c in _UNREAD if c[0][0] == "experiment"))
    def test_config_key_the_command_does_not_read_exits_2(self, tmp_path, capsys, command, flag):
        # the config key of a flag the command refuses is refused the same way
        argv = _with_values(command, _COMMANDS[command][0])
        with pytest.raises(SystemExit) as excinfo:
            main([*argv, "--config", _config(tmp_path, {_key(flag): _CONFIG_VALUES[_key(flag)]})])
        assert excinfo.value.code == 2
        lines = [line for line in capsys.readouterr().err.splitlines() if "error:" in line]
        assert lines == [f"rbtrees {' '.join(command)}: error: unknown config fields: [{_key(flag)!r}]"]

    @pytest.mark.parametrize("command,flag", _params(_REQUIRED))
    def test_missing_required_flag_is_named_and_exits_2(self, capsys, command, flag):
        with pytest.raises(SystemExit) as excinfo:
            main(_with_values(command, [f for f in _COMMANDS[command][0] if f != flag]))
        assert excinfo.value.code == 2
        lines = [line for line in capsys.readouterr().err.splitlines() if "error:" in line]
        assert len(lines) == 1
        assert lines[0].endswith(f"error: {_missing(command, flag)}")

    @pytest.mark.parametrize("command,flag", _params(c for c in _REQUIRED if c[0][0] == "experiment"))
    def test_missing_config_setting_is_named_and_exits_2(self, tmp_path, capsys, command, flag):
        given = {_key(f): _CONFIG_VALUES[_key(f)] for f in _COMMANDS[command][0] if f != flag}
        with pytest.raises(SystemExit) as excinfo:
            main([*command, "--config", _config(tmp_path, given)])
        assert excinfo.value.code == 2
        lines = [line for line in capsys.readouterr().err.splitlines() if "error:" in line]
        assert lines == [f"rbtrees {' '.join(command)}: error: {_missing(command, flag)}"]

    @pytest.mark.parametrize("command,flag", _params(_REQUIRED))
    def test_usage_line_names_the_command(self, capsys, command, flag):
        # a missing flag that argparse finds and one the CLI finds print the command's usage
        with pytest.raises(SystemExit) as excinfo:
            main(_with_values(command, [f for f in _COMMANDS[command][0] if f != flag]))
        assert excinfo.value.code == 2
        assert capsys.readouterr().err.startswith(f"usage: rbtrees {' '.join(command)} [-h] ")

    def test_unknown_flag_exits_2(self, capsys):
        with pytest.raises(SystemExit) as excinfo:
            main(["exact", "mu", "--n", "3", "--bogus", "1"])
        assert excinfo.value.code == 2

    def test_unknown_subcommand_exits_2(self, capsys):
        with pytest.raises(SystemExit) as excinfo:
            main(["exact", "tau", "--n", "3"])
        assert excinfo.value.code == 2

    def test_bad_theta_exits_2(self, capsys):
        with pytest.raises(SystemExit) as excinfo:
            main(["exact", "mu", "--n", "3", "--theta", "-1"])
        assert excinfo.value.code == 2

    def test_missing_required_inputs_exit_2(self, capsys):
        with pytest.raises(SystemExit) as excinfo:
            main(["bound", "chernoff", "--n", "10", "--theta", "1"])
        assert excinfo.value.code == 2

    def test_tolerances_key_exits_2(self, tmp_path, capsys):
        # tolerances was a config field; the record-concentration multiplier is now a fixed 3.0.
        config = tmp_path / "config.json"
        config.write_text(json.dumps({"n_values": [10], "theta_spec": 1, "trials": 5, "tolerances": [1]}))
        with pytest.raises(SystemExit) as excinfo:
            main(["experiment", "height-ratio", "--config", str(config), "--threads", "1"])
        assert excinfo.value.code == 2
        assert "tolerances" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "field,value",
        (
            ("n_values", 5),
            ("n_values", [10, "20"]),
            ("trials", 2.5),
            ("trials", "30"),
            ("trials", 2**32),
            ("seed", True),
            ("epsilon", [0.5]),
            ("j_values", 3),
            ("theta_spec", True),
            ("epsilon", math.nan),
            ("epsilon", -math.inf),
        ),
    )
    def test_bad_config_value_exits_1(self, tmp_path, capsys, field, value):
        code, out, err = run_cli(_config_argv(tmp_path, field, value), capsys)
        assert code == 1
        assert out == ""
        assert err.startswith("error: ") and err.count("\n") == 1
        assert field in err

    @pytest.mark.parametrize(
        "flag,text,field,value,message",
        (
            pytest.param("--n-values", "10,abc", "n_values", [10, "abc"],
                         "n_values[1] must be an integer >= 1, got 'abc'", id="n-values"),
            pytest.param("--trials", "abc", "trials", "abc",
                         "trials must be in [1, 2**32), got 'abc'", id="trials"),
        ),
    )
    def test_unparsable_setting_exits_1_as_its_config_key(
        self, tmp_path, capsys, flag, text, field, value, message
    ):
        config = tmp_path / "config.json"
        config.write_text(json.dumps({"n_values": [10], "theta_spec": 1, "trials": 5, field: value}))
        via_config = run_cli(["experiment", "height-ratio", "--config", str(config)], capsys)
        argv = ["experiment", "height-ratio", "--n-values", "10", "--theta-spec", "1", "--trials", "5"]
        argv[argv.index(flag) + 1] = text
        assert run_cli(argv, capsys) == via_config == (1, "", f"error: {message}\n")

    @pytest.mark.parametrize("field", ("epsilon", "theta_spec"))
    def test_config_integer_past_the_float_range_exits_1(self, tmp_path, capsys, field):
        code, out, err = run_cli(_config_argv(tmp_path, field, 10**400), capsys)
        assert code == 1
        assert out == ""
        assert err == f"error: {field} is too large for a float\n"

    @pytest.mark.parametrize("field", ("n_values", "theta_spec", "trials", "seed", "epsilon", "j_values"))
    def test_null_config_value_exits_1(self, tmp_path, capsys, field):
        # a null is an input, not an absent key: it must not fall back to the default
        argv = _config_argv(tmp_path, field, None)
        code, out, err = run_cli(argv, capsys)
        assert (code, out) == (1, "")
        assert err == f"error: {field} in {argv[-1]} is null: give a value or leave it out\n"

    def test_undecodable_config_names_its_file(self, tmp_path, capsys):
        config = tmp_path / "config.json"
        config.write_bytes(b"\xff\xfe")
        code, out, err = run_cli(["experiment", "height-ratio", "--config", str(config)], capsys)
        assert (code, out) == (1, "")
        assert err.startswith(f"error: bad JSON in {config}: 'utf-8' codec can't decode byte 0xff")
        assert err.count("\n") == 1

    @pytest.mark.parametrize("via", ("flag", "config"))
    @pytest.mark.parametrize("spec", ("1/0", "constant:3/0", "power:1000", "power:-1000"))
    def test_bad_theta_spec_exits_1(self, tmp_path, capsys, spec, via):
        argv = ["experiment", "height-ratio", "--threads", "1"]
        if via == "flag":
            argv += ["--n-values", "10", "--theta-spec", spec, "--trials", "5"]
        else:
            config = tmp_path / "config.json"
            config.write_text(json.dumps({"n_values": [10], "theta_spec": spec, "trials": 5}))
            argv += ["--config", str(config)]
        code, out, err = run_cli(argv, capsys)
        assert code == 1
        assert out == ""
        assert err.startswith("error: ") and err.count("\n") == 1

    @pytest.mark.parametrize(
        "argv",
        (
            ["experiment", "record-concentration", "--n-values", "10", "--theta-spec", "1",
             "--trials", "3", "--epsilon", "nan"],
            ["bound", "chernoff", "--n", "10", "--epsilon", "inf"],
            ["bound", "profile-tail", "--n", "10", "--epsilon", "0.1", "--M", "nan", "--k", "2"],
            ["bound", "height-tail", "--n", "10", "--eta", "5", "--t", "inf"],
            ["exact", "records-mgf", "--n", "3", "--t", "nan"],
            # --threads has no effect, but a value below 1 is still rejected by its flag's type
            ["experiment", "height-ratio", "--n-values", "10", "--theta-spec", "1", "--trials", "3",
             "--threads", "0"],
            ["experiment", "height-ratio", "--n-values", "10", "--theta-spec", "1", "--trials", "3",
             "--threads", "-3"],
        ),
    )
    def test_non_finite_float_exits_2(self, capsys, argv):
        with pytest.raises(SystemExit) as excinfo:
            main(argv)
        assert excinfo.value.code == 2

    @pytest.mark.parametrize(
        "argv",
        (
            ["exact", "records-mgf", "--n", "3", "--t", "1000"],
            ["bound", "height-tail", "--n", "10", "--eta", "5", "--t", "1000"],
            ["bound", "profile-tail", "--n", "10", "--epsilon", "1e-320", "--M", "1", "--k", "0"],
            ["sample", "height", "--n", "0"],
            ["sample", "height", "--n", "0", "--method", "sequential"],
            ["experiment", "height-ratio", "--n-values", "0", "--theta-spec", "1", "--trials", "1"],
            ["sample", "tree", "--n", str(10**6 + 1)],
            ["sample", "height", "--n", str(10**6 + 1), "--method", "sequential"],
            ["exact", "split-pmf", "--n", str(10**6 + 1)],
            ["exact", "records-mgf", "--n", "3", "--t", "700"],
            ["bound", "height-tail", "--n", "1000", "--eta", "5", "--t", "10"],
            # fails at the last n only; nothing may be drawn or printed before the error
            ["experiment", "height-ratio", "--n-values", "10,1000,100000", "--theta-spec", "power:-70",
             "--trials", "20000", "--threads", "1"],
            ["exact", "enumerate", "--n", "9"],
            ["experiment", "record-concentration", "--n-values", "10", "--theta-spec", "1",
             "--trials", "1", "--epsilon", "0", "--threads", "1"],
            ["experiment", "dominance", "--n-values", "10", "--theta-spec", "1", "--trials", "1",
             "--j-values", "2,-1", "--threads", "1"],
            # a profile matrix of 3 x (10**12 + 1) int64 entries (21.8 TiB) cannot be allocated
            ["experiment", "dominance", "--n-values", "10", "--theta-spec", "1", "--trials", "3",
             "--j-values", "1000000000000"],
        ),
    )
    def test_out_of_range_value_exits_1(self, capsys, argv):
        code, out, err = run_cli(argv, capsys)
        assert code == 1
        assert out == ""
        assert err.startswith("error: ") and err.count("\n") == 1
        if "--t" in argv:
            assert f"t = {argv[argv.index('--t') + 1]}" in err
        if str(10**6 + 1) in argv:
            assert "'sample height'" in err or "--k" in err

    def test_empty_config_j_values_exits_1(self, tmp_path, capsys):
        # an empty list is an input, not an absent key: it must not fall back to j = 0..20
        config = tmp_path / "config.json"
        config.write_text(json.dumps({"n_values": [100], "theta_spec": 2, "trials": 100, "j_values": []}))
        code, out, err = run_cli(["experiment", "dominance", "--config", str(config)], capsys)
        assert code == 1
        assert out == ""
        assert err.startswith("error: ") and err.count("\n") == 1
        assert "j_values" in err

    def test_config_must_be_an_object(self, tmp_path, capsys):
        config = tmp_path / "config.json"
        config.write_text("[1, 2]")
        code, _, err = run_cli(["experiment", "height-ratio", "--config", str(config)], capsys)
        assert code == 1
        assert err.startswith("error: ") and err.count("\n") == 1

    def test_too_many_trials_exits_1(self, capsys):
        code, _, err = run_cli(
            [
                "experiment", "height-ratio", "--n-values", "10", "--theta-spec", "1",
                "--trials", str(2**32), "--threads", "1",
            ],
            capsys,
        )
        assert code == 1
        assert err.startswith("error: ") and "trials" in err

    def test_write_failure_reports_path(self, capsys):
        code, _, err = run_cli(
            ["exact", "mu", "--n", "3", "--out", "/nonexistent-dir/x.csv"], capsys
        )
        assert code == 1
        assert "/nonexistent-dir/x.csv" in err


class TestEmit:
    def test_refuses_empty_table(self):
        table = OutputTable(command="x", params={}, seed=0, rows=[])
        with pytest.raises(ValueError):
            emit(table, "csv", None)

    def test_unknown_format(self):
        table = OutputTable(
            command="x", params={}, seed=0,
            rows=[{"n": 1, "theta": 1.0, "quantity": "q", "value": 1.0, "seed": 0}],
        )
        with pytest.raises(ValueError):
            emit(table, "xml", None)

    @pytest.mark.parametrize("fmt", ("csv", "json"))
    def test_dataclass_and_dict_rows_write_the_same_bytes(self, capsys, fmt):
        row = TrialSummary(
            n=10, theta=0.5, trials=3, mean_height=2.0, sd_height=1.0, mean_records=1.5,
            sd_records=0.5, ratio_height_norm=0.25, ratio_records_mu=1.1, seed=7,
        )
        written = []
        for rows in ([row], [dataclasses.asdict(row)]):
            emit(OutputTable(command="x", params={"n": 10}, seed=7, rows=rows), fmt, None)
            written.append(capsys.readouterr().out)
        assert written[0] == written[1]
        assert written[0].count("\n") == (2 if fmt == "csv" else 1)


def _mostly(good, *bad):
    """A value from ``good`` about seven times in eight, else one of the malformed ``bad``."""
    return st.tuples(st.integers(0, 7), good, st.sampled_from(bad)).map(
        lambda pick: pick[2] if pick[0] == 3 else pick[1]
    )


_FLOATS = _mostly(
    st.one_of(st.floats(0.01, 1.0), st.floats(1.0, 10.0), st.integers(0, 5)).map(str),
    "-1", "1/0", "1e308", "1e-320", "nan", "inf", "abc",
)
_SMALL_INTS = _mostly(st.integers(0, 64).map(str), "-1", "abc")
_FLAG_VALUES = {
    "--n": _SMALL_INTS,
    "--theta": _FLOATS,
    "--trials": _mostly(st.integers(1, 3).map(str), "0", "-1"),
    "--method": st.sampled_from(("sequential", "recursive")),
    "--t": _mostly(_FLOATS, "1000"),
    "--k": _SMALL_INTS,
    "--eta": _SMALL_INTS,
    "--epsilon": _FLOATS,
    "--M": _FLOATS,
    "--n-values": _mostly(
        st.lists(st.integers(0, 64), min_size=1, max_size=3, unique=True).map(
            lambda v: ",".join(map(str, sorted(v)))
        ),
        "8,4", "-1", "1,,2",
    ),
    "--theta-spec": _mostly(
        st.one_of(_FLOATS, st.sampled_from(("constant:2", "linear:1", "power:0.5", "power:-1"))),
        "power:-1000", "power:1000", "x:1",
    ),
    "--j-values": st.lists(st.integers(0, 8), min_size=1, max_size=3).map(lambda v: ",".join(map(str, v))),
    "--seed": _mostly(st.sampled_from(("0", "7", str(2**64 - 1))), str(2**64), "-1"),
    "--format": st.sampled_from(("csv", "json")),
}
@st.composite
def _argvs(draw):
    command = draw(st.sampled_from(sorted(_COMMANDS)))
    required, optional = _COMMANDS[command]
    argv = list(command)
    for flag in required + optional + ("--format",):
        if flag in required or draw(st.integers(0, 3)):
            argv += [flag, draw(_FLAG_VALUES[flag])]
    if command[0] == "experiment":
        argv += ["--threads", "1"]
    return argv


@settings(max_examples=200, deadline=None, derandomize=True)
@given(_argvs())
@example(["experiment", "height-ratio", "--n-values", "1,5", "--theta-spec", "power:-1000",
          "--trials", "1", "--threads", "1"])
@example(["exact", "cstar", "--n", "7", "--k", "1"])  # a flag the command does not read
def test_any_argv_exits_0_1_or_2(argv):
    # n <= 64 and trials <= 3 keep every example small; a traceback would propagate out of
    # main and fail the test. Exit 1 is one error line and nothing else.
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = main(argv)
        except SystemExit as exc:
            code = exc.code
    assert code in (0, 1, 2), argv
    if code == 1:
        assert out.getvalue() == "", argv
        assert err.getvalue().startswith("error: ") and err.getvalue().count("\n") == 1, argv
