"""Command-line interface tests: outputs, exit codes, file emission, and
byte stability."""

import ast
import hashlib
import json
import os
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest

from clustercap.cli import approx, build_parser, main
from clustercap.codes import CodeInstance, verify_instance
from clustercap.mincut import mincut
from clustercap.model import ClusterOrder, SelectedNodeDistribution, validate_config
from clustercap.oracle import FAMILIES


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_approx_rendering():
    assert approx(Fraction(2)) == "2.000000"
    assert approx(Fraction(1, 3)) == "0.333333"
    assert approx(Fraction(2, 3)) == "0.666667"
    assert approx(Fraction(-1, 8)) == "-0.125000"


def test_capacity_command(capsys):
    code, out, _ = run(
        capsys, "capacity", "--n", "5", "--k", "3", "--L", "2", "--R", "2",
        "--E", "1", "--dC", "3", "--betaI", "2", "--betaC", "1", "--alpha", "2",
    )
    assert code == 0
    assert "capacity = 6 (~ 6.000000)" in out
    assert "achieving distribution = (1; 2, 0)" in out
    assert "achieving order = (1, 1, 0)" in out


def test_capacity_json_format(capsys):
    code, out, _ = run(
        capsys, "capacity", "--n", "5", "--k", "3", "--L", "2", "--R", "2",
        "--E", "1", "--dC", "3", "--betaI", "2", "--betaC", "1", "--alpha", "2",
        "--format", "json",
    )
    assert code == 0
    payload = json.loads(out)
    assert payload["capacity"] == "6"
    assert payload["order"] == [1, 1, 0]


def test_capacity_from_config_file(tmp_path, capsys):
    config = tmp_path / "system.json"
    config.write_text(
        json.dumps(
            {
                "n": 5, "k": 3, "L": 2, "R": 2, "E": 1,
                "d_I": 1, "d_C": 3,
                "beta_I": "2", "beta_C": "1", "alpha": "2",
            }
        ),
        encoding="utf-8",
    )
    code, out, _ = run(capsys, "capacity", "--config", str(config))
    assert code == 0
    assert "capacity = 6" in out


def test_capacity_two_separate_nodes_closed_form(capsys):
    code, out, _ = run(
        capsys, "capacity", "--n", "6", "--k", "3", "--L", "2", "--R", "2",
        "--E", "2", "--dC", "3", "--betaI", "2", "--betaC", "1", "--alpha", "100",
    )
    assert code == 0
    assert out == (
        "capacity = 10 (~ 10.000000)\n"
        "achieving distribution = (2; 1, 0)\n"
        "achieving order = (1, 0, 0)\n"
    )


def test_capacity_many_separate_nodes_large_instance(capsys):
    # beyond the default state budget of the lattice DP
    code, out, _ = run(
        capsys, "capacity", "--n", "107", "--k", "60", "--L", "12", "--R", "8",
        "--E", "11", "--dC", "60", "--betaI", "2", "--betaC", "1", "--alpha", "50",
        "--format", "json",
    )
    assert code == 0
    payload = json.loads(out)
    config = validate_config(
        n=107, k=60, L=12, R=8, E=11, d_cross=60, beta_intra=2, beta_cross=1, alpha=50
    )
    dist = SelectedNodeDistribution(
        separate=payload["distribution"]["separate"],
        clusters=tuple(payload["distribution"]["clusters"]),
    )
    order = ClusterOrder(labels=tuple(payload["order"]))
    assert dist.is_member(config.nodes) and order.matches(dist)
    assert mincut(config, order).value == Fraction(payload["capacity"])


def test_capacity_invalid_params_exit_2(capsys):
    code, _, err = run(
        capsys, "capacity", "--n", "5", "--k", "3", "--L", "2", "--R", "2",
        "--E", "1", "--dC", "30", "--betaI", "2", "--betaC", "1", "--alpha", "2",
    )
    assert code == 2
    assert "error:" in err


@pytest.mark.parametrize("command, extra", [
    ("capacity", ["--betaI", "2", "--betaC", "1", "--alpha", "5"]),
    ("tradeoff", ["--tau", "2", "--M", "6",
                  "--grid-start", "1/2", "--grid-stop", "2", "--grid-step", "1/2"]),
])
def test_d_cross_range_message_states_enforced_lower_bound(capsys, command, extra):
    # k - R + 1 = -1 here, yet d_cross may not be negative
    code, out, err = run(
        capsys, command, "--n", "8", "--k", "2", "--L", "2", "--R", "4", "--E", "0",
        "--dC", "-1", *extra,
    )
    assert (code, out, err) == (2, "", "error: d_cross=-1 outside [0, 4]\n")


@pytest.mark.parametrize("flag", ["--alpha", "--betaC"])
def test_capacity_zero_denominator_exit_2(capsys, flag):
    argv = [
        "capacity", "--n", "5", "--k", "3", "--L", "2", "--R", "2", "--E", "1",
        "--dC", "3", "--betaI", "2", "--betaC", "1", "--alpha", "2",
    ]
    argv[argv.index(flag) + 1] = "1/0"
    code, _, err = run(capsys, *argv)
    assert code == 2
    assert "zero denominator" in err


def test_tradeoff_zero_denominator_exit_2(capsys):
    code, _, err = run(
        capsys, "tradeoff", "--n", "5", "--k", "3", "--L", "2", "--R", "2",
        "--E", "1", "--dC", "3", "--tau", "2", "--M", "1/0",
        "--grid-start", "1", "--grid-stop", "2", "--grid-step", "1/2",
    )
    assert code == 2
    assert "zero denominator" in err


@pytest.mark.parametrize(
    "key, value",
    [("alpha", 0.5), ("k", 3.5), ("beta_C", None), ("k", True), ("alpha", True)],
)
def test_capacity_config_non_rational_value_exit_2(tmp_path, capsys, key, value):
    raw = {
        "n": 5, "k": 3, "L": 2, "R": 2, "E": 1, "d_C": 3,
        "beta_I": "2", "beta_C": "1", "alpha": "2",
    }
    raw[key] = value
    config = tmp_path / "system.json"
    config.write_text(json.dumps(raw), encoding="utf-8")
    code, _, err = run(capsys, "capacity", "--config", str(config))
    assert code == 2
    assert repr(key) in err


def test_capacity_config_missing_key_exit_2(tmp_path, capsys):
    raw = {"n": 5, "k": 3, "L": 2, "R": 2, "E": 1, "d_C": 3, "beta_I": "2", "beta_C": "1"}
    config = tmp_path / "system.json"
    config.write_text(json.dumps(raw), encoding="utf-8")
    code, _, err = run(capsys, "capacity", "--config", str(config))
    assert code == 2
    assert "config key 'alpha' is missing" in err


def test_capacity_config_not_an_object_exit_2(tmp_path, capsys):
    config = tmp_path / "system.json"
    config.write_text("[5, 3, 2, 2, 1]", encoding="utf-8")
    code, _, err = run(capsys, "capacity", "--config", str(config))
    assert code == 2
    assert "JSON object" in err


def test_capacity_missing_flags_exit_2(capsys):
    code, _, err = run(capsys, "capacity", "--n", "5")
    assert code == 2
    assert "--k" in err


def test_tradeoff_csv(tmp_path, capsys):
    out_file = tmp_path / "curve.csv"
    args = (
        "tradeoff", "--n", "5", "--k", "3", "--L", "2", "--R", "2", "--E", "1",
        "--dC", "3", "--tau", "2", "--M", "6",
        "--grid-start", "1/2", "--grid-stop", "2", "--grid-step", "1/2",
        "--out", str(out_file),
    )
    code = main(list(args))
    captured = capsys.readouterr()
    assert code == 0
    first = out_file.read_bytes()
    assert first.startswith(b"beta_C_num,beta_C_den,alpha_num,alpha_den,d_C,variant\n")
    assert b"1,1,2,1,3,CSN-OneSeparate\n" in first  # the minimum storage point
    assert b"\r" not in first
    assert "unstorable: beta_C=1/2" in captured.err

    code = main(list(args))
    capsys.readouterr()
    assert code == 0
    assert out_file.read_bytes() == first  # byte-stable across runs


def test_tradeoff_multiple_curves(capsys):
    code, out, _ = run(
        capsys, "tradeoff", "--n", "13", "--k", "7", "--L", "3", "--R", "4",
        "--E", "1", "--dC", "9", "--dC", "8", "--tau", "2", "--M", "32",
        "--grid-start", "1", "--grid-stop", "2", "--grid-step", "1",
    )
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[0] == "beta_C_num,beta_C_den,alpha_num,alpha_den,d_C,variant"
    d_values = {line.split(",")[4] for line in lines[1:]}
    assert d_values == {"8", "9"}


def test_tradeoff_json_format(capsys):
    code, out, _ = run(
        capsys, "tradeoff", "--n", "5", "--k", "3", "--L", "2", "--R", "2",
        "--E", "1", "--dC", "3", "--tau", "2", "--M", "6",
        "--grid-start", "1/2", "--grid-stop", "1", "--grid-step", "1/2",
        "--format", "json",
    )
    assert code == 0
    payload = json.loads(out)
    assert payload[0]["d_C"] == 3
    assert payload[0]["points"] == [
        {"beta_C": "1", "alpha": "2", "alpha_approx": "2.000000"}
    ]
    assert payload[0]["unstorable"] == ["1/2"]


def test_explicit_intra_helper_flag(capsys):
    code, _, err = run(
        capsys, "capacity", "--n", "5", "--k", "3", "--L", "2", "--R", "2",
        "--E", "1", "--dI", "0", "--dC", "3", "--betaI", "2", "--betaC", "1",
        "--alpha", "2",
    )
    assert code == 2  # d_intra must equal R-1
    assert "d_intra" in err


def test_tradeoff_empty_grid_exit_2(capsys):
    code, _, err = run(
        capsys, "tradeoff", "--n", "5", "--k", "3", "--L", "2", "--R", "2",
        "--E", "1", "--dC", "3", "--tau", "2", "--M", "6",
        "--grid-start", "2", "--grid-stop", "1", "--grid-step", "1/2",
    )
    assert code == 2
    assert "empty grid" in err


def test_tradeoff_oversized_grid_exit_2(capsys):
    code, _, err = run(
        capsys, "tradeoff", "--n", "5", "--k", "3", "--L", "2", "--R", "2",
        "--E", "1", "--dC", "3", "--tau", "2", "--M", "6",
        "--grid-start", "1", "--grid-stop", "2", "--grid-step", "1/100000",
    )
    assert code == 2
    assert "100001 points" in err


def test_tradeoff_bad_step_exit_2(capsys):
    code, _, err = run(
        capsys, "tradeoff", "--n", "5", "--k", "3", "--L", "2", "--R", "2",
        "--E", "1", "--dC", "3", "--tau", "2", "--M", "6",
        "--grid-start", "1", "--grid-stop", "2", "--grid-step", "0",
    )
    assert code == 2
    assert "step" in err


@pytest.mark.parametrize(
    "flag, value, message",
    [
        ("--M", "-1", "size=-1 must be >= 0"),
        ("--tau", "1/2", "tau=1/2 must be >= 1 (intra at least as wide as cross)"),
        ("--dC", "1", "d_cross=1 outside [2, 3]"),
        ("--dC", "4", "d_cross=4 outside [2, 3]"),
        ("--grid-start", "0", "grid value 0 must be positive"),
    ],
)
def test_tradeoff_invalid_parameter_exit_2(capsys, flag, value, message):
    argv = [
        "tradeoff", "--n", "5", "--k", "3", "--L", "2", "--R", "2", "--E", "1",
        "--dC", "3", "--tau", "2", "--M", "6",
        "--grid-start", "1", "--grid-stop", "2", "--grid-step", "1/2",
    ]
    argv[argv.index(flag) + 1] = value
    code, out, err = run(capsys, *argv)
    assert code == 2
    assert out == ""
    assert err == f"error: {message}\n"


def test_tradeoff_two_separate_nodes_exit_2(capsys):
    code, out, err = run(
        capsys, "tradeoff", "--n", "6", "--k", "3", "--L", "2", "--R", "2",
        "--E", "2", "--dC", "3", "--tau", "2", "--M", "6",
        "--grid-start", "1", "--grid-stop", "2", "--grid-step", "1/2",
    )
    assert code == 2
    assert out == ""
    assert err == "error: tradeoff supports only E <= 1 for now, got E=2\n"


def test_verify_tiny_family(tmp_path, capsys):
    out_file = tmp_path / "report.json"
    code, _, _ = run(capsys, "verify", "--family", "tiny", "--out", str(out_file))
    assert code == 0
    payload = json.loads(out_file.read_text(encoding="utf-8"))
    assert payload["failed"] == 0
    assert payload["total"] == len(payload["reports"])
    assert all(r["passed"] for r in payload["reports"])
    # the report, byte for byte
    assert hashlib.sha256(out_file.read_bytes()).hexdigest() == (
        "63efc4a33dd13f44c9b84ee99abb08744f203d8385f897f2f455711feccc20fa"
    )


def test_verify_small_sweep_family(tmp_path, capsys):
    # the full standard sweep: every claim on every config, all-pass JSON
    out_file = tmp_path / "sweep.json"
    code, _, _ = run(
        capsys, "verify", "--family", "small-sweep", "--out", str(out_file)
    )
    assert code == 0
    payload = json.loads(out_file.read_text(encoding="utf-8"))
    assert payload["failed"] == 0
    assert payload["total"] > 50_000
    # the report, byte for byte
    assert hashlib.sha256(out_file.read_bytes()).hexdigest() == (
        "dffe4e718ecf229c227600dbb84e967003e48e70c7dcc28140b4fa6507f19054"
    )


def _verify_payload(family, reports):
    return {
        "family": family,
        "total": len(reports),
        "failed": sum(not r.passed for r in reports),
        "reports": [
            {"instance": r.instance, "claim": r.claim, "passed": r.passed,
             "counterexample": r.counterexample}
            for r in reports
        ],
    }


def test_verify_output_is_indented_json(capsys):
    from clustercap.oracle import verify_claims

    code, out, err = run(capsys, "verify", "--family", "tiny")
    assert (code, err) == (0, "")
    assert out == json.dumps(_verify_payload("tiny", verify_claims("tiny")), indent=2) + "\n"


@pytest.mark.parametrize("count", [0, 1, 3])
def test_verify_output_escapes_like_json_dumps(monkeypatch, capsys, count):
    from clustercap import oracle

    odd = ['say "no"', "back\\slash", "two\nlines\ttab", "caf\u00e9 \u2264 \U0001d6fc", "\x00"]
    reports = [
        oracle.VerificationReport(
            instance=f"n={i} {odd[i % len(odd)]}",
            claim=odd[(i + 1) % len(odd)],
            passed=i == 1,
            counterexample=None if i == 1 else odd[(i + 2) % len(odd)],
        )
        for i in range(count)
    ]
    monkeypatch.setattr(oracle, "verify_claims", lambda family: reports)
    code, out, err = run(capsys, "verify", "--family", 'x"\u00e9')
    assert out == json.dumps(_verify_payload('x"\u00e9', reports), indent=2) + "\n"
    failed = [r for r in reports if not r.passed]
    assert code == (1 if failed else 0)
    assert err == "".join(
        f"FAIL {r.claim} @ {r.instance}: {r.counterexample}\n" for r in failed
    )


def test_verify_unknown_family_exit_2(capsys):
    code, _, err = run(capsys, "verify", "--family", "nope")
    assert code == 2
    assert "unknown family 'nope'" in err
    for name in FAMILIES:
        assert repr(name) in err
    # the help names no family but the default, which must be a real one
    assert build_parser().parse_args(["verify"]).family in FAMILIES


def test_compare_command(capsys):
    code, out, _ = run(
        capsys, "compare", "--k", "9", "--L", "3", "--R", "4", "--dC", "7",
        "--betaI", "2", "--betaC", "1", "--alpha", "1000",
    )
    assert code == 0
    assert "verdict = Reduced" in out
    assert "capacity without separate node = 69" in out
    assert "capacity with separate node = 66" in out


def test_compare_n_other_than_base_size_exit_2(capsys):
    code, out, err = run(
        capsys, "compare", "--n", "13", "--k", "9", "--L", "3", "--R", "4", "--dC", "7",
        "--betaI", "2", "--betaC", "1", "--alpha", "1000",
    )
    assert (code, out) == (2, "")
    assert err == "error: --n 13 inconsistent with L*R=12 (base system has E=0)\n"


def test_compare_equal_case_json(capsys):
    code, out, _ = run(
        capsys, "compare", "--k", "8", "--L", "3", "--R", "4", "--dC", "7",
        "--betaI", "2", "--betaC", "1", "--alpha", "1000", "--format", "json",
    )
    assert code == 0
    payload = json.loads(out)
    assert payload["outcome"] == "Equal"
    assert payload["capacity_without"] == payload["capacity_with"]


def test_construct_command(tmp_path, capsys):
    out_file = tmp_path / "instance.txt"
    code, out, _ = run(
        capsys, "construct", "--q", "13", "--seed", "0", "--out", str(out_file)
    )
    assert code == 0
    assert "written to" in out
    inst = CodeInstance.from_text(out_file.read_text(encoding="utf-8"))
    verify_instance(inst)


def test_construct_negative_budget_exit_2(capsys):
    code, out, err = run(capsys, "construct", "--q", "13", "--budget", "-1")
    assert code == 2
    assert out == ""
    assert err == "error: budget=-1: need a non-negative attempt count\n"


def test_construct_exhausted_budget_exit_1(capsys):
    code, out, err = run(capsys, "construct", "--q", "13", "--budget", "0")
    assert code == 1
    assert out == ""
    assert err == "error: no valid instance within 0 attempts\n"


_IMPORT_PROBE = """
import contextlib, io, sys
import clustercap
from clustercap import cli

with contextlib.redirect_stdout(io.StringIO()) as out:
    code = cli.main(["capacity", "--n", "16", "--k", "12", "--L", "3", "--R", "4",
                     "--E", "4", "--dC", "10", "--betaI", "2", "--betaC", "1",
                     "--alpha", "5"])
assert code == 0 and out.getvalue().startswith("capacity = "), out.getvalue()
loaded = sorted(m for m in ("clustercap.oracle", "clustercap.codes") if m in sys.modules)
assert not loaded, f"capacity loaded {loaded}"
for name in clustercap.__all__:
    getattr(clustercap, name)
"""


def test_capacity_loads_no_oracle_or_codes():
    # a fresh interpreter: this one has imported every module already
    src = str(Path(__file__).resolve().parent.parent / "src")
    result = subprocess.run(
        [sys.executable, "-c", _IMPORT_PROBE],
        capture_output=True, text=True, env={**os.environ, "PYTHONPATH": src}, timeout=60,
    )
    assert result.returncode == 0, result.stderr


def _run_fresh(code: str) -> None:
    """Run `code` in a fresh interpreter that imports clustercap from src."""
    src = str(Path(__file__).resolve().parent.parent / "src")
    result = subprocess.run(
        [sys.executable, "-c", code],
        capture_output=True, text=True, env={**os.environ, "PYTHONPATH": src}, timeout=60,
    )
    assert result.returncode == 0, result.stderr


_IMPORT_BUDGET_PROBE = """
import contextlib, io, sys
before = set(sys.modules)
from clustercap import cli

commands = [
    ["capacity", "--n", "16", "--k", "12", "--L", "3", "--R", "4", "--E", "4",
     "--dC", "10", "--betaI", "2", "--betaC", "1", "--alpha", "5"],
    ["compare", "--k", "9", "--L", "3", "--R", "4", "--dC", "7",
     "--betaI", "2", "--betaC", "1", "--alpha", "1000"],
    ["tradeoff", "--n", "5", "--k", "3", "--L", "2", "--R", "2", "--E", "1",
     "--dC", "3", "--tau", "2", "--M", "6",
     "--grid-start", "1/2", "--grid-stop", "2", "--grid-step", "1/2", "--format", "json"],
]
for argv in commands:
    with contextlib.redirect_stdout(io.StringIO()) as out:
        code = cli.main(argv)
    assert code == 0 and out.getvalue(), (argv, out.getvalue())
banned = ("dataclasses", "inspect", "clustercap.oracle", "clustercap.codes")
loaded = [m for m in banned if m in sys.modules and m not in before]
assert not loaded, f"the CLI loaded {loaded}"
"""


def test_capacity_compare_tradeoff_stay_within_import_budget():
    # modules the interpreter loaded before clustercap are not the CLI's cost
    _run_fresh(_IMPORT_BUDGET_PROBE)


def test_no_module_imports_dataclasses():
    package = Path(__file__).resolve().parent.parent / "src" / "clustercap"
    offenders = []
    for path in sorted(package.rglob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.Import):
                names = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom):
                names = [node.module or ""]
            else:
                continue
            if any(name.split(".")[0] == "dataclasses" for name in names):
                offenders.append(f"{path.name}:{node.lineno}")
    assert not offenders


_DIR_PROBE = """
import sys
import clustercap
names = dir(clustercap)
assert names == sorted(names)
missing = sorted(set(clustercap.__all__) - set(names))
assert not missing, f"dir() lacks {missing}"
assert "clustercap.oracle" not in sys.modules, "dir() loaded the oracle"
"""


def test_dir_lists_lazy_names_without_loading_oracle():
    _run_fresh(_DIR_PROBE)


def test_unknown_subcommand_exits_2(capsys):
    with pytest.raises(SystemExit) as err:
        main(["frobnicate"])
    assert err.value.code == 2
