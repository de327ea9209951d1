import csv
import json
import math
import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

from multiport_bell import builtin_config, cli, correlation_threshold, threshold
from multiport_bell.cli import main
from multiport_bell.simplex import LPSolution

V_QUTRIT = (6 * math.sqrt(3) - 9) / 2

EXAMPLE_CONFIG = {
    "dimension": 3,
    "alice": [["0", "pi/3", "-pi/3"], ["0", "0", "0"]],
    "bob": [["0", "pi/6", "-pi/6"], ["0", "-pi/6", "pi/6"]],
}


@pytest.fixture
def config_path(tmp_path):
    path = tmp_path / "config.json"
    path.write_text(json.dumps(EXAMPLE_CONFIG), encoding="utf-8")
    return str(path)


def test_threshold_builtin_json_both(capsys):
    code = main(["threshold", "--builtin", "paper-qutrit", "--method", "both", "--json"])
    assert code == 0
    payload = json.loads(capsys.readouterr().out)
    assert [entry["method"] for entry in payload] == ["correlation", "probability"]
    for entry in payload:
        assert entry["dimension"] == 3
        assert abs(entry["V_thr"] - V_QUTRIT) <= 1e-6
        assert abs(entry["F_thr"] - (1 - V_QUTRIT)) <= 1e-6
        assert set(entry) == {
            "method",
            "dimension",
            "V_thr",
            "F_thr",
            "weights",
            "residual",
            "iterations",
        }


def test_threshold_text_output(capsys):
    code = main(["threshold", "--builtin", "chsh-qubit"])
    assert code == 0
    out = capsys.readouterr().out
    assert "V_thr" in out and "F_thr" in out and "weights" in out


def test_threshold_text_both_prints_two_blocks(capsys):
    assert main(["threshold", "--builtin", "chsh-qubit", "--method", "both"]) == 0
    blocks = capsys.readouterr().out.split("\n\n")
    assert [block.splitlines()[0] for block in blocks] == [
        "method      correlation",
        "method      probability",
    ]


def test_json_roundtrip_is_exact(capsys):
    main(["threshold", "--builtin", "chsh-qubit", "--method", "corr", "--json"])
    first = capsys.readouterr().out
    parsed = json.loads(first)
    assert json.loads(json.dumps(parsed)) == parsed
    main(["threshold", "--builtin", "chsh-qubit", "--method", "corr", "--json"])
    second = capsys.readouterr().out
    assert first == second  # deterministic, digit for digit


def test_weights_sorted_and_filtered(capsys):
    main(["threshold", "--builtin", "paper-qutrit", "--json"])
    payload = json.loads(capsys.readouterr().out)
    weights = payload["weights"]
    assert weights
    probs = [w["p"] for w in weights]
    assert probs == sorted(probs, reverse=True)
    assert all(p > 1e-12 for p in probs)
    assert abs(sum(probs) - 1.0) <= 1e-9


def test_threshold_from_config_file_matches_builtin(capsys, config_path):
    code = main(["threshold", "--config", config_path, "--json"])
    assert code == 0
    payload = json.loads(capsys.readouterr().out)
    # setting order differs from the builtin but the threshold is identical
    assert abs(payload["V_thr"] - V_QUTRIT) <= 1e-7


def test_bad_phase_expression_exits_2(tmp_path, capsys):
    broken = dict(EXAMPLE_CONFIG, alice=[["pi/", "0", "0"], ["0", "0", "0"]])
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(broken), encoding="utf-8")
    code = main(["threshold", "--config", str(path)])
    assert code == 2
    err = capsys.readouterr().err
    assert "offset" in err
    assert "alice[0][0]" in err


def test_overly_nested_phase_expression_exits_2(tmp_path, capsys):
    nested = "(" * 400 + "pi" + ")" * 400
    broken = dict(EXAMPLE_CONFIG, bob=[["0", "0", "0"], ["0", nested, "0"]])
    path = tmp_path / "nested.json"
    path.write_text(json.dumps(broken), encoding="utf-8")
    assert main(["threshold", "--config", str(path)]) == 2
    err = capsys.readouterr().err
    assert "nesting" in err and "bob[1][1]" in err


def test_malformed_json_exits_2_with_location(tmp_path, capsys):
    path = tmp_path / "broken.json"
    path.write_text('{"dimension": 3,', encoding="utf-8")
    assert main(["threshold", "--config", str(path)]) == 2
    assert "line" in capsys.readouterr().err


@pytest.mark.parametrize(
    "argv",
    [["threshold"], ["probabilities", "--alice", "0", "--bob", "0"]],
    ids=["threshold", "probabilities"],
)
def test_deeply_nested_json_exits_2(tmp_path, capsys, argv):
    # 3 KB that json.load cannot parse without exceeding the recursion limit
    path = tmp_path / "deep.json"
    alice = "[" * 1000 + "]" * 1000
    path.write_text(f'{{"dimension": 3, "alice": {alice}, "bob": []}}', encoding="utf-8")
    assert main([argv[0], "--config", str(path), *argv[1:]]) == 2
    assert capsys.readouterr().err == f"error: {path}: JSON nested too deeply\n"


def test_missing_file_exits_2(capsys):
    assert main(["threshold", "--config", "/nonexistent/nowhere.json"]) == 2


def test_unknown_builtin_exits_2(capsys):
    assert main(["threshold", "--builtin", "unknown"]) == 2


def test_config_validation_messages(tmp_path, capsys):
    path = tmp_path / "c.json"
    path.write_text(json.dumps({"dimension": 3, "alice": [["0", "0", "0"]]}), encoding="utf-8")
    assert main(["threshold", "--config", str(path)]) == 2
    assert "missing" in capsys.readouterr().err
    path.write_text(
        json.dumps(dict(EXAMPLE_CONFIG, extra=1)), encoding="utf-8"
    )
    assert main(["threshold", "--config", str(path)]) == 2
    assert "unknown" in capsys.readouterr().err


def run_config(tmp_path, data, capsys):
    path = tmp_path / "config.json"
    path.write_text(json.dumps(data), encoding="utf-8")
    code = main(["threshold", "--config", str(path), "--method", "both"])
    out, err = capsys.readouterr()
    return code, out, err.replace(str(path), "CONFIG")


@pytest.mark.parametrize(
    "numbers, strings",
    [
        ([[0, 1, -1], [0, 0, 2]], [["0", "1", "-1"], ["0", "0", "2"]]),
        ([[0.0, 0.5, -2.25], [0, 0, 1.5]], [["0", "0.5", "-2.25"], ["0", "0", "1.5"]]),
    ],
)
def test_number_phase_entries_equal_their_strings(tmp_path, capsys, numbers, strings):
    by_number = run_config(tmp_path, dict(EXAMPLE_CONFIG, alice=numbers), capsys)
    by_string = run_config(tmp_path, dict(EXAMPLE_CONFIG, alice=strings), capsys)
    assert by_number[0] == 0
    assert by_number == by_string


@pytest.mark.parametrize(
    "data, message",
    [
        (
            dict(EXAMPLE_CONFIG, alice=[[True, "0", "0"], ["0", "0", "0"]]),
            "alice[0][0]: expected a number or expression, got True",
        ),
        (
            dict(EXAMPLE_CONFIG, alice=[["0", None, "0"], ["0", "0", "0"]]),
            "alice[0][1]: expected a number or expression, got None",
        ),
        (
            dict(EXAMPLE_CONFIG, bob=[["0", "0", "0"], ["0", "0", [1]]]),
            "bob[1][2]: expected a number or expression, got [1]",
        ),
        (dict(EXAMPLE_CONFIG, alice=3), "alice: expected a list of phase lists"),
        ([EXAMPLE_CONFIG], "expected a JSON object"),
        (dict(EXAMPLE_CONFIG, dimension="3"), "dimension must be an integer"),
        (dict(EXAMPLE_CONFIG, dimension=True), "dimension must be an integer"),
        (
            dict(EXAMPLE_CONFIG, alice=[["0", 10**400, "0"], ["0", "0", "0"]]),
            "alice[0][1]: number too large for a float",
        ),
        (
            dict(EXAMPLE_CONFIG, bob=[["0", "pi*²", "0"], ["0", "0", "0"]]),
            "bob[0][1]: expected a number, 'pi', '(' or '-' at offset 3",
        ),
    ],
)
def test_config_type_errors_exit_2(tmp_path, capsys, data, message):
    assert run_config(tmp_path, data, capsys) == (2, "", f"error: CONFIG: {message}\n")


def test_verify_proof_text(capsys):
    code = main(["verify-proof"])
    assert code == 0
    out_lines = capsys.readouterr().out.splitlines()
    check_lines = [line for line in out_lines if line.startswith(("PASS", "FAIL"))]
    assert len(check_lines) == 9
    assert all(line.startswith("PASS") for line in check_lines)


def test_verify_proof_json(capsys):
    code = main(["verify-proof", "--json"])
    assert code == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["passed"] is True
    assert len(payload["checks"]) == 9
    assert abs(payload["analytic_V"] - V_QUTRIT) <= 1e-12
    assert abs(payload["lp_V"] - V_QUTRIT) <= 1e-7


def test_probabilities_table(capsys, config_path):
    code = main(
        ["probabilities", "--config", config_path, "--alice", "0", "--bob", "0", "--noise", "0.25"]
    )
    assert code == 0
    out = capsys.readouterr().out
    assert "sum = 1.000000000000" in out


def test_probabilities_bad_index(capsys, config_path):
    for alice, bob, noise, party, index in [
        ("5", "0", "0", "alice", 5),
        ("0", "2", "0", "bob", 2),
        ("-1", "0", "0", "alice", -1),
        ("0", "-1", "0", "bob", -1),
        # the index error wins over a bad noise fraction
        ("2", "0", "1.5", "alice", 2),
        ("0", "-3", "-0.1", "bob", -3),
    ]:
        argv = ["probabilities", "--config", config_path, "--alice", alice, "--bob", bob]
        argv += ["--noise", noise]
        assert main(argv) == 2
        captured = capsys.readouterr()
        assert captured.err == f"error: {party} setting index {index} out of range\n"
        assert captured.out == ""


def test_probabilities_bad_noise(capsys, config_path):
    assert (
        main(["probabilities", "--config", config_path, "--alice", "0", "--bob", "0", "--noise", "1.5"])
        == 2
    )


def test_scan_csv_history(tmp_path, capsys):
    csv_path = tmp_path / "scan.csv"
    code = main(
        ["scan", "--dimension", "2", "--restarts", "3", "--seed", "1", "--csv", str(csv_path)]
    )
    assert code == 0
    assert "best_F_thr" in capsys.readouterr().out
    with open(csv_path, newline="", encoding="utf-8") as handle:
        rows = list(csv.DictReader(handle))
    assert [row["restart"] for row in rows] == ["0", "1", "2"]
    assert all(row["seed"] == "1" for row in rows)
    best = -math.inf
    for row in rows:
        value = float(row["F_thr"])
        if not math.isnan(value):
            best = max(best, value)
        assert float(row["best_so_far"]) == pytest.approx(best, abs=0)


def test_scan_csv_to_unwritable_path_exits_2(tmp_path, capsys):
    path = tmp_path / "missing" / "h.csv"
    code = main(["scan", "--dimension", "2", "--restarts", "1", "--seed", "1", "--csv", str(path)])
    assert code == 2
    err = capsys.readouterr().err
    assert err.startswith(f"error: cannot write {path}")
    assert not path.parent.exists()


def test_scan_negative_seed_exits_2(capsys):
    assert main(["scan", "--dimension", "3", "--restarts", "1", "--seed", "-1"]) == 2
    assert capsys.readouterr().err == "error: seed must be non-negative, got -1\n"


def test_missing_subcommand_exits_2(capsys):
    assert main([]) == 2


def test_repeated_main_calls_are_independent(capsys, config_path):
    # the parser is built once per process; no call may see another's state
    sequence = [
        ["threshold", "--builtin", "paper-qutrit", "--method", "both", "--json"],
        ["threshold"],
        ["--help"],
        ["verify-proof", "--json"],
        ["probabilities", "--config", config_path, "--alice", "5", "--bob", "0"],
    ]
    passes = []
    for _ in range(2):
        calls = []
        for argv in sequence:
            code = main(argv)
            captured = capsys.readouterr()
            calls.append((code, captured.out, captured.err))
        passes.append(calls)
    assert passes[0] == passes[1]
    assert [code for code, _, _ in passes[0]] == [0, 2, 0, 0, 2]
    assert passes[0][1][2].startswith("usage: multiport-bell threshold")
    assert passes[0][2][1].startswith("usage: multiport-bell")
    assert cli._build_parser() is cli._build_parser()


@pytest.mark.parametrize(
    "argv",
    [
        ["threshold", "--builtin", "paper-qutrit"],
        ["scan", "--dimension", "3", "--restarts", "1", "--seed", "0"],
    ],
)
def test_solver_failure_exits_3(monkeypatch, capsys, argv):
    def forced_failure(*args, **kwargs):
        return LPSolution("failed", math.nan, None, math.nan, 0, "forced")

    monkeypatch.setattr(threshold, "_START_BASES", {})
    monkeypatch.setattr(threshold, "solve", forced_failure)
    assert main(argv) == 3
    assert capsys.readouterr().err.startswith("solver failure:")


README = Path(__file__).resolve().parents[1] / "README.md"


def test_readme_examples_match_the_program(capsys):
    text = README.read_text(encoding="utf-8")
    example = re.search(r"### JSON output schema \(`threshold`\)\n\n```json\n(.*?)```", text, re.S)
    assert main(["threshold", "--builtin", "paper-qutrit", "--json"]) == 0
    assert json.loads(example.group(1)) == json.loads(capsys.readouterr().out)
    printed = re.search(r"print\(result\.v_thr, result\.f_thr\) +# (\S+) (\S+)\n", text)
    result = correlation_threshold(builtin_config("paper-qutrit"))
    assert printed.groups() == (str(result.v_thr), str(result.f_thr))


SRC = Path(__file__).resolve().parents[1] / "src"


def run_module(module, *argv, stdout=subprocess.PIPE):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    return subprocess.run(
        [sys.executable, "-m", module, *argv],
        stdout=stdout,
        stderr=subprocess.PIPE,
        env=env,
        timeout=120,
    )


@pytest.mark.parametrize("module", ["multiport_bell", "multiport_bell.cli"])
def test_running_the_module_calls_main(capsys, config_path, module):
    bad = run_module(module, "probabilities", "--config", config_path, "--alice", "5", "--bob", "0")
    assert bad.returncode == 2
    assert bad.stdout == b""
    assert bad.stderr.startswith(b"error: alice setting index 5 out of range")
    good = run_module(module, "threshold", "--builtin", "paper-qutrit", "--json")
    assert main(["threshold", "--builtin", "paper-qutrit", "--json"]) == 0
    assert good.returncode == 0
    assert good.stdout.decode() == capsys.readouterr().out


def test_closed_stdout_exits_141_with_nothing_on_stderr():
    # the read end of the pipe is closed before the child starts, so its
    # first write to stdout fails with EPIPE, as under `| head` once head exits
    read, write = os.pipe()
    os.close(read)
    try:
        child = run_module(
            "multiport_bell", "threshold", "--builtin", "paper-qutrit", "--method", "both",
            "--json", stdout=write,
        )
    finally:
        os.close(write)
    assert child.stderr == b""
    assert child.returncode == 141
