import argparse
import dataclasses
import inspect
import json
import re
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import sinklimit.game
from sinklimit import (
    ContractViolation,
    Game,
    ReplicatorParams,
    SolverConvergenceError,
    build_response_graph,
    estimate_limit_distribution,
    limit_hitting_probabilities,
    oracle_hitting_matrix,
    profile_label,
    random_game,
    save_game,
)
from sinklimit.cli import _emit_json, build_parser, main

from conftest import bimatrix


def write_game(tmp_path, game, name="game.json") -> str:
    path = tmp_path / name
    save_game(game, path)
    return str(path)


def run_cli(capsys, *argv) -> tuple[int, str, str]:
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def validate_dot(text: str) -> None:
    """Structural DOT check: one statement per line, quoted ids, known
    attribute shapes, balanced braces."""
    lines = text.strip().splitlines()
    assert lines[0] == "digraph game {"
    assert lines[-1] == "}"
    node_re = re.compile(r'"[^"]+" \[style=(filled|wedged), fillcolor="[^"]+"\];')
    edge_re = re.compile(r'"[^"]+" -> "[^"]+" \[label="\d+\.\d\d"\];')
    default_re = re.compile(r"node \[shape=ellipse\];")
    for line in lines[1:-1]:
        line = line.strip()
        assert node_re.fullmatch(line) or edge_re.fullmatch(line) or default_re.fullmatch(line), line


def test_sinks_fig2(tmp_path, capsys, fig2_game):
    code, out, _ = run_cli(capsys, "sinks", write_game(tmp_path, fig2_game))
    assert code == 0
    payload = json.loads(out)
    assert payload["sinks"] == [[0, 1, 3, 4], [8]]
    assert payload["sink_strategies"][1] == [[3, 3]]
    assert payload["schema"] == 1


def test_sinks_fig3(tmp_path, capsys, fig3_game):
    code, out, _ = run_cli(capsys, "sinks", write_game(tmp_path, fig3_game))
    assert code == 0
    assert json.loads(out)["sinks"] == [[0], [4]]


def test_sinks_one_by_one_game(tmp_path, capsys):
    game = bimatrix([[(1.0, 2.0)]])
    code, out, _ = run_cli(capsys, "sinks", write_game(tmp_path, game))
    assert code == 0
    payload = json.loads(out)
    assert payload["sinks"] == [[0]]
    assert payload["sink_labels"] == ["sink_0"]


def test_hit_fig3_rows(tmp_path, capsys, fig3_game):
    code, out, _ = run_cli(capsys, "hit", write_game(tmp_path, fig3_game))
    assert code == 0
    payload = json.loads(out)
    assert payload["rounds"] == 1
    row = payload["rows"]["(3,3)"]
    assert row["sink_0"] == 1.0
    assert row["sink_1"] == 0.0
    member = payload["rows"]["(2,2)"]
    assert member["sink_1"] == 1.0


def test_hit_output_does_not_grow_with_sink_members(tmp_path, capsys):
    # All-zero utilities: every profile ties with its neighbours, so the one
    # sink holds all 729 profiles, which a key listing its members would repeat
    # in every row.
    game = Game((3,) * 6, tuple(np.zeros(3**6) for _ in range(6)))
    code, out, _ = run_cli(capsys, "hit", write_game(tmp_path, game))
    assert code == 0
    payload = json.loads(out)
    assert payload["sinks"] == [list(range(3**6))]
    assert len(payload["rows"]) == 3**6
    assert all(row == {"sink_0": 1.0} for row in payload["rows"].values())
    assert len(out) < 100 * 3**6


def test_sink_keys_agree_across_commands(tmp_path, capsys, fig2_game):
    gpath = write_game(tmp_path, fig2_game)
    wpath = tmp_path / "weights.json"
    wpath.write_text(json.dumps([1 / 9] * 9))
    outputs = []
    for argv in (["sinks", gpath], ["hit", gpath], ["limit", gpath, f"pure:{wpath}"]):
        code, out, _ = run_cli(capsys, *argv)
        assert code == 0
        outputs.append(json.loads(out))
    sinks, hit, limit = outputs
    keys = ["sink_0", "sink_1"]
    assert sinks["sink_labels"] == hit["sink_labels"] == keys
    assert all(list(row) == keys for row in hit["rows"].values())
    assert list(limit["distribution"]) == keys
    assert sinks["sinks"] == hit["sinks"] == limit["sinks"] == [[0, 1, 3, 4], [8]]


def test_hit_oracle_flag_agrees(tmp_path, capsys):
    game = random_game(6, 2, (3, 3))
    path = write_game(tmp_path, game)
    _, exact_out, _ = run_cli(capsys, "hit", path)
    _, oracle_out, _ = run_cli(capsys, "hit", path, "--oracle-eps", "1e-8")
    exact = json.loads(exact_out)
    oracle = json.loads(oracle_out)
    assert oracle["method"] == "oracle"
    for profile, row in exact["rows"].items():
        for label, value in row.items():
            assert abs(oracle["rows"][profile][label] - value) < 1e-6


@pytest.mark.parametrize("eps", ["nan", "inf"])
def test_oracle_eps_must_be_finite(tmp_path, capsys, fig3_game, eps):
    code, out, err = run_cli(capsys, "hit", write_game(tmp_path, fig3_game), "--oracle-eps", eps)
    assert code == 2
    assert out == ""
    assert err.startswith("INPUT_ERROR: eps")


def assert_hit_layout(text: str, payload: dict) -> None:
    """`text` is `hit`'s layout of `payload`, whose last member is "rows".

    It loads equal to `payload`; up to the "rows" key, its bytes are json's
    indent-2 text of the other members; then each row takes one line, its
    key indented by 4, then exactly `json.dumps` of the row; the closing
    braces follow at indent 2 and 0, with a final newline.
    """
    assert json.loads(text) == payload
    head = {key: value for key, value in payload.items() if key != "rows"}
    head_text = json.dumps(head, indent=2)[:-2] + ',\n  "rows": {\n'
    assert text[:len(head_text)] == head_text
    rows = list(payload["rows"].items())
    lines = text[len(head_text):].split("\n")
    assert lines[len(rows):] == ["  }", "}", ""]
    for i, (key, row) in enumerate(rows):
        comma = "," if i < len(rows) - 1 else ""
        assert lines[i] == f"    {json.dumps(key)}: {json.dumps(row)}{comma}"


def test_hit_output_has_one_line_per_row(tmp_path, capsys, fig3_game):
    gpath = write_game(tmp_path, fig3_game)
    out_path = tmp_path / "hit.json"
    code, stdout, _ = run_cli(capsys, "hit", gpath)
    assert code == 0
    assert run_cli(capsys, "hit", gpath, "-o", str(out_path)) == (0, "", "")
    assert_hit_layout(stdout, old_hit_payload(fig3_game))
    assert out_path.read_text() == stdout


def old_hit_payload(game, eps=None) -> dict:
    """`hit`'s output as a nested dict, the way `cmd_hit` once built it for
    `json.dump`."""
    if eps is None:
        hit, method = limit_hitting_probabilities(game), "limit"
    else:
        hit, method = oracle_hitting_matrix(game, float(eps)), "oracle"
    labels = [f"sink_{j}" for j in range(len(hit.sinks))]
    rows = {
        profile_label(pid, game): dict(zip(labels, row))
        for pid, row in enumerate(hit.probabilities.tolist())
    }
    return {
        "schema": 1,
        "command": "hit",
        "method": method,
        "sinks": [list(s) for s in hit.sinks],
        "sink_labels": labels,
        "rounds": hit.rounds,
        "order_trace": hit.order_trace,
        "rows": rows,
    }


@pytest.mark.parametrize("eps", [None, "1e-6"])
def test_hit_text_is_json_dumps_of_nested_rows(tmp_path, capsys, fig3_game, eps):
    # The seeded tie games include collapse rounds and games with several sinks.
    games = [fig3_game] + [random_game(seed, 4, (3,) * 4, "integer", int_max=2)
                           for seed in range(40, 50)]
    shapes = set()
    for game in games:
        gpath = write_game(tmp_path, game)
        out_path = tmp_path / "hit.json"
        old = old_hit_payload(game, eps)
        flags = [] if eps is None else ["--oracle-eps", eps]
        code, stdout, _ = run_cli(capsys, "hit", gpath, *flags)
        assert code == 0
        assert_hit_layout(stdout, old)
        assert run_cli(capsys, "hit", gpath, *flags, "-o", str(out_path)) == (0, "", "")
        assert out_path.read_text() == stdout
        shapes.add((min(old["rounds"], 1), min(len(old["sinks"]), 2)))
    if eps is None:  # the oracle runs no collapse rounds
        assert (1, 2) in shapes


def test_emit_json_rows_match_json_dumps(capsys):
    # Signed zeros, subnormals, tiny and huge values, and keys json escapes.
    matrix = np.array([[-0.0, 1e-17, 0.1 + 0.2], [5e-324, 1.0, 2.5e300]])
    row_keys, col_keys = ["r\u00e9", 'q"'], ["c1", "c\n2", "c\\3"]
    payload = {"head": [1, {"x": None}], "s": "t"}
    _emit_json(argparse.Namespace(output=None), payload, rows=(row_keys, col_keys, matrix))
    rows = {k: dict(zip(col_keys, row)) for k, row in zip(row_keys, matrix.tolist())}
    assert_hit_layout(capsys.readouterr().out, {**payload, "rows": rows})


@pytest.mark.parametrize("matrix", [
    pytest.param([[0.0, 0.0, 0.25, 0.0, 0.0, 0.75], [0.0, 1.0, 0.0, 0.0, 0.0, 0.0]],
                 id="mostly-zero"),
    pytest.param([[0.0] * 4, [0.5, 0.0, 0.0, 0.5], [0.0] * 4], id="all-zero-rows"),
    pytest.param([[1.0, 0.0, 0.0], [0.0, 0.0, 1.0], [0.3, 0.0, 0.7]], id="first-or-last-cell"),
    pytest.param([[0.1, 0.2, 0.3, 0.4], [0.25, 0.25, 0.25, 0.25]], id="dense"),
    pytest.param([[0.0, -0.0, 0.0, 5e-324, 0.0], [-0.0, 0.0, 0.0, 0.0, 5e-324]],
                 id="signed-zero-and-subnormal"),
])
def test_emit_json_sparse_rows_match_json_dumps(capsys, matrix):
    # The writer builds a +0.0 cell from its column's zero text, every other cell itself.
    row_keys = [f"({i})" for i in range(len(matrix))]
    col_keys = [f"sink_{j}" for j in range(len(matrix[0]))]
    payload = {"command": "hit"}
    _emit_json(argparse.Namespace(output=None), payload,
               rows=(row_keys, col_keys, np.array(matrix)))
    rows = {k: dict(zip(col_keys, row)) for k, row in zip(row_keys, matrix)}
    assert_hit_layout(capsys.readouterr().out, {**payload, "rows": rows})


class WriteRecorder:
    def __init__(self):
        self.writes = []

    def write(self, text):
        self.writes.append(text)


def record_emit(monkeypatch, row_keys, col_keys, matrix) -> tuple[list, dict]:
    """The writes of `_emit_json` of `matrix` under the payload
    {"command": "hit"}, and that payload with its rows as a nested dict."""
    recorder = WriteRecorder()
    monkeypatch.setattr(sys, "stdout", recorder)
    _emit_json(argparse.Namespace(output=None), {"command": "hit"},
               rows=(row_keys, col_keys, np.asarray(matrix)))
    rows = {k: dict(zip(col_keys, row)) for k, row in zip(row_keys, np.asarray(matrix).tolist())}
    return recorder.writes, {"command": "hit", "rows": rows}


def test_emit_json_writes_one_block_at_a_time(monkeypatch):
    matrix = np.array([[0.0, 0.5, 0.5], [0.0, 0.0, 0.0], [1.0, 0.0, -0.0], [0.2, 0.3, 0.5]])
    row_keys, col_keys = [f"({i})" for i in range(4)], ["sink_0", "sink_1", "sink_2"]
    monkeypatch.setattr(sinklimit.cli, "_ROW_BLOCK", 3)
    writes, payload = record_emit(monkeypatch, row_keys, col_keys, matrix)
    # The payload head, one write per block of 3 rows, the closing braces,
    # the final newline.
    head, *block_writes, tail, newline = writes
    assert_hit_layout(head + "".join(block_writes) + tail + newline, payload)
    lines = [f"\n    {json.dumps(k)}: {json.dumps(row)}" for k, row in payload["rows"].items()]
    assert block_writes == [",".join(lines[:3]), "," + lines[3]]


def test_emit_json_rows_across_block_edges(monkeypatch):
    # Two full writer blocks and a partial one.  The rows on each side of the
    # first block edge have their first and last cells set; the first block
    # starts with an all-zero row, the second ends with one, and the third
    # has no nonzero cell at all.
    block = sinklimit.cli._ROW_BLOCK
    matrix = np.zeros((2 * block + block // 2, 5))
    matrix[block // 2] = [0.25, -0.0, 0.0, 5e-324, 0.75 - 5e-324]
    matrix[block - 1] = [0.5, 0.0, 0.0, 0.0, 0.5]
    matrix[block] = [0.1 + 0.2, 0.0, 2.5e300, 0.0, 1 / 3]
    matrix[block + 1, 4] = 1.0
    row_keys = [f"({i},\u00e9)" for i in range(len(matrix))]
    col_keys = [f"sink_{j}" for j in range(5)]
    writes, payload = record_emit(monkeypatch, row_keys, col_keys, matrix)
    assert len(writes) == 1 + 3 + 2
    assert_hit_layout("".join(writes), payload)
    # Each block write holds exactly its rows' lines.
    for b, text in enumerate(writes[1:4]):
        assert text.count("\n") == len(matrix[b * block:(b + 1) * block])


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_emit_json_refuses_non_finite_rows(tmp_path, capsys, bad):
    # `json.dump` would write NaN or Infinity, which is not JSON.
    out_path = tmp_path / "hit.json"
    matrix = np.array([[0.5, 0.5], [0.25, bad]])
    for output in (None, str(out_path)):
        with pytest.raises(ContractViolation):
            _emit_json(argparse.Namespace(output=output), {"command": "hit"},
                       rows=(["(1)", "(2)"], ["sink_0", "sink_1"], matrix))
    assert capsys.readouterr().out == ""
    assert not out_path.exists()


def test_limit_pure_prior_exact(tmp_path, capsys, fig3_game):
    gpath = write_game(tmp_path, fig3_game)
    wpath = tmp_path / "weights.json"
    wpath.write_text(json.dumps([1 / 9] * 9))
    code, out, _ = run_cli(capsys, "limit", gpath, f"pure:{wpath}")
    assert code == 0
    payload = json.loads(out)
    assert payload["method"] == "exact"
    dist = payload["distribution"]
    total = dist["sink_0"] + dist["sink_1"]
    assert total == pytest.approx(1.0, abs=1e-9)
    assert dist["sink_0"] == pytest.approx(
        np.mean([1, 19 / 30, 1, 0.6, 0, 0.5, 13 / 15, 1 / 3, 1]), abs=1e-9
    )


def test_limit_weights_must_sum_to_one(tmp_path, capsys, fig3_game):
    gpath = write_game(tmp_path, fig3_game)
    wpath = tmp_path / "weights.json"
    wpath.write_text(json.dumps([0.5] * 9))
    code, _, err = run_cli(capsys, "limit", gpath, f"pure:{wpath}")
    assert code == 2
    assert err.startswith("INPUT_ERROR:")


@pytest.mark.parametrize("command", ["limit", "simulate"])
def test_pure_weights_must_be_finite(tmp_path, capsys, fig3_game, command):
    gpath = write_game(tmp_path, fig3_game)
    wpath = tmp_path / "weights.json"
    wpath.write_text(json.dumps([float("nan"), 1.0] + [0.0] * 7))
    code, out, err = run_cli(capsys, command, gpath, f"pure:{wpath}", "--seed", "5")
    assert code == 2
    assert out == ""
    assert err.startswith("INPUT_ERROR:")


@pytest.mark.parametrize("weights", [[True] + [False] * 8, ["1"] + ["0"] * 8])
def test_pure_weights_must_be_numbers(tmp_path, capsys, fig3_game, weights):
    gpath = write_game(tmp_path, fig3_game)
    wpath = tmp_path / "weights.json"
    wpath.write_text(json.dumps(weights))
    code, out, err = run_cli(capsys, "limit", gpath, f"pure:{wpath}")
    assert (code, out) == (2, "")
    assert err == "INPUT_ERROR: weights: entries must be numbers\n"


@pytest.mark.parametrize("utilities", [[1e308, -1e308], [0, 1e308, 1.5e308]])
@pytest.mark.parametrize("command", ["sinks", "hit", "limit", "export-dot"])
def test_payoff_differences_that_overflow_exit_two(tmp_path, capsys, command, utilities):
    # Every payoff is finite, but a gain or a profile's total gain is not.
    gpath = tmp_path / "game.json"
    gpath.write_text(json.dumps(
        {"players": 1, "strategies": [len(utilities)], "utilities": [utilities]}
    ))
    wpath = tmp_path / "weights.json"
    wpath.write_text(json.dumps([1.0] + [0.0] * (len(utilities) - 1)))
    argv = [command, str(gpath)] + ([f"pure:{wpath}"] if command == "limit" else [])
    code, out, err = run_cli(capsys, *argv)
    assert (code, out) == (2, "")
    assert err == "INPUT_ERROR: utilities: payoff differences overflow a float\n"


def test_payoff_gains_near_the_float_limit_solve(tmp_path, capsys):
    # Every single gain and every profile's total gain is 1e308 or less.
    gpath = tmp_path / "game.json"
    gpath.write_text(json.dumps({"players": 1, "strategies": [3], "utilities": [[0, 0, 1e308]]}))
    code, out, err = run_cli(capsys, "hit", str(gpath))
    assert (code, err) == (0, "")
    rows = json.loads(out)["rows"]
    assert rows == {f"({a})": {"sink_0": 1.0} for a in (1, 2, 3)}


@pytest.mark.parametrize("tolerance", ["-0.5", "nan"])
@pytest.mark.parametrize("command", ["sinks", "hit"])
def test_tie_tolerance_must_be_finite_and_nonnegative(tmp_path, capsys, fig3_game,
                                                      command, tolerance):
    gpath = write_game(tmp_path, fig3_game)
    code, out, err = run_cli(capsys, command, gpath, f"--tie-tolerance={tolerance}")
    assert code == 2
    assert out == ""
    assert err.startswith("INPUT_ERROR: tie tolerance")


@pytest.mark.parametrize("bad", [
    ["uniform", "--max-samples", "0"],
    ["uniform", "--runs-per-sample", "0"],
    ["uniform", "--eta", "nan"],
    ["uniform", "--delta", "inf"],
    ["uniform", "--tv-tol", "nan"],
    ["dirichlet:nan"],
    ["dirichlet:inf"],
    ["uniform", "--runs-per-sample", str(10 ** 400)],
    ["uniform", "--runs-per-sample", str(np.iinfo(np.intp).max + 1)],
])
def test_bad_simulation_inputs_exit_two(tmp_path, capsys, fig2_game, bad):
    gpath = write_game(tmp_path, fig2_game)
    prior, *flags = bad
    code, out, err = run_cli(
        capsys, "simulate", gpath, prior, "--seed", "1", "--max-steps", "200",
        "--max-samples", "2", "--runs-per-sample", "2", *flags,
    )
    assert code == 2
    assert out == ""
    assert err.startswith("INPUT_ERROR:")
    if flags[:1] == ["--runs-per-sample"] and int(flags[1]) > np.iinfo(np.intp).max:
        # A run count numpy cannot index is refused by name, not by numpy's message.
        assert err.startswith("INPUT_ERROR: runs-per-sample: ")


def test_step_too_large_for_float64_exits_three(tmp_path, capsys, fig2_game):
    # eta = 1e200 cancels every projection to all zeros, and the empty
    # supports fail the run by name.  A numpy warning on the way would fail
    # this test: the suite turns RuntimeWarning into an error.
    code, out, err = run_cli(
        capsys, "limit", write_game(tmp_path, fig2_game), "uniform", "--seed", "1",
        "--eta", "1e200", "--max-samples", "2", "--runs-per-sample", "4",
    )
    assert (code, out) == (3, "")
    assert err.startswith("NUMERIC_ERROR: eta/delta: ")
    assert err.count("\n") == 1


def test_step_too_large_for_float64_writes_one_stderr_line(tmp_path, fig2_game):
    # In a fresh interpreter numpy's warnings reach stderr as they would for
    # a user, so this also sees a warning printed ahead of the diagnostic.
    proc = subprocess.run(
        [sys.executable, "-m", "sinklimit", "limit", write_game(tmp_path, fig2_game),
         "uniform", "--seed", "1", "--eta", "1e200", "--max-samples", "2",
         "--runs-per-sample", "4"],
        capture_output=True, text=True,
    )
    assert (proc.returncode, proc.stdout) == (3, "")
    assert proc.stderr.startswith("NUMERIC_ERROR: eta/delta: ")
    assert proc.stderr.count("\n") == 1


@pytest.mark.parametrize("flags", [
    pytest.param(["--delta", "1e300"], id="1e300"),
    pytest.param(["--delta", "1e308"], id="1e308"),
    pytest.param(["--eta", "1e308", "--delta", "1e308"], id="eta-1e308-delta-1e308"),
])
def test_noise_too_large_for_float64_exits_three(tmp_path, capsys, flags):
    # delta = 1e308 overflows the scaled noise and the projection's sums;
    # delta = 1e300 leaves every coordinate of a row far below -1, so that
    # rounding cancels the row; with eta = 1e308 as well, the best response
    # plus a finite draw overflows in the step itself.  Each run ends in the
    # one diagnostic, in process (where a RuntimeWarning is an error) and in
    # a fresh interpreter (where numpy would print it).
    argv = ["limit", write_game(tmp_path, random_game(1, 2, (3, 3))), "uniform", "--seed", "1",
            *flags, "--max-samples", "2", "--runs-per-sample", "4"]
    code, out, err = run_cli(capsys, *argv)
    proc = subprocess.run([sys.executable, "-m", "sinklimit", *argv],
                          capture_output=True, text=True)
    for code, out, err in [(code, out, err), (proc.returncode, proc.stdout, proc.stderr)]:
        assert (code, out) == (3, "")
        assert err.startswith("NUMERIC_ERROR: eta/delta: ")
        assert err.count("\n") == 1


@pytest.mark.parametrize("command", ["limit", "simulate"])
def test_runs_per_sample_beyond_memory_exits_two(tmp_path, capsys, fig2_game, command):
    # Within numpy's index range, but the start arrays of one block need
    # petabytes, so numpy's allocation fails at once.
    code, out, err = run_cli(
        capsys, command, write_game(tmp_path, fig2_game), "uniform", "--seed", "1",
        "--max-samples", "2", "--runs-per-sample", str(10 ** 15),
    )
    assert code == 2
    assert out == ""
    assert err.startswith("INPUT_ERROR: runs-per-sample: ")
    assert err.count("\n") == 1


@pytest.mark.parametrize("command", ["limit", "simulate"])
def test_simulation_arrays_beyond_memory_exit_two(tmp_path, capsys, fig2_game, monkeypatch,
                                                  command):
    # The start arrays fit, but the noise block, history or draws of
    # `_simulate_batch` do not.
    def out_of_memory(*args):
        raise MemoryError("Unable to allocate 1.14 GiB for an array")

    monkeypatch.setattr(sinklimit.dynamics, "_simulate_batch", out_of_memory)
    code, out, err = run_cli(
        capsys, command, write_game(tmp_path, fig2_game), "uniform", "--seed", "1",
        "--max-samples", "2",
    )
    assert (code, out) == (2, "")
    assert err == "INPUT_ERROR: runs-per-sample: Unable to allocate 1.14 GiB for an array\n"


def test_no_checkpoint_converges_before_a_run_classifies(tmp_path, capsys, fig2_game):
    # Ten steps close no run's face, so no run classifies and every
    # checkpoint is the same all-unclassified point, TV 0 from the one before.
    code, out, _ = run_cli(
        capsys, "limit", write_game(tmp_path, fig2_game), "uniform", "--seed", "1",
        "--max-steps", "10", "--max-samples", "32",
    )
    assert code == 0
    payload = json.loads(out)
    assert (payload["non_converged"], payload["tv_trace"]) == (1.0, [0.0, 0.0, 0.0])
    assert (payload["converged"], payload["samples"]) == (False, 32)


def test_simulation_sinks_follow_tie_tolerance(tmp_path, capsys, fig2_game):
    gpath = write_game(tmp_path, fig2_game)
    code, out, _ = run_cli(capsys, "sinks", gpath, "--tie-tolerance", "10")
    assert code == 0
    sinks = json.loads(out)["sinks"]
    assert sinks == [list(range(9))]
    code, out, _ = run_cli(
        capsys, "limit", gpath, "uniform", "--tie-tolerance", "10", "--seed", "1",
        "--max-steps", "100", "--max-samples", "1", "--runs-per-sample", "2",
    )
    assert code == 0
    assert json.loads(out)["sinks"] == sinks


def test_limit_unknown_prior(tmp_path, capsys, fig3_game):
    code, _, err = run_cli(capsys, "limit", write_game(tmp_path, fig3_game), "gaussian")
    assert code == 2
    assert "prior" in err


def test_limit_simulation_requires_seed(tmp_path, capsys, fig2_game):
    gpath = write_game(tmp_path, fig2_game)
    code, _, err = run_cli(capsys, "limit", gpath, "uniform")
    assert code == 2
    assert err.startswith("INPUT_ERROR: seed")
    for command in ("limit", "simulate"):
        code, out, err = run_cli(capsys, command, gpath, "uniform", "--seed", "-1")
        assert (code, out) == (2, "")
        assert err == "INPUT_ERROR: seed: expected a non-negative integer, got -1\n"


def test_simulate_forces_simulation_for_pure_prior(tmp_path, capsys, fig3_game):
    gpath = write_game(tmp_path, fig3_game)
    wpath = tmp_path / "weights.json"
    weights = [0.0] * 9
    weights[0] = 1.0
    wpath.write_text(json.dumps(weights))
    code, out, _ = run_cli(
        capsys, "simulate", gpath, f"pure:{wpath}", "--seed", "5",
        "--runs-per-sample", "8", "--max-samples", "16",
    )
    assert code == 0
    payload = json.loads(out)
    assert payload["method"] == "simulation"
    assert payload["distribution"]["sink_0"] == 1.0


@pytest.mark.parametrize("command", ["limit", "simulate"])
def test_limit_payload_names_the_command_that_ran(tmp_path, capsys, fig2_game, command):
    gpath = write_game(tmp_path, fig2_game)
    code, out, _ = run_cli(capsys, command, gpath, "uniform", "--seed", "1",
                           "--runs-per-sample", "2", "--max-samples", "1", "--max-steps", "200")
    assert code == 0
    assert json.loads(out)["command"] == command


def test_limit_uniform_deterministic_bytes(tmp_path, capsys, matching_pennies):
    gpath = write_game(tmp_path, matching_pennies)
    args = ("limit", gpath, "uniform", "--seed", "9", "--runs-per-sample", "6",
            "--max-samples", "8", "--max-steps", "2000")
    code_a, out_a, _ = run_cli(capsys, *args)
    code_b, out_b, _ = run_cli(capsys, *args)
    assert code_a == code_b == 0
    assert out_a == out_b
    payload = json.loads(out_a)
    mass = payload["distribution"]["sink_0"]
    assert mass + payload["non_converged"] == pytest.approx(1.0, abs=1e-12)
    assert mass > 0.5


def test_export_dot_fig3(tmp_path, capsys, fig3_game):
    code, out, _ = run_cli(capsys, "export-dot", write_game(tmp_path, fig3_game))
    assert code == 0
    validate_dot(out)
    assert '"(3,3)" -> "(3,1)" [label="0.00"];' in out
    assert '"(3,1)" -> "(3,3)" [label="0.00"];' in out
    # (3,3) drains to sink 0 in the limit, so it is solid sink-0 colored
    assert '"(3,3)" [style=filled' in out


def test_export_dot_single_sink_nodes_single_colored(tmp_path, capsys, matching_pennies):
    code, out, _ = run_cli(capsys, "export-dot", write_game(tmp_path, matching_pennies))
    assert code == 0
    validate_dot(out)
    assert "wedged" not in out


def test_export_dot_fig2_wedges(tmp_path, capsys, fig2_game):
    code, out, _ = run_cli(capsys, "export-dot", write_game(tmp_path, fig2_game))
    assert code == 0
    validate_dot(out)
    # pie split 0.75 / 0.25 for the transient profiles
    assert 'style=wedged' in out and ";0.750000" in out


def response_graph_edge_lines(game) -> set:
    """DOT edge lines drawn straight from the response graph: regular edges
    weighted by their share of the node's total gain, ties both ways."""
    graph = build_response_graph(game)
    regular = [(int(u), int(v), gain) for u, v, _, gain in graph.regular_edges.tolist()]
    total = np.zeros(game.num_profiles)
    for u, _, gain in regular:
        total[u] += gain
    name = [profile_label(pid, game) for pid in range(game.num_profiles)]
    lines = {
        f'"{name[u]}" -> "{name[v]}" [label="{gain / total[u]:.2f}"];'
        for u, v, gain in regular
    }
    for u, v, _ in graph.tie_edges.tolist():
        lines |= {f'"{name[u]}" -> "{name[v]}" [label="0.00"];',
                  f'"{name[v]}" -> "{name[u]}" [label="0.00"];'}
    return lines


@pytest.mark.parametrize("game_name", ["fig3", "random"])
def test_export_dot_edges(tmp_path, capsys, fig3_game, game_name):
    game = fig3_game if game_name == "fig3" else random_game(1, 2, (3, 3), "integer")
    expected = response_graph_edge_lines(game)
    assert any('label="0.00"' in line for line in expected)
    code, out, _ = run_cli(capsys, "export-dot", write_game(tmp_path, game))
    assert code == 0
    edges = [line.strip() for line in out.splitlines() if "->" in line]
    assert len(edges) == len(expected)
    assert set(edges) == expected


BUILDS = ("build_response_graph", "build_cmc", "build_reduced_response_graph")


def count_builds(monkeypatch) -> dict:
    """Calls of each function in `BUILDS` from here on, counted by name."""
    counts = dict.fromkeys(BUILDS, 0)
    for name in BUILDS:
        build = getattr(sinklimit.game, name)

        def counting(*args, _name=name, _build=build, **kwargs):
            counts[_name] += 1
            return _build(*args, **kwargs)

        # `from .game import name` copies the binding: patch every copy.
        for module_name, module in list(sys.modules.items()):
            if module_name.startswith("sinklimit") and getattr(module, name, None) is build:
                monkeypatch.setattr(module, name, counting)
    return counts


# Calls of each of `BUILDS` per command: the exact path builds each structure
# once, and the commands that need only the sinks build only the reduced graph.
BUILD_COUNTS = {
    "hit": (1, 1, 1),
    "limit pure:": (1, 1, 1),
    "export-dot": (1, 1, 1),
    "sinks": (0, 0, 1),
    "limit uniform": (0, 0, 1),
    "simulate": (0, 0, 1),
}


@pytest.mark.parametrize("command, builds", BUILD_COUNTS.items(), ids=list(BUILD_COUNTS))
def test_each_command_builds_each_structure_at_most_once(tmp_path, capsys, monkeypatch,
                                                          fig3_game, command, builds):
    # Figure 3 has a tie edge and a collapse round, so every stage of the exact path runs.
    gpath = write_game(tmp_path, fig3_game)
    wpath = tmp_path / "weights.json"
    wpath.write_text(json.dumps([1 / 9] * 9))
    simulation = ["uniform", "--seed", "1", "--max-samples", "1", "--runs-per-sample", "2"]
    argv = {
        "hit": ["hit", gpath],
        "limit pure:": ["limit", gpath, f"pure:{wpath}"],
        "export-dot": ["export-dot", gpath],
        "sinks": ["sinks", gpath],
        "limit uniform": ["limit", gpath, *simulation],
        "simulate": ["simulate", gpath, *simulation],
    }[command]
    counts = count_builds(monkeypatch)
    code, _, _ = run_cli(capsys, *argv)
    assert code == 0
    assert tuple(counts[name] for name in BUILDS) == builds


def test_random_game_roundtrip_and_determinism(tmp_path, capsys):
    out_a = tmp_path / "a.json"
    out_b = tmp_path / "b.json"
    for out in (out_a, out_b):
        code, _, _ = run_cli(
            capsys, "random-game", "--seed", "3", "-p", "2", "-s", "3,3",
            "-o", str(out),
        )
        assert code == 0
    assert out_a.read_bytes() == out_b.read_bytes()
    payload = json.loads(out_a.read_text())
    assert payload["players"] == 2 and payload["strategies"] == [3, 3]


def test_random_game_file_matches_stdout(tmp_path, capsys):
    argv = ["random-game", "--seed", "3", "-p", "2", "-s", "3,2"]
    code, stdout, _ = run_cli(capsys, *argv)
    assert code == 0
    out = tmp_path / "g.json"
    assert run_cli(capsys, *argv, "-o", str(out)) == (0, "", "")
    assert out.read_text() == stdout == json.dumps(json.loads(stdout), indent=2) + "\n"


@pytest.mark.parametrize("command", ["sinks", "hit", "export-dot", "random-game"])
def test_unwritable_output_exits_two(tmp_path, capsys, fig3_game, command):
    missing = tmp_path / "missing" / "out.json"
    if command == "random-game":
        argv = [command, "--seed", "1", "-p", "2", "-s", "2,2"]
    else:
        argv = [command, write_game(tmp_path, fig3_game)]
    targets = [missing] + ([Path("/dev/full")] if Path("/dev/full").exists() else [])
    for target in targets:  # /dev/full opens, then fails the write with ENOSPC
        code, out, err = run_cli(capsys, *argv, "-o", str(target))
        assert code == 2 and out == ""
        assert err.startswith(f"INPUT_ERROR: output: cannot write {target}: ")
        assert err.count("\n") == 1
    assert not missing.parent.exists()


def test_random_game_integer_mode_has_ties(tmp_path, capsys):
    from sinklimit import build_response_graph, load_game

    out = tmp_path / "g.json"
    code, _, _ = run_cli(
        capsys, "random-game", "--seed", "1", "-p", "2", "-s", "3,3",
        "--mode", "integer", "-o", str(out),
    )
    assert code == 0
    assert len(build_response_graph(load_game(out)).tie_edges) > 0


def test_random_game_requires_seed(capsys):
    code, _, err = run_cli(capsys, "random-game", "-p", "2", "-s", "2,2")
    assert code == 2
    assert err.startswith("INPUT_ERROR: seed")
    code, out, err = run_cli(capsys, "random-game", "--seed", "-1", "-p", "2", "-s", "2,2")
    assert (code, out) == (2, "")
    assert err == "INPUT_ERROR: seed: expected a non-negative integer, got -1\n"


@pytest.mark.parametrize(
    "int_max", ["-1", str(np.iinfo(np.int64).max + 1), "99999999999999999999"]
)
def test_random_game_int_max_out_of_range_exits_two(capsys, int_max):
    code, out, err = run_cli(capsys, "random-game", "--seed", "1", "-p", "2", "-s", "2,2",
                             "--mode", "integer", "--int-max", int_max)
    assert (code, out) == (2, "")
    top = np.iinfo(np.int64).max
    assert err == f"INPUT_ERROR: int-max: expected an integer in 0..{top}, got {int_max}\n"


def test_random_game_int_max_at_the_int64_bound(capsys):
    top = str(np.iinfo(np.int64).max)
    code, out, _ = run_cli(capsys, "random-game", "--seed", "1", "-p", "2", "-s", "2,2",
                           "--mode", "integer", "--int-max", top)
    assert code == 0
    assert len(json.loads(out)["utilities"][0]) == 4


def test_random_game_beyond_memory_exits_two(capsys):
    # 10^14 profiles: one utility tensor alone needs 728 TiB, so numpy's
    # allocation fails at once.
    code, out, err = run_cli(capsys, "random-game", "--seed", "1", "-p", "2",
                             "-s", "10000000,10000000")
    assert (code, out) == (2, "")
    assert err.startswith("INPUT_ERROR: strategies: the game cannot be allocated (")
    assert err.count("\n") == 1


@pytest.mark.parametrize("argv", [
    ["hit", "GAME", "--seed", "1"],
    ["export-dot", "GAME", "--hit", "x"],
    ["random-game", "--seed", "1", "-p", "2", "-s", "2,2", "--tie-tolerance", "1"],
])
def test_flags_only_on_commands_that_read_them(tmp_path, capsys, fig3_game, argv):
    argv = [write_game(tmp_path, fig3_game) if a == "GAME" else a for a in argv]
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == 2
    assert "unrecognized arguments" in capsys.readouterr().err


@pytest.mark.parametrize("command", ["limit", "simulate"])
def test_cli_defaults_equal_library_defaults(command):
    # `build_parser` repeats each default; a library change must not leave it behind.
    args = build_parser().parse_args([command, "game.json", "uniform"])
    # Every option is checked below or is an input, so none can come back
    # without a library default to match.
    assert set(vars(args)) - {"command", "func"} == {
        "game", "prior", "tie_tolerance", "output", "seed", "eta", "delta", "tv_tol",
        "max_steps", "runs_per_sample", "max_samples",
    }
    params = ReplicatorParams()
    for f in dataclasses.fields(ReplicatorParams):
        if f.name != "rng_seed":  # `--seed` has no default: stochastic commands require it
            assert getattr(args, f.name) == getattr(params, f.name), f.name
    estimate = inspect.signature(estimate_limit_distribution).parameters
    for name in ("tv_tol", "runs_per_sample", "max_samples", "tie_tolerance"):
        assert getattr(args, name) == estimate[name].default, name


def test_malformed_game_file(tmp_path, capsys):
    bad = tmp_path / "bad.json"
    bad.write_text('{"players": 2, "strategies": [2, 2]}')
    code, _, err = run_cli(capsys, "sinks", str(bad))
    assert code == 2
    assert err.startswith("INPUT_ERROR: utilities")
    bad.write_text("{nonsense")
    code, _, err = run_cli(capsys, "sinks", str(bad))
    assert code == 2
    assert err.startswith("INPUT_ERROR: json")


# An integer literal beyond the float range: json reads it as an int, and
# converting it to a float raises OverflowError.
HUGE = 10 ** 400
MISSING = "[Errno 2] No such file or directory: 'PATH'"
NOT_JSON = "Expecting property name enclosed in double quotes: line 1 column 2 (char 1)"


@pytest.mark.parametrize("text, message", [
    (None, f"file: cannot read PATH: {MISSING}"),
    ("[1, 2]", "game: top-level JSON value must be an object"),
    ('{"players": 2, "strategies": [2], "utilities": [[0, 0]]}',
     "strategies: expected a list of 2 counts"),
    ('{"players": 2, "strategies": [2, 2], "utilities": [[0, 0, 0, 0]]}',
     "utilities: expected one tensor per player"),
    ('{"players": 2, "strategies": [2, 2], "utilities": [[0, 0, 0, 0], [0, 0, "1", 0]]}',
     "utilities[1]: entries must be numbers"),
    (json.dumps({"players": 2, "strategies": [2, 2], "utilities": [[0, 0, 0, 0], [0, 0, HUGE, 0]]}),
     "utilities[1]: int too large to convert to float"),
], ids=["unreadable", "not-object", "strategies-length", "utilities-count", "string-entry",
        "huge-integer"])
def test_bad_game_files_exit_two(tmp_path, capsys, text, message):
    path = tmp_path / "game.json"
    if text is not None:
        path.write_text(text)
    code, out, err = run_cli(capsys, "sinks", str(path))
    assert (code, out) == (2, "")
    assert err == "INPUT_ERROR: " + message.replace("PATH", str(path)) + "\n"


@pytest.mark.parametrize("text, message", [
    (None, f"weights: cannot read PATH: {MISSING}"),
    ("{nonsense", f"weights: PATH is not valid JSON: {NOT_JSON}"),
    ('{"w": [1]}', "weights: expected a JSON array (or {'weights': [...]})"),
    ("5", "weights: expected a JSON array (or {'weights': [...]})"),
    (json.dumps([1 / 8] * 8), "weights: expected 9 entries, got 8"),
    (json.dumps([1 / 2] * 9), "pure prior weights sum to 4.5, not 1"),
    (json.dumps([HUGE] + [0] * 8), "weights: int too large to convert to float"),
], ids=["unreadable", "not-json", "object-without-weights", "not-array", "wrong-length",
        "not-summing-to-one", "huge-integer"])
def test_bad_weights_files_exit_two(tmp_path, capsys, fig3_game, text, message):
    gpath = write_game(tmp_path, fig3_game)
    wpath = tmp_path / "weights.json"
    if text is not None:
        wpath.write_text(text)
    code, out, err = run_cli(capsys, "limit", gpath, f"pure:{wpath}")
    assert (code, out) == (2, "")
    assert err == "INPUT_ERROR: " + message.replace("PATH", str(wpath)) + "\n"


def test_weights_object_form_matches_array_form(tmp_path, capsys, fig3_game):
    gpath = write_game(tmp_path, fig3_game)
    weights = [1 / 9] * 9
    outs = []
    for name, obj in (("array", weights), ("object", {"weights": weights})):
        wpath = tmp_path / f"{name}.json"
        wpath.write_text(json.dumps(obj))
        code, out, _ = run_cli(capsys, "limit", gpath, f"pure:{wpath}")
        assert code == 0
        outs.append(out)
    assert outs[0] == outs[1]


def test_random_game_strategies_must_be_integers(capsys):
    code, out, err = run_cli(capsys, "random-game", "--seed", "1", "-p", "2", "-s", "2,x")
    assert (code, out) == (2, "")
    assert err == "INPUT_ERROR: strategies: expected comma-separated integers\n"


def test_numeric_failures_exit_three(tmp_path, capsys, fig3_game, monkeypatch):
    import sinklimit.cli as cli_mod

    def boom(*a, **k):
        raise SolverConvergenceError("synthetic failure")

    monkeypatch.setattr(cli_mod.epsmc, "limit_hitting_probabilities", boom)
    code, _, err = run_cli(capsys, "hit", write_game(tmp_path, fig3_game))
    assert code == 3
    assert err.startswith("NUMERIC_ERROR: synthetic failure")


@pytest.mark.parametrize("error", [
    SystemError("gstrf was called with invalid arguments"),
    MemoryError("Unable to allocate 8.00 GiB for an array"),
])
def test_lu_allocation_failure_exits_three(tmp_path, capsys, monkeypatch, error):
    # The transient profiles of this game form one block of 73, which
    # SuperLU solves.
    def failing_splu(*args, **kwargs):
        raise error

    monkeypatch.setattr("scipy.sparse.linalg.splu", failing_splu)
    code, out, err = run_cli(capsys, "hit", write_game(tmp_path, random_game(0, 2, (9, 9))))
    assert (code, out) == (3, "")
    assert err.startswith("NUMERIC_ERROR: sparse LU of 73 states") and str(error) in err
    assert err.count("\n") == 1


def tie_game() -> Game:
    """Two collapse rounds; its pseudosinks and final blocks are all small."""
    return random_game(1238, 2, (3, 3), mode="integer", int_max=1)


def test_dense_solve_allocation_failure_exits_three(tmp_path, capsys, monkeypatch):
    def out_of_memory(A, b):
        raise MemoryError("Unable to allocate 8.00 GiB for an array")

    monkeypatch.setattr(np.linalg, "solve", out_of_memory)
    code, out, err = run_cli(capsys, "hit", write_game(tmp_path, tie_game()))
    assert (code, out) == (3, "")
    assert err.startswith("NUMERIC_ERROR: dense solve of ")
    assert err.endswith("could not allocate its memory"
                        " (MemoryError('Unable to allocate 8.00 GiB for an array'))\n")


def test_hit_with_small_blocks_leaves_sparse_linalg_unloaded(tmp_path):
    # Loading scipy.sparse.linalg costs tens of milliseconds and about 10 MB;
    # a chain whose blocks are all solved dense never needs it.
    game = write_game(tmp_path, tie_game())
    code = (
        "import sys\n"
        "from sinklimit.cli import main\n"
        f"code = main(['hit', {game!r}, '-o', {str(tmp_path / 'hit.json')!r}])\n"
        "print(code, 'scipy.sparse.linalg' in sys.modules)"
    )
    out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, check=True)
    assert out.stdout == "0 False\n"
    assert json.loads((tmp_path / "hit.json").read_text())["rounds"] == 2


def modules_after(statements: str) -> list[str]:
    """The scipy.sparse modules a fresh interpreter holds after `statements`."""
    code = statements + (
        "\nimport json, sys\n"
        "print(json.dumps(sorted(m for m in sys.modules if m.startswith('scipy.sparse'))))"
    )
    out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, check=True)
    return json.loads(out.stdout)


@pytest.mark.parametrize("argv", [
    ["sinks", "{game}"],
    ["random-game", "--seed", "1", "-p", "2", "-s", "3,3"],
    ["limit", "{game}", "uniform", "--seed", "1", "--max-samples", "2"],
    ["simulate", "{game}", "pure:{weights}", "--seed", "1", "--max-samples", "1"],
], ids=["sinks", "random-game", "limit uniform", "simulate pure:"])
def test_commands_without_a_chain_leave_scipy_sparse_unloaded(tmp_path, fig2_game, argv):
    # The sink search and the simulator hold the reduced graph as a numpy
    # CSR pattern; only the profile chain and its solves load scipy.sparse.
    weights = tmp_path / "w.json"
    weights.write_text(json.dumps([1 / 9] * 9))
    argv = [a.format(game=write_game(tmp_path, fig2_game), weights=weights) for a in argv]
    argv += ["-o", str(tmp_path / "out.json")]
    assert modules_after(f"from sinklimit.cli import main\nassert main({argv!r}) == 0") == []
    assert json.loads((tmp_path / "out.json").read_text())


def test_hit_with_a_large_block_loads_sparse_linalg(tmp_path, capsys):
    # The 73-state block of this game goes to SuperLU, loaded on first use;
    # the fresh process writes the bytes this one, with scipy loaded, writes.
    game = write_game(tmp_path, random_game(0, 2, (9, 9)))
    fresh, here = tmp_path / "fresh.json", tmp_path / "here.json"
    loaded = modules_after(
        f"from sinklimit.cli import main\nassert main(['hit', {game!r}, '-o', {str(fresh)!r}]) == 0"
    )
    assert "scipy.sparse.linalg" in loaded
    assert run_cli(capsys, "hit", game, "-o", str(here)) == (0, "", "")
    assert fresh.read_bytes() == here.read_bytes()


def test_state_reduction_allocation_failure_exits_three(tmp_path, capsys, fig3_game,
                                                       monkeypatch):
    def out_of_memory(csr, mask):
        raise MemoryError("Unable to allocate 1.84 GiB for an array")

    monkeypatch.setattr(sinklimit.solver, "_state_reduction_hitting", out_of_memory)
    code, out, err = run_cli(capsys, "hit", write_game(tmp_path, fig3_game),
                             "--oracle-eps", "1e-8")
    assert (code, out) == (3, "")
    assert err == ("NUMERIC_ERROR: state reduction of 9 states could not allocate its memory"
                   " (Unable to allocate 1.84 GiB for an array)\n")


def test_module_entry_point(tmp_path, fig2_game):
    gpath = write_game(tmp_path, fig2_game)
    proc = subprocess.run(
        [sys.executable, "-m", "sinklimit", "sinks", gpath],
        capture_output=True, text=True,
    )
    assert proc.returncode == 0
    assert json.loads(proc.stdout)["sinks"] == [[0, 1, 3, 4], [8]]
