import json
import re
import subprocess
import sys

import numpy as np
import pytest

import sinklimit.game
from sinklimit import (
    SolverConvergenceError,
    build_response_graph,
    game_to_json,
    profile_label,
    random_game,
    save_game,
)
from sinklimit.cli import main

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
    assert payload["sink_labels"] == ["sink_0 {(1,1)}"]


def test_hit_fig3_rows(tmp_path, capsys, fig3_game):
    code, out, _ = run_cli(capsys, "hit", write_game(tmp_path, fig3_game))
    assert code == 0
    payload = json.loads(out)
    assert payload["rounds"] == 1
    row = payload["rows"]["(3,3)"]
    assert row["sink_0 {(1,1)}"] == 1.0
    assert row["sink_1 {(2,2)}"] == 0.0
    member = payload["rows"]["(2,2)"]
    assert member["sink_1 {(2,2)}"] == 1.0


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


def test_limit_pure_prior_exact(tmp_path, capsys, fig3_game):
    gpath = write_game(tmp_path, fig3_game)
    wpath = tmp_path / "weights.json"
    wpath.write_text(json.dumps([1 / 9] * 9))
    code, out, _ = run_cli(capsys, "limit", gpath, f"pure:{wpath}")
    assert code == 0
    payload = json.loads(out)
    assert payload["method"] == "exact"
    dist = payload["distribution"]
    total = dist["sink_0 {(1,1)}"] + dist["sink_1 {(2,2)}"]
    assert total == pytest.approx(1.0, abs=1e-9)
    assert dist["sink_0 {(1,1)}"] == pytest.approx(
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
    ["uniform", "--extinction-floor", "nan"],
    ["uniform", "--tv-tol", "nan"],
    ["dirichlet:nan"],
    ["dirichlet:inf"],
    ["pure", "--vertex-smoothing", "nan"],
    ["pure", "--vertex-smoothing", "2"],
    ["pure", "--vertex-smoothing=-0.5"],
])
def test_bad_simulation_inputs_exit_two(tmp_path, capsys, fig2_game, bad):
    gpath = write_game(tmp_path, fig2_game)
    prior, *flags = bad
    if prior == "pure":
        wpath = tmp_path / "weights.json"
        wpath.write_text(json.dumps([1.0] + [0.0] * 8))
        prior = f"pure:{wpath}"
    code, out, err = run_cli(
        capsys, "simulate", gpath, prior, "--seed", "1", "--max-steps", "200",
        "--max-samples", "2", "--runs-per-sample", "2", *flags,
    )
    assert code == 2
    assert out == ""
    assert err.startswith("INPUT_ERROR:")


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
    code, _, err = run_cli(capsys, "limit", write_game(tmp_path, fig2_game), "uniform")
    assert code == 2
    assert err.startswith("INPUT_ERROR: seed")


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
    assert payload["distribution"]["sink_0 {(1,1)}"] == 1.0


def test_limit_uniform_deterministic_bytes(tmp_path, capsys, matching_pennies):
    gpath = write_game(tmp_path, matching_pennies)
    args = ("limit", gpath, "uniform", "--seed", "9", "--runs-per-sample", "6",
            "--max-samples", "8", "--max-steps", "2000")
    code_a, out_a, _ = run_cli(capsys, *args)
    code_b, out_b, _ = run_cli(capsys, *args)
    assert code_a == code_b == 0
    assert out_a == out_b
    payload = json.loads(out_a)
    mass = payload["distribution"]["sink_0 {(1,1),(2,1),(1,2),(2,2)}"]
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


def test_export_dot_reuses_hit_file(tmp_path, capsys, fig2_game):
    gpath = write_game(tmp_path, fig2_game)
    hit_path = tmp_path / "hit.json"
    code, out, _ = run_cli(capsys, "hit", gpath, "-o", str(hit_path))
    assert code == 0
    code, out, _ = run_cli(capsys, "export-dot", gpath, "--hit", str(hit_path))
    assert code == 0
    validate_dot(out)
    # pie split 0.75 / 0.25 for the transient profiles
    assert 'style=wedged' in out and ";0.750000" in out


def response_graph_edge_lines(game) -> set:
    """DOT edge lines drawn straight from the response graph: regular edges
    weighted by their share of the node's total gain, ties both ways."""
    graph = build_response_graph(game)
    total = np.zeros(game.num_profiles)
    for u, _, _, gain in graph.regular_edges:
        total[u] += gain
    name = [profile_label(pid, game) for pid in range(game.num_profiles)]
    lines = {
        f'"{name[u]}" -> "{name[v]}" [label="{gain / total[u]:.2f}"];'
        for u, v, _, gain in graph.regular_edges
    }
    for u, v, _ in graph.tie_edges:
        lines |= {f'"{name[u]}" -> "{name[v]}" [label="0.00"];',
                  f'"{name[v]}" -> "{name[u]}" [label="0.00"];'}
    return lines


@pytest.mark.parametrize("game_name", ["fig3", "random"])
def test_export_dot_edges_and_response_graph_builds(tmp_path, capsys, monkeypatch,
                                                     fig3_game, game_name):
    game = fig3_game if game_name == "fig3" else random_game(1, 2, (3, 3), "integer")
    expected = response_graph_edge_lines(game)
    assert any('label="0.00"' in line for line in expected)
    gpath = write_game(tmp_path, game)
    hit_path = tmp_path / "hit.json"
    assert run_cli(capsys, "hit", gpath, "-o", str(hit_path))[0] == 0
    calls = []
    build = sinklimit.game.build_response_graph

    def counting_build(*args, **kwargs):
        calls.append(args)
        return build(*args, **kwargs)

    # `from .game import build_response_graph` copies the binding: patch every copy.
    for name, module in list(sys.modules.items()):
        if name.startswith("sinklimit") and getattr(module, "build_response_graph", None) is build:
            monkeypatch.setattr(module, "build_response_graph", counting_build)
    for extra, builds in (([], 2), (["--hit", str(hit_path)], 1)):
        calls.clear()
        code, out, _ = run_cli(capsys, "export-dot", gpath, *extra)
        assert code == 0
        assert len(calls) == builds
        edges = [line.strip() for line in out.splitlines() if "->" in line]
        assert len(edges) == len(expected)
        assert set(edges) == expected


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


def test_random_game_integer_mode_has_ties(tmp_path, capsys):
    from sinklimit import build_response_graph, load_game

    out = tmp_path / "g.json"
    code, _, _ = run_cli(
        capsys, "random-game", "--seed", "1", "-p", "2", "-s", "3,3",
        "--mode", "integer", "-o", str(out),
    )
    assert code == 0
    assert build_response_graph(load_game(out)).tie_edges


def test_random_game_requires_seed(capsys):
    code, _, err = run_cli(capsys, "random-game", "-p", "2", "-s", "2,2")
    assert code == 2
    assert err.startswith("INPUT_ERROR: seed")


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


def test_numeric_failures_exit_three(tmp_path, capsys, fig3_game, monkeypatch):
    import sinklimit.cli as cli_mod

    def boom(*a, **k):
        raise SolverConvergenceError("synthetic failure")

    monkeypatch.setattr(cli_mod.epsmc, "limit_hitting_probabilities", boom)
    code, _, err = run_cli(capsys, "hit", write_game(tmp_path, fig3_game))
    assert code == 3
    assert err.startswith("NUMERIC_ERROR: synthetic failure")


def test_module_entry_point(tmp_path, fig2_game):
    gpath = write_game(tmp_path, fig2_game)
    proc = subprocess.run(
        [sys.executable, "-m", "sinklimit", "sinks", gpath],
        capture_output=True, text=True,
    )
    assert proc.returncode == 0
    assert json.loads(proc.stdout)["sinks"] == [[0, 1, 3, 4], [8]]
