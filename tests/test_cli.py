import json
import os

import numpy as np
import pytest

from mateq import (
    SolverConfig,
    laplacian_2d,
    random_rhs,
    read_dense_matrix_market,
    read_matrix_market,
    restarted_sylv,
)
from mateq import baselines, restarted
from mateq.cli import main


def run(args):
    return main(args)


def test_gen_writes_operator_and_rhs(tmp_path):
    out = str(tmp_path / "A.mtx")
    rhs = str(tmp_path / "C.mtx")
    code = run(["gen", "--problem", "laplacian2d", "--n", "6", "--out", out,
                "--rhs-out", rhs, "--s", "2", "--seed", "3", "--normalize"])
    assert code == 0
    A = read_matrix_market(out)
    assert A.n == 36
    ref = laplacian_2d(6)
    assert np.array_equal(A.to_dense(), ref.to_dense())
    C = read_dense_matrix_market(rhs)
    assert C.shape == (36, 2)
    assert abs(np.linalg.norm(C @ C.T) - 1.0) <= 1e-13


def test_gen_convdiff_selects_field(tmp_path):
    from mateq import convdiff_3d

    for field in ("wA", "wB"):
        out = str(tmp_path / f"{field}.mtx")
        code = run(["gen", "--problem", "convdiff3d", "--n", "3", "--field", field,
                    "--out", out])
        assert code == 0
        back = read_matrix_market(out)
        ref = convdiff_3d(3, 0.01, field)
        assert np.array_equal(back.to_dense(), ref.to_dense())


def test_gen_writes_the_second_factor_beside_the_first(tmp_path):
    # inside a directory named *.mtx only the file name's suffix may change
    (tmp_path / "runs.mtx").mkdir()
    rhs = tmp_path / "runs.mtx" / "C.mtx"
    code = run(["gen", "--problem", "convdiff3d", "--n", "3", "--out", str(tmp_path / "A.mtx"),
                "--rhs-out", str(rhs), "--s", "2", "--seed", "3"])
    assert code == 0
    C, D = (read_dense_matrix_market(str(rhs.with_name(name))) for name in ("C.mtx", "C_D.mtx"))
    ref_c, ref_d = random_rhs(27, 2, 3, normalize=False, pair=True)
    assert np.array_equal(C, ref_c) and np.array_equal(D, ref_d)


@pytest.mark.parametrize("solver", ["restarted-lyap", "restarted-sylv", "eksm-bcg",
                                    "eksm-bgmres", "sksm-two-pass"])
def test_every_solver_rejects_a_bad_residual_tolerance(monkeypatch, capsys, solver):
    def no_norm_estimate(A):
        raise AssertionError("the solve started")

    for module in (restarted, baselines):
        monkeypatch.setattr(module, "estimate_norm2", no_norm_estimate)
    code = run(["solve", "--problem", "laplacian2d", "--n", "4", "--solver", solver,
                "--tol-res", "-1"])
    assert code == 1
    assert "mateq: error: tol_res must be positive" in capsys.readouterr().err


def test_solve_writes_report_and_history(tmp_path):
    rep_path = str(tmp_path / "rep.json")
    hist = str(tmp_path / "h")
    code = run(["solve", "--problem", "laplacian2d", "--n", "8", "--s", "2",
                "--seed", "1", "--normalize", "--solver", "restarted-lyap",
                "--memmax", "40", "--tol-res", "1e-7", "--out", rep_path,
                "--history-out", hist, "--verify"])
    assert code == 0
    rep = json.load(open(rep_path))
    assert rep["converged"] is True
    assert rep["solver"] == "restarted-lyap"
    assert len(rep["residual_history"]) == rep["iterations"]
    assert rep["explicit_history"] is not None
    lines = open(hist + "_residual_norms.dat").read().splitlines()
    assert len(lines) == rep["iterations"]
    first_it, first_val = lines[0].split()
    assert int(first_it) == 1
    assert float(first_val) > 0
    for suffix in ("_cycle_markers", "_res_ranks", "_sol_ranks", "_eig"):
        assert os.path.exists(hist + suffix + ".dat")


def _dat_rows(path):
    return [line.split() for line in open(path).read().splitlines()]


def _assert_measured_residual_rows(hist, rep):
    """Steps that skipped their projected solve hold null and get no row."""
    rows = _dat_rows(hist + "_residual_norms.dat")
    measured = [(i, r) for i, r in enumerate(rep["residual_history"], start=1) if r is not None]
    assert len(measured) < rep["iterations"]
    assert [int(i) for i, _ in rows] == [i for i, _ in measured]
    assert [float(r) for _, r in rows] == pytest.approx(
        [r / rep["rhs_norm"] for _, r in measured], rel=1e-6)


def test_history_files_of_a_restarted_solve_match_the_report(tmp_path):
    rep_path = str(tmp_path / "rep.json")
    hist = str(tmp_path / "h")
    code = run(["solve", "--problem", "laplacian2d", "--n", "8", "--s", "2",
                "--seed", "1", "--normalize", "--solver", "restarted-lyap",
                "--memmax", "32", "--tol-res", "1e-7", "--out", rep_path,
                "--history-out", hist])
    assert code == 0
    rep = json.load(open(rep_path))
    assert rep["restarts"] >= 1 and len(rep["residual_ranks"]) == rep["restarts"]
    for suffix, key in (("_res_ranks", "residual_ranks"), ("_sol_ranks", "solution_ranks")):
        rows = _dat_rows(hist + suffix + ".dat")
        assert rows == [[str(k), str(r)] for k, r in enumerate(rep[key])]
    rows = _dat_rows(hist + "_eig.dat")
    assert [int(k) for k, _, _ in rows] == list(range(len(rep["min_eigenvalues"])))
    assert [float(e) for _, e, _ in rows] == pytest.approx(rep["min_eigenvalues"], rel=1e-6)
    _assert_measured_residual_rows(hist, rep)
    # a cycle's first step is always measured: one marker per cycle
    rows = _dat_rows(hist + "_cycle_markers.dat")
    assert [int(i) for i, _ in rows] == [start + 1 for start in rep["cycle_starts"]]
    marked = [rep["residual_history"][start] / rep["rhs_norm"] for start in rep["cycle_starts"]]
    assert [float(r) for _, r in rows] == pytest.approx(marked, rel=1e-6)


def test_history_file_of_an_sksm_solve_holds_only_measured_steps(tmp_path):
    rep_path = str(tmp_path / "rep.json")
    hist = str(tmp_path / "h")
    code = run(["solve", "--problem", "laplacian2d", "--n", "12", "--s", "2",
                "--seed", "1", "--normalize", "--solver", "sksm-two-pass",
                "--tol-res", "1e-8", "--out", rep_path, "--history-out", hist])
    assert code == 0
    rep = json.load(open(rep_path))
    assert rep["converged"] and len(rep["residual_history"]) == rep["iterations"]
    assert rep["residual_history"][-1] is not None
    _assert_measured_residual_rows(hist, rep)


def test_solve_file_problem_roundtrip(tmp_path):
    a_path = str(tmp_path / "A.mtx")
    run(["gen", "--problem", "laplacian2d", "--n", "7", "--out", a_path])
    code = run(["solve", "--problem", "file", "--a-file", a_path, "--s", "2",
                "--seed", "2", "--normalize", "--solver", "restarted-lyap",
                "--memmax", "40", "--tol-res", "1e-6",
                "--out", str(tmp_path / "r.json")])
    assert code == 0


def test_solve_report_deterministic(tmp_path):
    paths = [str(tmp_path / f"r{i}.json") for i in range(2)]
    for p in paths:
        code = run(["solve", "--problem", "laplacian2d", "--n", "8", "--s", "2",
                    "--seed", "9", "--normalize", "--solver", "restarted-lyap",
                    "--memmax", "40", "--tol-res", "1e-7", "--out", p])
        assert code == 0
    reps = [json.load(open(p)) for p in paths]
    for r in reps:
        r.pop("wall_time_s")
    assert json.dumps(reps[0], sort_keys=True) == json.dumps(reps[1], sort_keys=True)


def test_solve_nonconvergence_exit_code(tmp_path):
    code = run(["solve", "--problem", "laplacian2d", "--n", "10", "--s", "2",
                "--seed", "0", "--normalize", "--solver", "restarted-lyap",
                "--memmax", "40", "--tol-res", "1e-9", "--max-restarts", "0",
                "--out", str(tmp_path / "r.json")])
    assert code == 2


def test_incompatible_solver_problem_is_an_error(tmp_path):
    code = run(["solve", "--problem", "convdiff3d", "--n", "3", "--s", "1",
                "--seed", "0", "--solver", "sksm-two-pass",
                "--out", str(tmp_path / "r.json")])
    assert code == 1


def test_malformed_flags_exit_one(capsys):
    assert run(["solve", "--nope"]) == 1
    assert run(["frobnicate"]) == 1


@pytest.mark.parametrize("command", [["solve", "--solver", "restarted-sylv"],
                                     ["compare", "--solvers", "restarted-sylv"]])
def test_field_is_a_gen_flag_only(capsys, command):
    # solvers always get the wA/wB pair, so a --field here would be ignored
    code = run([*command, "--problem", "convdiff3d", "--n", "3", "--field", "none"])
    assert code == 1
    assert "unrecognized arguments: --field none" in capsys.readouterr().err


@pytest.mark.parametrize("flags,message", [
    (["--problem", "laplacian2d", "--n", "1"], "laplacian2d needs --n >= 2"),
    (["--problem", "convdiff3d", "--n", "1"], "convdiff3d needs --n >= 2"),
    (["--problem", "file"], "--problem file requires --a-file"),
], ids=["laplacian-n", "convdiff-n", "no-a-file"])
def test_problem_flags_are_checked(capsys, flags, message):
    assert run(["solve", *flags, "--solver", "restarted-sylv"]) == 1
    assert f"mateq: error: {message}" in capsys.readouterr().err


def test_compare_table(tmp_path):
    out = str(tmp_path / "table.csv")
    code = run(["compare", "--problem", "laplacian2d", "--n", "8", "--s", "2",
                "--seed", "1", "--normalize",
                "--solvers", "restarted-lyap,eksm-bcg,sksm-two-pass",
                "--memmax", "40", "--tol-res", "1e-6", "--out", out])
    assert code == 0
    lines = open(out).read().splitlines()
    assert lines[0].split(",") == ["solver", "converged", "true_rel_res", "its", "restarts",
                                   "rank", "a_calls", "matvecs", "efficiency", "time_s"]
    assert len(lines) == 4
    assert lines[1].startswith("restarted-lyap,True,")
    assert lines[2].startswith("eksm-cg,True,")
    assert lines[3].startswith("sksm-two-pass,True,")
    assert all(0 < float(line.split(",")[2]) < 1e-5 for line in lines[1:])


# memmax 12 on this problem: restarted-lyap's third residual (rank 8) and
# EKSM's fourth basis pair (max_dim 12) do not fit
@pytest.mark.parametrize("solver", ["restarted-lyap", "eksm-bcg"])
def test_a_spent_budget_exits_not_converged_and_shows_the_true_residual(tmp_path, capsys,
                                                                        solver):
    rep_path = str(tmp_path / "r.json")
    code = run(["solve", "--problem", "laplacian2d", "--n", "10", "--s", "2", "--seed", "3",
                "--normalize", "--solver", solver, "--memmax", "12", "--tol-res", "1e-8",
                "--out", rep_path])
    assert code == 2
    rep = json.load(open(rep_path))
    assert not rep["converged"] and rep["true_residual"] < rep["rhs_norm"]
    summary = capsys.readouterr().err
    assert "NOT converged" in summary
    assert f"rel.res={rep['final_relative_residual']:.3e} " in summary
    assert f"true.rel.res={rep['true_relative_residual']:.3e} " in summary
    assert f"gap={rep['residual_gap']:.3g} " in summary
    out = str(tmp_path / "table.csv")
    assert run(["compare", "--problem", "laplacian2d", "--n", "10", "--s", "2", "--seed", "3",
                "--normalize", "--solvers", solver, "--memmax", "12", "--tol-res", "1e-8",
                "--out", out]) == 2
    row = open(out).read().splitlines()[1].split(",")
    assert row[1:3] == ["False", str(rep["true_relative_residual"])]


def test_compare_rejects_empty_solver_list():
    assert run(["compare", "--problem", "laplacian2d", "--n", "8",
                "--solvers", ""]) == 1


def test_compare_rejects_unknown_solver(capsys):
    assert run(["compare", "--problem", "laplacian2d", "--n", "8",
                "--solvers", "restarted-lyap,bogus"]) == 1
    assert "unknown solver 'bogus'" in capsys.readouterr().err


def test_gen_benchmark_scale_file(tmp_path):
    out = str(tmp_path / "A.mtx")
    assert run(["gen", "--problem", "laplacian2d", "--n", "100", "--out", out]) == 0
    with open(out) as fh:
        header = fh.readline()
        size = fh.readline().split()
    assert header.strip().endswith("symmetric")
    assert size[:2] == ["10000", "10000"]
    A = read_matrix_market(out)
    ref = laplacian_2d(100)
    assert A.n == 10000
    assert np.array_equal(A.data, ref.data) and np.array_equal(A.indices, ref.indices)


def test_solve_convdiff_sylvester_path(tmp_path):
    rep_path = str(tmp_path / "r.json")
    code = run(["solve", "--problem", "convdiff3d", "--n", "3", "--s", "2",
                "--seed", "1", "--normalize", "--solver", "restarted-sylv",
                "--memmax", "64", "--tol-res", "1e-6", "--out", rep_path])
    assert code == 0
    rep = json.load(open(rep_path))
    assert rep["counters"]["A"]["a_calls"] == rep["counters"]["B"]["a_calls"]


def _convdiff_files(tmp_path):
    """convdiff_3d(6) wA and wB operator files plus one right-hand-side block file."""
    paths = {k: str(tmp_path / f"{k}.mtx") for k in ("A", "B", "C")}
    for field, key in (("wA", "A"), ("wB", "B")):
        assert run(["gen", "--problem", "convdiff3d", "--n", "6", "--field", field,
                    "--out", paths[key], "--rhs-out", paths["C"], "--s", "2",
                    "--seed", "4", "--normalize"]) == 0
    return paths


@pytest.mark.parametrize("solver", ["restarted-lyap", "eksm-bgmres"])
def test_second_operator_file_makes_a_sylvester_problem(tmp_path, solver):
    # A, B and C files with no --d-file: the form is A X + X B + C C* = 0
    paths = _convdiff_files(tmp_path)
    rep_path = str(tmp_path / "r.json")
    code = run(["solve", "--problem", "file", "--a-file", paths["A"], "--b-file", paths["B"],
                "--c-file", paths["C"], "--solver", solver, "--memmax", "200",
                "--tol-res", "1e-6", "--out", rep_path])
    if solver == "restarted-lyap":
        assert code == 1  # a Lyapunov solver cannot take the second operator
        assert not os.path.exists(rep_path)
    else:
        assert code == 0
        rep = json.load(open(rep_path))
        assert rep["counters"]["B"]["a_calls"] > 0


def test_block_cg_rejects_a_nonsymmetric_lyapunov_file(tmp_path, capsys):
    paths = _convdiff_files(tmp_path)
    code = run(["solve", "--problem", "file", "--a-file", paths["A"], "--c-file", paths["C"],
                "--solver", "eksm-bcg", "--memmax", "60"])
    assert code == 1
    assert "eksm-bcg needs a symmetric (positive definite) operator" in capsys.readouterr().err


def test_sylvester_solver_on_one_operator_uses_its_transpose(tmp_path):
    # A X + X A* + C C* = 0 as a Sylvester equation has B = A*, not A
    paths = _convdiff_files(tmp_path)
    rep_path = str(tmp_path / "r.json")
    code = run(["solve", "--problem", "file", "--a-file", paths["A"], "--s", "2",
                "--seed", "5", "--normalize", "--solver", "restarted-sylv",
                "--memmax", "160", "--tol-res", "1e-6", "--out", rep_path])
    assert code == 0
    rep = json.load(open(rep_path))
    A = read_matrix_market(paths["A"])
    assert not A.symmetric
    C = random_rhs(A.n, 2, 5, True)
    _, ref = restarted_sylv(A, A.transpose(), C, C, SolverConfig(memmax=160, tol_res=1e-6))
    assert rep["residual_history"] == ref.residual_history
    assert rep["true_residual"] == ref.true_residual


def _report_json_converting_numpy_scalars(rep):
    """The serializer as it was when it converted numpy scalars field by field."""
    clean = {}
    for k, v in rep.to_dict().items():
        if isinstance(v, np.floating):
            v = float(v)
        if isinstance(v, list):
            v = [x if x is None else float(x) if isinstance(x, (np.floating, float)) else int(x)
                 for x in v]
        clean[k] = v
    return json.dumps(clean, indent=2, sort_keys=True, allow_nan=True)


@pytest.mark.parametrize("solver, flags", [
    ("restarted-lyap", ["--problem", "laplacian2d", "--verify", "--psd-project"]),
    ("restarted-lyap", ["--problem", "laplacian2d", "--norm", "2"]),
    ("restarted-sylv", ["--problem", "convdiff3d", "--verify", "--norm", "2", "--memmax", "160"]),
    ("eksm-bcg", ["--problem", "laplacian2d"]),
    ("eksm-bgmres", ["--problem", "convdiff3d", "--memmax", "160"]),
    ("sksm-two-pass", ["--problem", "laplacian2d", "--verify"]),
])
def test_report_json_needs_no_numpy_conversion(solver, flags):
    # every report field is already a Python number, bool, None, list or dict
    from mateq import cli

    args = cli._build_parser().parse_args(
        ["solve", "--n", "6", "--s", "2", "--seed", "1", "--normalize", "--solver", solver,
         "--memmax", "48", "--tol-res", "1e-6", *flags])
    rep = cli._run_solver(solver, args, cli._build_problem(args))
    assert rep.converged
    assert cli._report_json(rep) == _report_json_converting_numpy_scalars(rep)
