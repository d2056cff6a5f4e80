"""Command-line harness: generate problems, run solvers, emit reports.

Subcommands
-----------
``gen``
    Write a generated operator (and optionally a right-hand-side block) to
    Matrix Market files.
``solve``
    Run one solver on one problem; write a JSON report plus two-column
    ``.dat`` history files (residual norms, cycle markers, per-cycle ranks).
``compare``
    Run several solvers on the same problem and write a CSV table with one
    row per solver (whether it converged, true relative residual, iterations,
    restarts, rank, A-calls, matvecs, efficiency, time).

Exit codes: 0 converged / success, 2 solver did not converge, 1 any error.
"""

import argparse
import csv
import json
import sys

from .baselines import InnerSolverConfig, eksm_lyap, eksm_sylv, sksm_two_pass
from .mmio import (
    read_dense_matrix_market,
    read_matrix_market,
    write_dense_matrix_market,
    write_matrix_market,
)
from .problems import convdiff_3d, laplacian_2d, random_rhs
from .restarted import SolverConfig, restarted_lyap, restarted_sylv

_SOLVERS = ("restarted-sylv", "restarted-lyap", "eksm-bcg", "eksm-bgmres", "sksm-two-pass")
_NORMS = {"fro": "frobenius", "2": "spectral"}


class _Parser(argparse.ArgumentParser):
    def error(self, message):  # argparse defaults to exit code 2; we reserve that
        self.exit(1, f"{self.prog}: error: {message}\n")


def _build_parser():
    p = _Parser(prog="mateq", description=__doc__.split("\n")[0])
    sub = p.add_subparsers(dest="command", required=True)

    def add_problem_flags(sp):
        sp.add_argument("--problem", required=True, choices=["laplacian2d", "convdiff3d", "file"])
        sp.add_argument("--n", type=int, default=0, help="grid points per direction")
        sp.add_argument("--eps", type=float, default=0.01, help="convdiff3d viscosity")
        sp.add_argument("--a-file", help="operator file for --problem file")
        sp.add_argument("--b-file", help="second operator file (Sylvester form)")
        sp.add_argument("--s", type=int, default=3, help="right-hand-side block width")
        sp.add_argument("--seed", type=int, default=0)
        sp.add_argument("--normalize", action="store_true",
                        help="scale the right-hand side to unit Frobenius norm")
        sp.add_argument("--c-file", help="right-hand-side block file")
        sp.add_argument("--d-file", help="second right-hand-side block file (Sylvester form)")

    g = sub.add_parser("gen", help="write generated operator/right-hand side")
    add_problem_flags(g)
    g.add_argument("--field", default="wA", choices=["wA", "wB", "none"],
                   help="convdiff3d velocity field (solvers always get the wA/wB pair)")
    g.add_argument("--out", required=True, help="operator output path (.mtx)")
    g.add_argument("--rhs-out", help="also write the random right-hand side here")

    sv = sub.add_parser("solve", help="run one solver")
    add_problem_flags(sv)
    _add_solver_flags(sv)
    sv.add_argument("--solver", required=True, choices=_SOLVERS)
    sv.add_argument("--out", help="JSON report path")
    sv.add_argument("--history-out", help="prefix for the .dat history files")

    cp = sub.add_parser("compare", help="run several solvers, write a CSV table")
    add_problem_flags(cp)
    _add_solver_flags(cp)
    cp.add_argument("--solvers", required=True,
                    help="comma-separated subset of: " + ",".join(_SOLVERS))
    cp.add_argument("--out", help="CSV output path (default: stdout)")
    return p


def _add_solver_flags(sp):
    sp.add_argument("--memmax", type=int, default=96,
                    help="basis-column budget of the restarted solvers; EKSM's max_dim "
                         "(halved per basis for Sylvester); unused by sksm-two-pass")
    sp.add_argument("--tol-res", type=float, default=1e-6)
    sp.add_argument("--tol-comp", type=float, default=None,
                    help="compression tolerance of the restarted solvers (default: auto rule)")
    sp.add_argument("--max-restarts", type=int, default=100,
                    help="restart cap of the restarted solvers")
    sp.add_argument("--max-iters", type=int, default=1000, help="cap for sksm-two-pass")
    sp.add_argument("--norm", default="fro", choices=list(_NORMS),
                    help="residual norm of the restarted solvers (the others use fro)")
    sp.add_argument("--inner-tol", type=float, default=1e-8,
                    help="floor of the EKSM inner-solve tolerance, which relaxes "
                         "as the outer residual falls (at most 0.1)")
    sp.add_argument("--verify", action="store_true",
                    help="restarted solvers: dense residual check at every step (n <= 2000); "
                         "unused by eksm-* and sksm-two-pass")
    sp.add_argument("--psd-project", action="store_true",
                    help="project restarted-lyap's final solution onto the SPSD cone")


def _build_problem(args, single=False):
    """Assemble the problem operators and decide its equation form, once.

    The form is Lyapunov, A X + X A* + C C* = 0, exactly when there is no
    second operator and no ``--d-file``; otherwise it is Sylvester,
    A X + X B + C D* = 0.  ``B`` is always set: a missing second operator is
    A*, so a Sylvester solver handed a Lyapunov problem solves that problem.
    With ``single=True`` (the ``gen`` command) a convection-diffusion problem
    yields only the operator selected by ``--field``, without a ``B``, and
    keeps the Sylvester form; solvers always get the benchmark pair (wA, wB).
    """
    if args.problem in ("laplacian2d", "convdiff3d") and args.n < 2:
        raise ValueError(f"{args.problem} needs --n >= 2")
    if args.problem == "laplacian2d":
        A, B = laplacian_2d(args.n), None
    elif args.problem == "convdiff3d":
        if single:
            return {"A": convdiff_3d(args.n, args.eps, args.field), "B": None, "lyap": False}
        A, B = convdiff_3d(args.n, args.eps, "wA"), convdiff_3d(args.n, args.eps, "wB")
    elif not args.a_file:
        raise ValueError("--problem file requires --a-file")
    else:
        A = read_matrix_market(args.a_file)
        B = read_matrix_market(args.b_file) if args.b_file else None
    lyap = B is None and not args.d_file
    return {"A": A, "B": A.transpose() if B is None else B, "lyap": lyap}


def _build_rhs(args, prob):
    """Right-hand-side factors (C, D); D is C in the Lyapunov form."""
    if args.c_file:
        C = read_dense_matrix_market(args.c_file)
        return C, read_dense_matrix_market(args.d_file) if args.d_file else C
    if prob["lyap"]:
        C = random_rhs(prob["A"].n, args.s, args.seed, args.normalize)
        return C, C
    return random_rhs(prob["A"].n, args.s, args.seed, args.normalize, pair=True)


def _run_solver(name, args, prob):
    A, B, lyap_form = prob["A"], prob["B"], prob["lyap"]
    C, D = _build_rhs(args, prob)
    cfg = SolverConfig(
        memmax=args.memmax, k_max=args.max_restarts, tol_res=args.tol_res,
        tol_comp=args.tol_comp, norm=_NORMS[args.norm],
    )
    if name == "restarted-lyap":
        if not lyap_form:
            raise ValueError("restarted-lyap needs a Lyapunov-form problem "
                             "(one operator, no --d-file)")
        _, rep = restarted_lyap(A, C, cfg, verify=args.verify,
                                project_spsd=args.psd_project)
        return rep
    if name == "restarted-sylv":
        _, rep = restarted_sylv(A, B, C, D, cfg, verify=args.verify)
        return rep
    if name in ("eksm-bcg", "eksm-bgmres"):
        kind = "block-cg" if name == "eksm-bcg" else "block-gmres"
        inner = InnerSolverConfig(kind=kind, tol=args.inner_tol)
        if lyap_form:
            if kind == "block-cg" and not A.symmetric:
                raise ValueError("eksm-bcg needs a symmetric (positive definite) operator")
            _, rep = eksm_lyap(A, C, inner, args.tol_res, max_dim=args.memmax)
        else:
            _, rep = eksm_sylv(A, B, C, D, inner, args.tol_res, max_dim=args.memmax // 2)
        return rep
    # sksm-two-pass: argparse's choices and _cmd_compare admit no other name
    if not lyap_form or not A.symmetric:
        raise ValueError("sksm-two-pass needs a symmetric Lyapunov-form problem")
    _, rep = sksm_two_pass(A, C, args.tol_res, max_m=args.max_iters)
    return rep


def _report_json(rep):
    return json.dumps(rep.to_dict(), indent=2, sort_keys=True)


def _write_history(rep, prefix):
    rel = 1.0 / rep.rhs_norm if rep.rhs_norm else 1.0
    with open(f"{prefix}_residual_norms.dat", "w") as fh:
        for i, r in enumerate(rep.residual_history, start=1):
            if r is not None:  # a step that skipped its projected solve
                fh.write(f"{i} {r * rel:.6e}\n")
    with open(f"{prefix}_cycle_markers.dat", "w") as fh:
        for start in rep.cycle_starts:
            if start < len(rep.residual_history):
                fh.write(f"{start + 1} {rep.residual_history[start] * rel:.6e}\n")
    with open(f"{prefix}_res_ranks.dat", "w") as fh:
        for k, r in enumerate(rep.residual_ranks):
            fh.write(f"{k} {r}\n")
    with open(f"{prefix}_sol_ranks.dat", "w") as fh:
        for k, r in enumerate(rep.solution_ranks):
            fh.write(f"{k} {r}\n")
    if rep.min_eigenvalues is not None:
        with open(f"{prefix}_eig.dat", "w") as fh:
            for k, e in enumerate(rep.min_eigenvalues):
                fh.write(f"{k} {e:.6e} 0.0\n")


def _cmd_gen(args):
    prob = _build_problem(args, single=True)
    write_matrix_market(prob["A"], args.out)
    print(f"wrote {prob['A'].n}x{prob['A'].n} operator ({prob['A'].nnz} nonzeros) to {args.out}")
    if args.rhs_out:
        C, D = _build_rhs(args, prob)
        write_dense_matrix_market(C, args.rhs_out)
        print(f"wrote {C.shape[0]}x{C.shape[1]} right-hand side to {args.rhs_out}")
        if D is not C:
            path = (args.rhs_out.removesuffix(".mtx") + "_D.mtx" if args.rhs_out.endswith(".mtx")
                    else args.rhs_out + ".D")
            write_dense_matrix_market(D, path)
            print(f"wrote second right-hand-side factor to {path}")
    return 0


def _cmd_solve(args):
    prob = _build_problem(args)
    rep = _run_solver(args.solver, args, prob)
    text = _report_json(rep)
    if args.out:
        with open(args.out, "w") as fh:
            fh.write(text + "\n")
    else:
        print(text)
    if args.history_out:
        _write_history(rep, args.history_out)
    print(
        f"{rep.solver}: {'converged' if rep.converged else 'NOT converged'} | "
        f"its={rep.iterations} restarts={rep.restarts} rank={rep.solution_rank} "
        f"rel.res={rep.final_relative_residual:.3e} true.rel.res={rep.true_relative_residual:.3e} "
        f"gap={rep.residual_gap:.3g} time={rep.wall_time_s:.2f}s",
        file=sys.stderr,
    )
    return 0 if rep.converged else 2


def _cmd_compare(args):
    names = [s for s in args.solvers.split(",") if s]
    if not names:
        raise ValueError("no solvers given")
    for name in names:
        if name not in _SOLVERS:
            raise ValueError(f"unknown solver {name!r}")
    prob = _build_problem(args)
    rows = []
    all_ok = True
    for name in names:
        rep = _run_solver(name, args, prob)
        all_ok &= rep.converged
        rows.append({
            "solver": rep.solver,
            "converged": rep.converged,
            "true_rel_res": rep.true_relative_residual,
            "its": rep.iterations,
            "restarts": rep.restarts if rep.solver.startswith("restarted") else "",
            "rank": rep.solution_rank,
            "a_calls": rep.counters["A"]["a_calls"],
            "matvecs": rep.counters["A"]["matvecs"],
            "efficiency": round(rep.efficiency, 2),
            "time_s": round(rep.wall_time_s, 3),
        })
    out = open(args.out, "w", newline="") if args.out else sys.stdout
    try:
        writer = csv.DictWriter(out, fieldnames=list(rows[0].keys()))
        writer.writeheader()
        writer.writerows(rows)
    finally:
        if args.out:
            out.close()
    return 0 if all_ok else 2


def main(argv=None):
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return exc.code if exc.code is not None else 0
    try:
        if args.command == "gen":
            return _cmd_gen(args)
        if args.command == "solve":
            return _cmd_solve(args)
        return _cmd_compare(args)
    except BrokenPipeError:  # pragma: no cover
        return 1
    except Exception as exc:
        print(f"mateq: error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
