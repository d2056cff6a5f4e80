#!/usr/bin/env python3
"""Benchmark of mateq's solvers on four reference solves (see workloads.py).

Run from the repository root:

    python3 bench/run.py --workload lyap-lap2d --seed 0 --seconds 25 --trace 0
    python3 bench/run.py --workload all      # every workload, one after another

``--trace 0`` measures the end-to-end metrics with nothing traced:

- ``setup_s``: median over builds of the operators and right-hand sides
  with ``mateq.problems``, made at the start, after the ``tracemalloc``
  pass and between the timed solves, at most eight times a run (each time
  at least one build and a quarter second's worth);
- ``peak_mem_mib``: ``tracemalloc`` peak over one solver call, in a pass of
  its own (tracing allocations slows some solves twofold);
- ``solve_rel``: median over the timed solves of the wall time of one
  solver call divided by the median wall time of a fixed reference
  computation that uses no mateq code (``Reference``, of the kind the
  workload names), run right before and right after that solve for a
  tenth of its time (at least 0.1 s).  The solves cycle through the
  workload's right-hand sides; a new one starts only if one more of the
  last one's length still fits in ``--seconds``.  The shared machine runs
  the same code up to half again as slow for seconds to minutes at a
  time; the reference slows with it, so the ratio tracks the solver's own
  cost.  The wall-time medians of both are printed beside it.

``--trace 1`` runs untraced and traced solves of the first right-hand side
alternately, then a ``tracemalloc`` pass, and reports per-layer self times
and counts (spans.py), the solver's own counts and the tracing overhead.

Every solve is checked (``workloads.check``); one that raises or fails the
check counts in ``failed``, and ``failed / attempted`` is the failed
fraction.  The solver counts of each right-hand side must repeat exactly,
within the run and across runs in the same environment (the counts of
earlier runs are kept in ``.bench_out/``).  The last line of standard
output is one JSON object with the keys ``correct``, ``attempted``,
``failed`` and ``metrics``.  A full record with the environment and every
sample, and the traced pass's spans, are written to ``.bench_out/`` in the
repository root.

The test of the benchmark's own code runs with
``python -m pytest bench/test_bench.py``.
"""

import os

# One BLAS thread, set in this process's environment before numpy loads: the
# thread count moves both the times and the iteration counts.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import ctypes  # noqa: E402
import gc  # noqa: E402
import hashlib  # noqa: E402
import itertools  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
import tracemalloc  # noqa: E402
import traceback  # noqa: E402
from pathlib import Path  # noqa: E402

import numpy  # noqa: E402
import scipy  # noqa: E402
import scipy.sparse  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = ROOT / ".bench_out"
SETUP_SLOT_SECONDS = 0.25  # cheap set-ups repeat until this much time is spent
SETUP_SLOTS = 8  # set-up slots between the timed solves, at most, per run
REF_SHARE = 0.1  # reference time after each timed solve, as a share of it
REF_MIN_SECONDS = 0.1  # and at least this
TRACED_REPS = 2

# per-layer metrics read from the spans: (span name, aggregate keys)
LAYERS = [
    ("sparse.spmm", ("self_s", "calls", "cols")),
    ("sparse.transpose", ("self_s", "calls")),
    ("sparse.apply", ("self_s",)),
    ("sparse.estimate_norm2", ("total_s",)),
    ("arnoldi.arnoldi_extend", ("self_s", "calls")),
    ("arnoldi.arnoldi_init", ("total_s",)),
    ("linalg.qr_economy", ("self_s", "calls")),
    ("compression.compress_sym", ("self_s", "calls")),
    ("compression.compress", ("self_s", "calls")),
    ("dense_eq.solve_lyapunov_ldlt", ("self_s", "calls")),
    ("dense_eq.solve_sylvester_dense", ("self_s", "calls")),
    ("residuals.cheap", ("self_s",)),
    ("residuals.true", ("total_s",)),
    ("baselines.block_cg", ("self_s", "calls")),
    ("baselines.driver", ("self_s",)),
    ("restarted.driver", ("self_s",)),
    ("problems.operator", ("total_s",)),
    ("problems.random_rhs", ("total_s",)),
]
UNITS = {"self_s": "s", "total_s": "s", "calls": "count", "cols": "count"}

# Import mateq from this checkout's src, never from anywhere else.
if not (SRC / "mateq" / "__init__.py").is_file():
    sys.exit(f"bench: no mateq source under {SRC}")
sys.path.insert(0, str(SRC))
import mateq  # noqa: E402

if Path(mateq.__file__).resolve().parent != (SRC / "mateq").resolve():
    sys.exit(f"bench: imported mateq from {mateq.__file__}, not from {SRC}")
import spans  # noqa: E402
import workloads  # noqa: E402


def _git_commit():
    """HEAD's commit, read from this checkout's own ``.git``; None without one."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head.removeprefix("ref: ")
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def _source_digest(directory, pattern):
    h = hashlib.sha256()
    for path in sorted(directory.glob(pattern)):
        h.update(path.name.encode() + b"\0" + path.read_bytes())
    return h.hexdigest()


def _blas_threads():
    """Thread count reported by each loaded OpenBLAS library."""
    try:
        with open("/proc/self/maps") as fh:
            paths = sorted({line.split()[-1] for line in fh if "openblas" in line.lower()})
    except OSError:
        paths = []
    found = {}
    for path in paths:
        try:
            lib = ctypes.CDLL(path)
        except OSError:
            continue
        for sym in ("scipy_openblas_get_num_threads64_", "scipy_openblas_get_num_threads",
                    "openblas_get_num_threads64_", "openblas_get_num_threads"):
            fn = getattr(lib, sym, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                found[Path(path).name] = fn()
                break
    return found


def environment():
    try:
        blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas_name = f"{blas['name']} {blas.get('version', '')}".strip()
    except (TypeError, KeyError):
        blas_name = "unknown"
    return {
        "commit": _git_commit(),
        "source_sha256": _source_digest(SRC / "mateq", "*.py*"),
        "bench_sha256": _source_digest(Path(__file__).parent, "*.py"),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": blas_name,
        "blas_threads_pinned": int(os.environ["OPENBLAS_NUM_THREADS"]),
        "blas_threads_reported": _blas_threads(),
        "kernel_backend": mateq.KERNEL_BACKEND,
        "nproc": len(os.sched_getaffinity(0)),
    }


class Reference:
    """A fixed computation that uses no mateq code, timed to gauge the machine.

    The shared machine's slow spells hit interpreter-bound runs of small
    numpy calls much harder than large BLAS and LAPACK calls, so there are
    two kinds, one for each kind of solve:

    - ``narrow``, for solvers working on blocks of a few columns: a Python
      loop, QRs of an n x 3 block, a small dense product, and a
      five-point-stencil matrix times the block, with scipy and as a numpy
      gather and segment sum;
    - ``wide``, for solvers working on bases of many columns: a QR of an
      8000 x 60 block.

    The inputs are the same in every run; one call takes a few tens of ms.
    """

    def __init__(self, kind):
        rng = numpy.random.default_rng(0)
        self._once = {"narrow": self._narrow, "wide": self._wide}[kind]
        self.block = rng.standard_normal((3600, 3))
        self.square = rng.standard_normal((120, 120))
        self.stencil = scipy.sparse.diags([1.0] * 5, [-60, -1, 0, 1, 60], shape=(3600, 3600),
                                          format="csr")
        self.tall = rng.standard_normal((8000, 60))
        self.slot(0.0)  # warm-up, not kept

    def _narrow(self):
        t0 = time.perf_counter()
        total = 0
        for i in range(60_000):
            total += i * i
        a = self.stencil
        for _ in range(60):
            numpy.linalg.qr(self.block)
            self.square @ self.square
            a @ self.block
        for _ in range(10):
            numpy.add.reduceat(a.data[:, None] * self.block[a.indices], a.indptr[:-1], axis=0)
        return time.perf_counter() - t0

    def _wide(self):
        t0 = time.perf_counter()
        numpy.linalg.qr(self.tall)
        return time.perf_counter() - t0

    def slot(self, seconds):
        """Times of runs made one after another, at least one and for ``seconds``."""
        times = [self._once()]
        while sum(times) < seconds:
            times.append(self._once())
        return times


class Runner:
    """Runs one workload's solves, checks each, and counts failures."""

    def __init__(self, wl, ops, rhs):
        self.wl, self.ops, self.rhs = wl, ops, rhs
        self.attempted = 0
        self.failed = 0
        self.counts = {}  # right-hand side index -> counts of its first solve
        self.reports = {}

    def _call(self, i, tracer, memory):
        if memory:
            tracemalloc.start()
            try:
                out = self.wl.solve(self.ops, self.rhs[i])
                return out, tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
        if tracer is not None:
            with tracer.installed(), tracer.span(self.wl.driver):
                return self.wl.solve(self.ops, self.rhs[i]), None
        return self.wl.solve(self.ops, self.rhs[i]), None

    def solve(self, i, tracer=None, memory=False):
        """Solve for right-hand side ``i``; return (seconds, peak bytes).

        Seconds is None when the solver raised; peak bytes is None unless
        ``memory`` asked for a ``tracemalloc`` pass.
        """
        gc.collect()
        self.attempted += 1
        t0 = time.perf_counter()
        try:
            (fac, report), peak = self._call(i, tracer, memory)
        except Exception:  # a raising solve is a failed solve, not a crash
            self.failed += 1
            traceback.print_exc()
            return None, None
        elapsed = time.perf_counter() - t0
        bad = workloads.check(self.wl, self.ops, self.rhs[i], fac, report)
        counts = workloads.counts(report)
        seen = self.counts.setdefault(i, counts)
        if counts != seen:
            bad.append(f"counts {counts} differ from an earlier solve's {seen}")
        if bad:
            self.failed += 1
            print(f"FAILED {self.wl.name} rhs {i}: " + "; ".join(bad), file=sys.stderr)
        self.reports.setdefault(i, report)
        return elapsed, peak


def _median(xs):
    xs = [x for x in xs if x is not None]
    return statistics.median(xs) if xs else None


def measure_end_to_end(wl, seed, seconds):
    setups = []

    def build():
        """Build at least once and for SETUP_SLOT_SECONDS; return the last build."""
        spent = 0.0
        while spent < SETUP_SLOT_SECONDS:
            gc.collect()
            t0 = time.perf_counter()
            built = wl.build(seed)
            setups.append(time.perf_counter() - t0)
            spent += setups[-1]
        return built

    # Set-ups are spread over the run, between the solves, so that their
    # median does not hang on the machine's speed during one short burst;
    # short solves get a set-up slot only every few solves.
    ops, rhs = build()
    run = Runner(wl, ops, rhs)
    _, peak = run.solve(0, memory=True)  # also the warm-up before timing
    build()
    ref = Reference(wl.reference)
    slots = [ref.slot(REF_MIN_SECONDS)]
    solves, ratios = [], []
    start = last_slot = time.perf_counter()
    for j in itertools.count():
        t = run.solve(j % wl.rhs_count)[0]
        solves.append(t)
        slots.append(ref.slot(max(REF_SHARE * (t or 0.0), REF_MIN_SECONDS)))
        if t is not None:  # the reference runs right before and after this solve
            ratios.append(t / statistics.median(slots[-2] + slots[-1]))
        if time.perf_counter() - last_slot >= seconds / SETUP_SLOTS:
            build()
            last_slot = time.perf_counter()
        if t is None or (time.perf_counter() - start) + t > seconds:
            break
    n = ops[0].n
    ref_times = [t for slot in slots for t in slot]
    solve_s, ref_s = _median(solves), _median(ref_times)
    metrics = {
        "solve_rel": (_median(ratios), "ratio"),
        "setup_s": (_median(setups), "s"),
        "peak_mem_mib": (peak / 2**20 if peak is not None else None, "MiB"),
    }
    notes = {
        "solve_rel": (f"median of {len(solves)} solves, "
                      + ("n/a" if solve_s is None else f"{solve_s:.4f} s")
                      + f"; reference median {ref_s * 1e3:.2f} ms of {len(ref_times)}"),
        "setup_s": f"median of {len(setups)} set-ups",
        "peak_mem_mib": f"1 solve; {peak / (8 * n) if peak else 0:.1f} n-columns",
    }
    return run, metrics, notes, {"solve_s": solves, "reference_s": slots, "setup_s": setups}


def measure_layers(wl, seed):
    tracer = spans.Tracer()
    with tracer.installed():
        ops, rhs = wl.build(seed)
    run = Runner(wl, ops, rhs)
    originals = spans.bound_objects()
    plain, traced = [], []
    for rep in range(TRACED_REPS):
        plain.append(run.solve(0)[0])
        tracer.solve = rep
        traced.append(run.solve(0, tracer=tracer)[0])
    if any(now is not before for now, before in zip(spans.bound_objects(), originals)):
        raise RuntimeError("a wrapped name was not restored after the traced pass")
    _, peak = run.solve(0, memory=True)

    agg = spans.layer_times(tracer.spans)
    metrics = {}
    for name, keys in LAYERS:
        # set-up spans come from one build; solve spans are averaged per solve
        per = 1 if name.startswith("problems.") else TRACED_REPS
        layer = agg.get(name, {})
        for key in keys:
            value = layer.get(key, 0) / per
            metrics[f"{name}.{key}"] = (value if key.endswith("_s") else round(value), UNITS[key])
    spmm = agg.get("sparse.spmm", {})
    metrics["sparse.spmm.gflop_s"] = (
        spmm["flops"] / spmm["self_s"] / 1e9 if spmm.get("self_s") else 0.0, "GFLOP/s"
    )
    report = run.reports.get(0)
    if report is not None:
        for key, value in workloads.counts(report).items():
            metrics[f"solver.{key}"] = (value, "count")
        metrics["solver.efficiency"] = (report.efficiency, "matvecs/call")
        metrics["solver.true_rel_residual"] = (report.true_relative_residual, "ratio")
    metrics["mem.peak_cols"] = (peak / (8 * ops[0].n) if peak is not None else None, "columns")
    driver = agg.get(wl.driver, {})
    metrics["trace.covered_frac"] = (
        1.0 - driver["self_s"] / driver["total_s"] if driver.get("total_s") else None, "fraction"
    )
    t_plain, t_traced = _median(plain), _median(traced)
    metrics["trace.overhead_frac"] = (
        t_traced / t_plain - 1.0 if t_plain and t_traced else None, "fraction"
    )
    OUT.mkdir(exist_ok=True)
    tracer.write(OUT / f"{wl.name}-seed{seed}-spans.jsonl")
    notes = {
        "sparse.spmm.gflop_s": "computed: 2 * nnz * cols / self time",
        "mem.peak_cols": "tracemalloc peak / (8 n); memmax " + str(wl.memmax or "none"),
        "trace.overhead_frac": f"traced vs untraced, median of {TRACED_REPS} solves each",
    }
    return run, metrics, notes, {"untraced_s": plain, "traced_s": traced}


# environment keys that can change the solver counts of a right-hand side
COUNT_ENV = ("source_sha256", "bench_sha256", "numpy", "scipy", "blas", "blas_threads_reported",
             "kernel_backend")


def check_counts_across_runs(wl, seed, run, env):
    """Fail every solve whose counts differ from an earlier run's.

    The counts of each right-hand side are kept in ``.bench_out`` with the
    environment they were measured in; a run in the same environment must
    repeat them exactly.
    """
    path = OUT / f"{wl.name}-seed{seed}-counts.json"
    key = {k: env[k] for k in COUNT_ENV}
    mine = {str(i): c for i, c in run.counts.items()}
    earlier = json.loads(path.read_text()) if path.is_file() else {}
    if earlier.get("environment") == key:
        for i, c in mine.items():
            if earlier["counts"].get(i, c) != c:
                run.failed += 1
                print(f"FAILED {wl.name} rhs {i}: counts {c} differ from an earlier run's "
                      f"{earlier['counts'][i]}", file=sys.stderr)
        mine = mine | earlier["counts"]  # the first run stays the reference
    OUT.mkdir(exist_ok=True)
    path.write_text(json.dumps({"environment": key, "counts": mine}, indent=1))


def run_workload(wl, seed, seconds, trace, env):
    if trace:
        run, metrics, notes, samples = measure_layers(wl, seed)
    else:
        run, metrics, notes, samples = measure_end_to_end(wl, seed, seconds)
    check_counts_across_runs(wl, seed, run, env)
    print(f"== {wl.name}  seed {seed}  trace {trace}")
    for name, (value, unit) in metrics.items():
        shown = "n/a" if value is None else f"{value:.6g}"
        print(f"  {name:38s} {shown:>12s} {unit:12s} {notes.get(name, '')}")
    print(f"  {'failed_frac':38s} {run.failed / run.attempted:>12.6g} {'fraction':12s} "
          f"{run.failed} of {run.attempted} solves")
    record = {
        "workload": wl.name, "seed": seed, "seconds": seconds, "trace": trace,
        "environment": env, "attempted": run.attempted, "failed": run.failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
        "samples": samples,
        "counts": {str(i): c for i, c in run.counts.items()},
    }
    OUT.mkdir(exist_ok=True)
    (OUT / f"{wl.name}-seed{seed}-trace{trace}.json").write_text(json.dumps(record, indent=1))
    return run, metrics


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", default="all")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=25.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.workload == "all":
        chosen = list(workloads.WORKLOADS.values())
    elif args.workload in workloads.WORKLOADS:
        chosen = [workloads.WORKLOADS[args.workload]]
    else:
        parser.error(f"unknown workload {args.workload!r}; choose from "
                     f"{', '.join(workloads.WORKLOADS)} or all")
    if args.seed < 0:
        parser.error("--seed must be nonnegative")

    env = environment()
    print("environment: " + json.dumps(env))
    if any(n != 1 for n in env["blas_threads_reported"].values()):
        print("warning: BLAS is not running on one thread", file=sys.stderr)
    attempted = failed = 0
    result = {}
    for wl in chosen:
        run, metrics = run_workload(wl, args.seed, args.seconds, args.trace, env)
        attempted += run.attempted
        failed += run.failed
        prefix = "" if len(chosen) == 1 else f"{wl.name}/"
        result.update({prefix + k: {"value": v, "unit": u} for k, (v, u) in metrics.items()})
    print(json.dumps({"correct": failed == 0 and attempted > 0, "attempted": attempted,
                      "failed": failed, "metrics": result}))


if __name__ == "__main__":
    main()
