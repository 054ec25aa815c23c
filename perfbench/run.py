"""expwalk benchmark: one workload, one seed, one run.

Usage, from the root of a checkout::

    python3 perfbench/run.py --workload {certify,walk,census} --seed N \
        --seconds S --trace {0,1}

The workload's ops (``workloads.py``) are generated from the seed and run
in sequence through ``expwalk.cli.run`` in this single-threaded process;
artifacts go to ``perfbench/out/``.  One pass runs every op once; passes
repeat until the next one would end past ``--seconds`` (at least three,
so that the median drops one disturbed pass).
The outputs of the first pass go through the oracles in ``checks.py``;
every later pass must write byte-identical ``data.csv`` and
``summary.json``.

``--trace 0`` reports the end-to-end metrics:

* ``setup_s``: a fresh interpreter importing ``expwalk.cli`` and building
  the configs, run as a child process; median of three.
* ``wall_s``: one pass; median over the passes.
* ``rss_peak_mb``: peak resident set of this process.

``setup_s`` and ``wall_s`` are scaled to a reference machine speed
measured around each pass and probe (see ``CALIB_REF_S``); the raw
seconds are printed beside them.

``--trace 1`` alternates untraced and traced passes and reports the
per-layer metrics (``PER_LAYER``) from the traced ones, with the tracing
overhead.  The last stdout line is one JSON object with ``correct``,
``attempted``, ``failed`` and ``metrics``.  ``fail_frac`` (failed ops /
attempted ops) is printed on every run and is a per-layer metric; an op
fails on a nonzero exit code, an exception, or a failed check.  Each op
of the workload counts once, however many passes repeat it (it failed if
it failed in any pass), so the counts depend on the seed alone and not
on how many passes fit in ``--seconds``.
``correct`` is false when a check fails, a pass writes different bytes,
or an op raises or exits 2; a numerical refusal (exit 3, such as a
contraction fit that does not verify) is a failed op, not a wrong output.
Exit code 0 unless the program is not there (2).  ``--size smoke`` runs
the smallest op lists, for the tests in ``tests/``.
"""
from __future__ import annotations

import argparse
import ctypes
import glob
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
import traceback
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from checks import OpResult, check
from tracing import Tracer, aggregate, median_stats, op_totals, write_spans

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
MIN_PASSES = 3  # and one set-up probe after each of the first MIN_PASSES passes

# The 2-core VM this benchmark was built on switches between speed states
# 1.3-1.6x apart every few tens of seconds (a pure-Python loop and the op
# lists slow down together; process CPU time grows with wall time), which
# moves whole passes.  So a fixed kernel that never touches expwalk, made of
# the program's inner-loop fare (2x2 numpy products and a Python loop), is
# timed before the first pass and after every pass.  Each pass is scaled by
# CALIB_REF_S over the mean of the two kernel times around it, each set-up
# probe by CALIB_REF_S over the kernel time just before it: seconds at the
# machine speed where the kernel takes CALIB_REF_S.  Raw times are printed
# and kept in result.json beside them.
CALIB_REF_S = 0.6

PROBE = (
    "import sys; sys.path[:0] = {paths!r}; import expwalk.cli, workloads; "
    "workloads.build({workload!r}, {seed!r}, {size!r})"
)


def _calls_s(span):
    return [(f"{span}.calls", span, "calls"), (f"{span}.s", span, "s")]


def _per_layer():
    rows = [("cli.run.self_s", "cli.run", "self_s"),
            ("cli.emit_plotdata.s", "cli.emit_plotdata", "s"),
            ("cli.emit_plotdata.rows", "cli.emit_plotdata", "work")]
    rows += _calls_s("expansion.expansion_certificate")
    rows += [("expansion.certificate.self_s", "expansion.certificate", "self_s"),
             ("expansion.optimizer.calls", "expansion.optimizer", "calls"),
             ("expansion.optimizer.nfev", "expansion.optimizer", "work"),
             ("expansion.optimizer.s", "expansion.optimizer", "s")]
    for span in ("expansion.expanding_cone_membership", "measures.convolution_support",
                 "measures.sample_indices", "linalg.wedge_power", "linalg.adjoint_rep"):
        rows += _calls_s(span)
    for name, dims in (("lll_reduce", (2, 3, 4)), ("shortest_vector", (2, 3, 4)),
                       ("siegel_count", (2, 3))):
        for d in dims:
            rows += _calls_s(f"lattices.{name}.d{d}")
    rows.append(("lattices.siegel_count.cap_hits", None, None))
    rows += _calls_s("lattices.margulis_height")
    for name in ("walk_simulate", "contraction_fit", "recurrence_experiment"):
        rows.append((f"lattices.{name}.self_s", f"lattices.{name}", "self_s"))
    for d in (2, 3):
        span = f"dioph.flow_trace.d{d}"
        rows += [(f"{span}.calls", span, "calls"), (f"{span}.points", span, "work"),
                 (f"{span}.s", span, "s"), (f"{span}.self_s", span, "self_s")]
    span = "dioph.brute_force_quality"
    rows += [(f"{span}.calls", span, "calls"), (f"{span}.box_points", span, "work"),
             (f"{span}.s", span, "s")]
    for name in ("coding_sample", "ifs_validate", "irreducibility_check"):
        rows.append((f"fractal.{name}.s", f"fractal.{name}", "s"))
    rows += _calls_s("kau.kau_factorize")
    rows += [(name, None, None) for name in
             ("process.cpu_s", "trace.overhead_s", "trace.coverage", "fail_frac")]
    return rows


PER_LAYER = _per_layer()


def unit_of(metric: str) -> str:
    if metric in ("trace.coverage", "fail_frac"):
        return "ratio"
    if metric.endswith((".s", ".self_s", "_s")):
        return "s"
    return "count"


# ---------------------------------------------------------------------------
# machine and noise block


def _blas_threads():
    libs = os.path.join(os.path.dirname(np.__file__), os.pardir, "numpy.libs", "*openblas*")
    for path in glob.glob(libs):
        lib = ctypes.CDLL(path)
        for sym in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                    "openblas_get_num_threads"):
            fn = getattr(lib, sym, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                return fn()
    return None


def machine_block() -> dict:
    import mpmath
    import scipy

    model = "unknown"
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            model = next((ln.split(":", 1)[1].strip() for ln in fh if ln.startswith("model name")),
                         model)
    except OSError:
        pass
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_model": model,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "mpmath": mpmath.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": _blas_threads(),
    }


# ---------------------------------------------------------------------------
# passes


@dataclass
class Pass:
    traced: bool
    wall: float
    cpu: float
    op_times: list
    results: dict
    spans: list = field(default_factory=list)


def _cpu_seconds() -> float:
    t = os.times()
    return t.user + t.system + t.children_user + t.children_system


def _read(path):
    try:
        return path.read_bytes()
    except FileNotFoundError:
        return None


def run_pass(ops, art: Path, traced: bool) -> Pass:
    from expwalk import cli

    for f in art.iterdir():
        f.unlink()
    tracer = Tracer() if traced else None
    codes, errors, op_times = [], [], []
    if tracer:
        tracer.install()
    try:
        c0 = _cpu_seconds()
        t0 = time.perf_counter()
        for op in ops:
            if tracer:
                tracer.op = op.id
            t = time.perf_counter()
            try:
                codes.append(cli.run(op.config(str(art / op.id))))
                errors.append("")
            except Exception:  # an escaping exception is a failed op, not a crash
                codes.append(None)
                errors.append(traceback.format_exc(limit=4))
            op_times.append(time.perf_counter() - t)
        wall = time.perf_counter() - t0
        cpu = _cpu_seconds() - c0
    finally:
        if tracer:
            tracer.uninstall()
    results = {
        op.id: OpResult(code, err, _read(art / f"{op.id}.summary.json"),
                        _read(art / f"{op.id}.data.csv"))
        for op, code, err in zip(ops, codes, errors)
    }
    return Pass(traced, wall, cpu, op_times, results, tracer.spans if tracer else [])


def calibrate() -> float:
    """Seconds taken by the fixed speed kernel (see CALIB_REF_S)."""
    a = np.array([[2.0, 1.0], [1.0, 1.0]])
    acc = 0.0
    t = time.perf_counter()
    for i in range(20_000):
        b = a @ a
        acc += float(np.linalg.norm(b[:, 0])) + i * 0.5
        np.linalg.qr(b)
    return time.perf_counter() - t


def timed_passes(ops, art: Path, seconds: float, trace: bool, setup_probe=None):
    """Untraced passes, or untraced and traced in turn, within ``seconds``.

    With ``setup_probe`` (untraced runs), the speed kernel runs before the
    first pass and after every pass, and one set-up probe after each of the
    first MIN_PASSES passes, all outside the pass timing and the
    ``seconds`` budget.  Returns (passes, set-up seconds, kernel seconds).
    """
    passes: list[Pass] = []
    setup: list[float] = []
    calib: list[float] = [calibrate()] if setup_probe else []
    spent = 0.0
    while True:
        passes.append(run_pass(ops, art, trace and len(passes) % 2 == 1))
        spent += passes[-1].wall
        if setup_probe:
            calib.append(calibrate())
            if len(passes) <= MIN_PASSES:
                setup.append(setup_probe())
        if len(passes) < MIN_PASSES:
            continue
        next_traced = trace and len(passes) % 2 == 1
        same = [p.wall for p in passes if p.traced == next_traced]
        if spent + same[-1] > seconds:
            return passes, setup, calib


def setup_prober(workload, seed, size):
    """A callable timing one fresh interpreter from start to configs built."""
    code = PROBE.format(paths=[str(SRC), str(BENCH)], workload=workload, seed=seed, size=size)

    def probe() -> float:
        t = time.perf_counter()
        subprocess.run([sys.executable, "-c", code], check=True, stdout=subprocess.DEVNULL,
                       timeout=170)
        return time.perf_counter() - t

    return probe


def judge(workload, ops, passes):
    """Failures per op id, the number of failed ops, and whether every output was right."""
    first = passes[0].results
    oracle = check(workload, ops, first)
    incorrect = sorted(oracle)
    failed = set()
    for p in passes:
        for op in ops:
            r = p.results[op.id]
            same = (r.summary_bytes, r.csv_bytes) == (first[op.id].summary_bytes,
                                                      first[op.id].csv_bytes)
            if not same:
                oracle.setdefault(op.id, []).append("artifacts differ from the first pass")
                incorrect.append(op.id)
            if r.code is None or r.code == 2:
                incorrect.append(op.id)
            if r.code != 0 or op.id in oracle:
                failed.add(op.id)
    return oracle, len(failed), not incorrect


# ---------------------------------------------------------------------------
# report


def quartiles(values):
    q = statistics.quantiles(values, n=4)
    return q[0], q[2]


def print_ops(ops, passes):
    print("ops (work counts from the inputs; median seconds over untraced passes):")
    plain = [p for p in passes if not p.traced]
    for i, op in enumerate(ops):
        med = statistics.median(p.op_times[i] for p in plain)
        work = " ".join(f"{k}={v}" for k, v in op.work.items())
        codes = {p.results[op.id].code for p in passes}
        print(f"  {op.id:<18} {med:9.4f} s  exit={sorted(codes, key=str)}  {work}")


def layer_metrics(stats, passes, fail_frac):
    plain = [p for p in passes if not p.traced]
    traced = [p for p in passes if p.traced]
    u_wall = statistics.median(p.wall for p in plain)
    t_wall = statistics.median(p.wall for p in traced)
    self_total = sum(st["self_s"] for st in stats.values())
    special = {
        "lattices.siegel_count.cap_hits": sum(
            st["errors"].get("CountCapError", 0) for name, st in stats.items()
            if name.startswith("lattices.siegel_count.")),
        "process.cpu_s": statistics.median(p.cpu for p in plain),
        "trace.overhead_s": t_wall - u_wall,
        "trace.coverage": self_total / t_wall,
        "fail_frac": fail_frac,
    }
    out = {}
    for metric, span, key in PER_LAYER:
        value = special[metric] if span is None else stats.get(span, {}).get(key, 0)
        out[metric] = {"value": value, "unit": unit_of(metric)}
    return out


# ROADMAP item-1 baselines: (label, baseline seconds, baseline note)
BASELINES = {
    "lll": ("lll_reduce 2x2, per call", 57e-6, ""),
    "siegel": ("siegel_count 2D, per call", 27e-6, ""),
    "step": ("walk step, d=2, Siegel observable", 130e-6, ""),
    "flow3": ("flow_trace d=3, per grid point", 0.3e-3, "carpet"),
    "sphere": ("certificate self time (word products + sphere batch), N=24", 0.338,
               "4000 words x 600 samples"),
    "nm": ("Nelder-Mead objective, per evaluation, N=24", 275e-6, "4000 words"),
    "wedge": ("wedge_power, per call", 54e-3, "15x15, k=2"),
    "adj": ("adjoint_rep, per call", 61e-6, "d=4"),
}


def print_kernels(stats, spans, ops):
    def per_call(name):
        st = stats.get(name)
        return (st["s"] / st["calls"], f"{st['calls']} calls") if st and st["calls"] else None

    rows = {"lll": per_call("lattices.lll_reduce.d2"),
            "siegel": per_call("lattices.siegel_count.d2"),
            "wedge": per_call("linalg.wedge_power"),
            "adj": per_call("linalg.adjoint_rep")}
    walks = op_totals(spans, "lattices.walk_simulate")
    siegel_walks = [op for op in ops if op.id in walks and op.params["observables"] == ["siegel:3.0"]]
    if siegel_walks:
        steps = sum(op.params["n_steps"] for op in siegel_walks)
        rows["step"] = (sum(walks[op.id][0] for op in siegel_walks) / steps, f"{steps} steps")
    st = stats.get("dioph.flow_trace.d3")
    if st and st["work"]:
        rows["flow3"] = (st["s"] / st["work"], f"{st['work']} points")
    n24 = [op for op in ops if op.kind == "expand-cert" and op.meta.get("N") == 24]
    cert = op_totals(spans, "expansion.certificate")
    opt = op_totals(spans, "expansion.optimizer")
    for op in n24:
        w, smp = op.work["words"], op.work["sphere_samples"]
        if op.id in cert:
            rows["sphere"] = (cert[op.id][1], f"{w} words x {smp} samples")
        if op.id in opt and opt[op.id][2]:
            rows["nm"] = (opt[op.id][0] / opt[op.id][2], f"{w} words, {opt[op.id][2]} evals")
    print("kernel table (traced; per-call times beside the ROADMAP item-1 baselines):")
    for key, (label, base, note) in BASELINES.items():
        if rows.get(key):
            value, work = rows[key]
            print(f"  {label:<62} {value * 1e6:12.1f} us ({work})   baseline "
                  f"{base * 1e6:10.1f} us ({note or 'same shape'})")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=("certify", "walk", "census"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--size", choices=("full", "smoke"), default="full")
    args = parser.parse_args(argv)

    if not (SRC / "expwalk" / "cli.py").is_file():
        print(f"perfbench: no expwalk sources under {SRC}", file=sys.stderr)
        return 2
    load_start = os.getloadavg()[0]
    sys.path.insert(0, str(SRC))

    import expwalk.cli  # noqa: F401  (imported before timing)
    import workloads

    machine = machine_block()
    ops = workloads.build(args.workload, args.seed, args.size)
    out = BENCH / "out" / f"{args.workload}-{args.seed}-t{args.trace}-{args.size}"
    art = out / "artifacts"
    shutil.rmtree(out, ignore_errors=True)
    art.mkdir(parents=True)

    # set-up probes run between passes, so they sample the same machine state
    setup_probe = None if args.trace else setup_prober(args.workload, args.seed, args.size)
    passes, setup, calib = timed_passes(ops, art, args.seconds, bool(args.trace), setup_probe)
    failures, failed, correct = judge(args.workload, ops, passes)
    attempted = len(ops)
    machine["loadavg_1m"] = [load_start, os.getloadavg()[0]]

    print(f"perfbench workload={args.workload} seed={args.seed} trace={args.trace} "
          f"size={args.size} ops={len(ops)} passes={len(passes)}")
    print("machine " + json.dumps(machine))
    print_ops(ops, passes)
    for op_id, msgs in sorted(failures.items()):
        for msg in msgs:
            print(f"  CHECK FAILED {op_id}: {msg}")
    for op in ops:
        r = passes[0].results[op.id]
        if r.code != 0:
            detail = r.error.strip().splitlines()[-1] if r.error else (
                r.summary.get("error", "") if r.summary_bytes else "")
            print(f"  OP FAILED {op.id} seed={op.seed} exit={r.code}: {detail}")
    fail_frac = failed / attempted
    print(f"fail_frac = {fail_frac:.4f} ratio ({failed}/{attempted} ops)")

    plain = [p.wall for p in passes if not p.traced]
    q1, q3 = quartiles(plain)
    print(f"wall per untraced pass: median {statistics.median(plain):.4f} s, "
          f"q1 {q1:.4f}, q3 {q3:.4f}, n={len(plain)}; all {[round(w, 4) for w in plain]}")
    result = {"machine": machine,
              "passes": [{"traced": p.traced, "wall": p.wall, "cpu": p.cpu,
                          "op_seconds": p.op_times} for p in passes],
              "setup": setup, "calibration": calib, "failures": failures,
              "ops": [{"id": op.id, "seed": op.seed, "work": op.work} for op in ops]}
    if args.trace:
        traced = [p for p in passes if p.traced]
        stats = median_stats([aggregate(p.spans) for p in traced])
        metrics = layer_metrics(stats, passes, fail_frac)
        print_kernels(stats, traced[0].spans, ops)
        write_spans(out / "spans.csv", [p.spans for p in traced])
    else:
        walls = [w * CALIB_REF_S / ((calib[k] + calib[k + 1]) / 2) for k, w in enumerate(plain)]
        setups = [t * CALIB_REF_S / calib[k + 1] for k, t in enumerate(setup)]
        metrics = {
            "setup_s": {"value": statistics.median(setups), "unit": "s"},
            "wall_s": {"value": statistics.median(walls), "unit": "s"},
            "rss_peak_mb": {
                "value": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
                "unit": "MB"},
        }
        print(f"setup runs (raw s): {[round(s, 4) for s in setup]}")
        print(f"speed kernel (s): {[round(c, 4) for c in calib]}; scaled to the reference speed "
              f"(kernel {CALIB_REF_S} s): passes {[round(w, 4) for w in walls]}, "
              f"setup {[round(t, 4) for t in setups]}")
    for name, m in metrics.items():
        print(f"  {name} = {m['value']:.6g} {m['unit']}")
    result["metrics"] = metrics
    (out / "result.json").write_text(json.dumps(result, indent=1, default=str) + "\n")
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
