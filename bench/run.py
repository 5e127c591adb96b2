"""emlab benchmark: closed-loop ops through the public CLI, one client.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a source checkout; emlab is imported from its
``src/``.  Each op is one in-process ``emlab.cli.main([...])`` call and
starts only after the previous one ended and passed its correctness gate.
Ops repeat until ``--seconds`` of wall time is used (at least two ops).

``--trace 0`` reports the end-to-end metrics of BENCHMARK.json; ``--trace 1``
alternates plain and traced ops and reports the per-module metrics of the
traced ones, plus ``trace.overhead_s`` (median traced op minus median plain
op).  The last line of stdout is one JSON object: ``correct``,
``attempted``, ``failed`` and ``metrics``.  A full record (config, seed,
environment, every op, and in traced runs the spans) goes to
``.bench_runs/results/``.  See ``NOTES.md``.
"""

import time

_T0 = time.perf_counter()

import argparse  # noqa: E402 - the setup clock starts before any import
import contextlib  # noqa: E402
import gc  # noqa: E402
import io  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
RUNS = ROOT / ".bench_runs"

#: setup is timed this many times per untimed run (this process plus
#: fresh child processes) and reported as the median
SETUP_SAMPLES = 3
MIN_OPS = 2
THREAD_VARS = ("EMLAB_THREADS", "OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS",
               "MKL_NUM_THREADS")
END_TO_END_UNITS = {"op_s": "s", "setup_s": "s", "peak_rss_mb": "MB"}


class BenchError(Exception):
    """The benchmark cannot run: no source tree, or its setup failed."""


def nproc():
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:
        return os.cpu_count() or 1


def cap_threads():
    """Keep BLAS/OpenMP threads at or below the CPUs this process may use;
    must run before numpy is imported."""
    limit = nproc()
    for var in THREAD_VARS:
        try:
            wanted = int(os.environ.get(var, limit))
        except ValueError:
            wanted = limit
        os.environ[var] = str(max(1, min(wanted, limit)))


def import_emlab():
    """Import emlab from this checkout's src/, never from site-packages."""
    if not (SRC / "emlab" / "cli.py").is_file():
        raise BenchError(f"no emlab source tree at {SRC}; run from a checkout")
    sys.path.insert(0, str(SRC))
    import emlab.cli
    if Path(emlab.__file__).resolve().parent != SRC / "emlab":
        raise BenchError(f"emlab imported from {emlab.__file__}, not {SRC}")
    return emlab


def call_cli(argv):
    """One op: ``emlab.cli.main(argv)`` with its output captured.

    Returns (exit code or None if it raised, stdout, error text)."""
    import emlab.cli
    out, err = io.StringIO(), io.StringIO()
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = emlab.cli.main(argv)
    except SystemExit as exc:
        code = exc.code if isinstance(exc.code, int) else 1
    except Exception as exc:  # an op that raises is a failed op, not a crash
        return None, out.getvalue(), f"{type(exc).__name__}: {exc}"
    return code, out.getvalue(), err.getvalue()


def prepare(wl, seed, run_dir):
    """Everything before the first op: write the config and, for the
    verify workload, solve and export the run it re-checks."""
    import workloads
    run_dir.mkdir(parents=True, exist_ok=True)
    cfg = wl.config(seed)
    cfg_path = run_dir / "config.yaml"
    workloads.write_config(cfg, cfg_path)
    ctx = {"cfg": cfg, "cfg_path": cfg_path, "run_dir": run_dir,
           "solved": run_dir / "solved", "op_dir": run_dir / "op"}
    if wl.verb == "verify":
        code, _, err = call_cli(["solve", "--config", str(cfg_path),
                                 "--out", str(ctx["solved"])])
        if code != 0:
            raise BenchError(f"setup solve exited {code}: {err.strip()}")
    return ctx


def setup_checks(wl, ctx):
    """Gate the persisted run the verify ops read, and record its digests."""
    import workloads
    if wl.verb != "verify":
        return
    solved = ctx["solved"]
    with open(solved / "report.json") as fh:
        doc = json.load(fh)
    problems = workloads.report_problems(doc)
    problems += workloads.closed_form_problems(wl, ctx["cfg"], solved / "fields.csv")
    if problems:
        raise BenchError(f"setup run fails its gate: {problems}")
    ctx["report_doc"] = doc
    ctx["digests"] = {f: workloads.file_digest(solved / f)
                      for f in ("report.json", "fields.csv")}
    ctx["files"] = sorted(os.listdir(solved))


def child_setup_times(args, run_dir, count):
    """Time ``count`` more setups, each in a fresh interpreter."""
    times = []
    for k in range(count):
        cmd = [sys.executable, str(Path(__file__).resolve()),
               "--workload", args.workload, "--seed", str(args.seed),
               "--seconds", "0", "--trace", "0",
               "--setup-only", str(run_dir / f"setup{k}")]
        proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True,
                              timeout=150)
        if proc.returncode != 0:
            raise BenchError(f"setup child exited {proc.returncode}: "
                             f"{proc.stderr.strip()[-500:]}")
        times.append(json.loads(proc.stdout.strip().splitlines()[-1])["setup_s"])
        shutil.rmtree(run_dir / f"setup{k}", ignore_errors=True)
    return times


def run_op(wl, ctx, k):
    """Run op ``k`` and gate it; returns its record."""
    import tracing
    import workloads
    rec = {"op": k}
    if wl.verb == "solve":
        shutil.rmtree(ctx["op_dir"], ignore_errors=True)
        argv = ["solve", "--config", str(ctx["cfg_path"]), "--out", str(ctx["op_dir"])]
    else:
        argv = ["verify", "--in", str(ctx["solved"])]
    # free the previous op's reference cycles first, so each op starts from
    # the clean heap a fresh `emlab` process would have
    gc.collect()
    t0, c0 = time.perf_counter(), time.process_time()
    code, stdout, err = call_cli(argv)
    rec["seconds"] = time.perf_counter() - t0
    rec["cpu_seconds"] = time.process_time() - c0
    # ru_maxrss after the first op is the peak of setup plus one emlab call,
    # as in a fresh process; later ops reuse a heap the first op fragmented
    # and may add about 40 MB on the disc, or nothing, by allocation order
    rec["max_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    rec["exit_code"] = code
    problems = []
    if code != 0:
        problems.append(f"exit code {code}: {err.strip()[-300:]}")
    try:
        if wl.verb == "solve":
            problems += _solve_problems(wl, ctx, rec)
        else:
            problems += workloads.verify_output_problems(stdout, ctx["report_doc"])
            first = ctx.setdefault("first_stdout", stdout)
            if stdout != first:
                problems.append("verify output differs from the run's first op")
            if sorted(os.listdir(ctx["solved"])) != ctx["files"] or any(
                    workloads.file_digest(ctx["solved"] / f) != d
                    for f, d in ctx["digests"].items()):
                problems.append("verify changed the persisted run")
            rec["bytes_written"] = 0
            _domain_counts(rec, ctx["report_doc"])
    except (OSError, ValueError, KeyError) as exc:
        problems.append(f"gate could not read the op's output: {exc}")
    if wl.verb == "solve" and ctx["op_dir"].is_dir():
        rec["bytes_written"] = tracing.directory_bytes(ctx["op_dir"])
    rec["problems"] = problems
    return rec


def _solve_problems(wl, ctx, rec):
    import workloads
    op_dir = ctx["op_dir"]
    with open(op_dir / "report.json") as fh:
        doc = json.load(fh)
    problems = workloads.report_problems(doc)
    _domain_counts(rec, doc)
    digests = {f: workloads.file_digest(op_dir / f) for f in ("report.json", "fields.csv")}
    first = ctx.setdefault("first_digests", digests)
    for f in digests:
        if digests[f] != first[f]:
            problems.append(f"{f} bytes differ from the run's first op")
    problems += workloads.closed_form_problems(wl, ctx["cfg"], op_dir / "fields.csv")
    return problems


def _domain_counts(rec, doc):
    domain = doc.get("domain") or {}
    rec["n_interior"] = domain.get("interior_nodes")
    rec["n_boundary"] = domain.get("boundary_samples")


def run_ops(wl, ctx, seconds, tracer, lu):
    """Closed loop: run ops until ``seconds`` of wall time would be exceeded
    by one more op (at least ``MIN_OPS``).  With a tracer, odd ops are
    traced; plain ops run under the LU counter."""
    records = []
    start = time.perf_counter()
    while True:
        k = len(records)
        traced = tracer is not None and k % 2 == 1
        t_op = time.perf_counter()
        if traced:
            tracer.op = k
            with tracer.installed():
                rec = run_op(wl, ctx, k)
            rec["lu_count"] = tracer.op_metrics(k).get("solver.lu.count")
        else:
            lu.count = 0
            with lu.installed():
                rec = run_op(wl, ctx, k)
            rec["lu_count"] = lu.count if lu.available else None
        rec["traced"] = traced
        records.append(rec)
        now = time.perf_counter()
        if len(records) >= MIN_OPS and (now - start) + (now - t_op) > seconds:
            return records


def environment(records):
    import numpy
    import scipy
    plain = [r for r in records if not r["traced"]] or records
    last = plain[-1]
    return {
        "nproc": nproc(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "machine": platform.machine(),
        "threads": {v: os.environ.get(v) for v in THREAD_VARS},
        "n_interior": last.get("n_interior"),
        "n_boundary": last.get("n_boundary"),
        "lu_count": last.get("lu_count"),
        "bytes_written": last.get("bytes_written"),
    }


def parse_args(argv):
    import workloads
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--setup-only", metavar="DIR", help=argparse.SUPPRESS)
    return ap.parse_args(argv)


def main(argv=None):
    cap_threads()
    sys.path.insert(0, str(HERE))
    import_emlab()
    import tracing
    import workloads
    args = parse_args(argv)
    wl = workloads.WORKLOADS[args.workload]

    if args.setup_only:
        prepare(wl, args.seed, Path(args.setup_only))
        print(json.dumps({"setup_s": time.perf_counter() - _T0}))
        return 0

    run_dir = RUNS / f"{wl.name}-seed{args.seed}-trace{args.trace}-{os.getpid()}"
    shutil.rmtree(run_dir, ignore_errors=True)
    try:
        ctx = prepare(wl, args.seed, run_dir)
        setup_times = [time.perf_counter() - _T0]
        setup_checks(wl, ctx)
        tracer = tracing.Tracer() if args.trace else None
        if not args.trace:
            setup_times += child_setup_times(args, run_dir, SETUP_SAMPLES - 1)
        records = run_ops(wl, ctx, args.seconds, tracer, tracing.LuCounter())
    finally:
        shutil.rmtree(run_dir, ignore_errors=True)

    failed = sum(1 for r in records if r["problems"])
    plain = [r["seconds"] for r in records if not r["traced"]]
    if args.trace:
        traced = [r for r in records if r["traced"]]
        values = tracing.median_metrics([tracer.op_metrics(r["op"]) for r in traced])
        values["trace.overhead_s"] = (statistics.median(r["seconds"] for r in traced)
                                      - statistics.median(plain))
        units = {m[0]: m[1] for m in tracing.METRICS}
    else:
        values = {"op_s": statistics.median(plain),
                  "setup_s": statistics.median(setup_times),
                  "peak_rss_mb": records[0]["max_rss_mb"]}
        units = END_TO_END_UNITS
    metrics = {name: {"value": values[name], "unit": units[name]} for name in units}

    record = {"workload": wl.name, "seed": args.seed, "seconds": args.seconds,
              "trace": args.trace, "config": ctx["cfg"],
              "environment": environment(records), "setup_s_samples": setup_times,
              "ops": records, "failed_frac": failed / len(records),
              "metrics": metrics}
    results = RUNS / "results"
    results.mkdir(parents=True, exist_ok=True)
    stem = results / f"{wl.name}-seed{args.seed}-trace{args.trace}"
    with open(f"{stem}.json", "w") as fh:
        json.dump(record, fh, indent=2, sort_keys=True, default=str)
    if tracer is not None:
        tracer.write_spans(f"{stem}-spans.csv")
        tracer.close()

    print(f"workload {wl.name} seed {args.seed} trace {args.trace}; "
          f"config {json.dumps(ctx['cfg'], sort_keys=True)}")
    print(f"environment {json.dumps(record['environment'], sort_keys=True)}")
    for r in records:
        kind = "traced" if r["traced"] else "plain"
        verdict = "ok" if not r["problems"] else "FAILED " + "; ".join(r["problems"])
        print(f"op {r['op']} ({kind}): {r['seconds']:.4f} s exit {r['exit_code']} {verdict}")
    for name, m in metrics.items():
        shown = m["value"] if isinstance(m["value"], str) else f"{m['value']:.6g}"
        print(f"{name} = {shown} {m['unit']}")
    print(f"failed_frac = {failed / len(records):.6g} ({failed}/{len(records)} ops)")
    print(f"verdict: {'PASS' if failed == 0 else 'FAIL'}; record in {stem}.json")
    print(json.dumps({"correct": failed == 0, "attempted": len(records),
                      "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    try:
        sys.exit(main())
    except BenchError as exc:
        print(f"benchmark error: {exc}", file=sys.stderr)
        sys.exit(2)
