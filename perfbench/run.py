"""Benchmark for ellpar: one workload per run, one client in a closed loop.

    python3 perfbench/run.py --workload ensemble --seed 1 --seconds 50 --trace 0

Set-up (import, input generation, warm-up items) is timed in this process
and in four fresh child processes; ``setup_s`` is the median of the five.
Then the workload's fixed item list runs as whole passes until about
``--seconds`` are spent (see ``another_pass``).  Each item's latency is the
slowest of its runs, one per pass; README.md says why.  With ``--trace 0``
the last line of standard output is a JSON object with the end-to-end
metrics; with ``--trace 1`` one untraced pass is followed by traced passes
and the JSON holds the per-layer metrics instead.

The program is imported from ``src/`` beside this directory; nothing is
installed.  Outputs go to ``.bench_out/`` at the repository root.
"""

from __future__ import annotations

import time

T_START = time.perf_counter()

import argparse  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import platform  # noqa: E402
import statistics  # noqa: E402
import resource  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402

import spans  # noqa: E402
import summary  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = ROOT / ".bench_out"
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS")
SETUP_CHILDREN = 4
MIN_PASSES = 3

END_TO_END_UNITS = {"setup_s": "s", "wall_s": "s", "item_ms.p50": "ms",
                    "item_ms.tail": "ms", "error_rate": "ratio", "peak_rss_mb": "MB"}


def layer_unit(name):
    if name.endswith("_s"):
        return "s"
    if name.endswith("_mb") or name.endswith(".mb"):
        return "MB"
    if name.endswith("ns_per_sample"):
        return "ns"
    if name in ("solver.newton_iters_per_step", "solver.residuals_per_iter",
                "trace.overhead"):
        return "ratio"
    if name == "ellpar.src_lines":
        return "lines"
    return "count"


def _parse(argv):
    p = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, default=50.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--setup-only", action="store_true",
                   help="time set-up only and print it (used for the child set-ups)")
    p.add_argument("--setup-tag", default="main", help=argparse.SUPPRESS)
    return p.parse_args(argv)


def _import_program():
    """Put src/ first on sys.path and import the workloads; refuse to run
    against any other copy of ellpar."""
    if not (SRC / "ellpar" / "__init__.py").is_file():
        raise RuntimeError(f"no ellpar sources under {SRC}")
    sys.path.insert(0, str(SRC))
    sys.path.insert(0, str(HERE))
    import ellpar

    if Path(ellpar.__file__).resolve().parent != (SRC / "ellpar").resolve():
        raise RuntimeError(f"imported ellpar from {ellpar.__file__}, not from {SRC}")
    import workloads

    return workloads


class Pass:
    """The runner's ``item`` callback for one pass: times each item, checks
    its output outside the timed region, and counts failures."""

    def __init__(self, tracer=None):
        self.tracer = tracer
        self.latencies = []
        self.failures = []
        self.check_s = 0.0

    @property
    def attempted(self):
        return len(self.latencies)

    def __call__(self, label, fn, check):
        tr = self.tracer
        idx = tr.open(tr.name_id("item." + label)) if tr else None
        t0 = time.perf_counter()
        try:
            res, err = fn(), None
        except Exception as exc:  # an item that raises is a failed item
            res, err = None, exc
        t1 = time.perf_counter()
        if tr:
            tr.close(idx)
        self.latencies.append(t1 - t0)
        try:
            ok = err is None and bool(check(res))
        except Exception as exc:  # a check that raises fails its item
            ok, err = False, exc
        self.check_s += time.perf_counter() - t1
        if not ok:
            reason = f"{type(err).__name__}: {err}" if err else "output check failed"
            self.failures.append(f"{label}: {reason}")
            return None
        return res


def another_pass(elapsed, done, seconds, min_passes=1):
    """Whether to start pass ``done + 1`` after ``elapsed`` seconds: yes
    below ``min_passes``, else if it is expected to end by half a mean pass
    past ``seconds``.  A run thus measures about ``seconds`` on average,
    also when one pass is a large share of the budget."""
    return done < min_passes or elapsed + 0.5 * elapsed / done <= seconds


def _passes(wl, seconds, make_pass, after_pass=None, min_passes=1):
    """Run whole passes while ``another_pass`` allows; returns
    [(wall seconds, Pass)]."""
    done = []
    t0 = time.perf_counter()
    while True:
        p = make_pass()
        start = time.perf_counter()
        wl.run_pass(p)
        wall = time.perf_counter() - start - p.check_s
        done.append((wall, p))
        if after_pass:
            after_pass()
        if not another_pass(time.perf_counter() - t0, len(done), seconds, min_passes):
            return done


def _child_setup(args, k):
    cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", args.workload,
           "--seed", str(args.seed), "--setup-only", "--setup-tag", f"child{k}"]
    proc = subprocess.run(cmd, cwd=str(ROOT), capture_output=True, text=True,
                          timeout=120, check=False)
    if proc.returncode != 0:
        raise RuntimeError(f"set-up child {k} failed: {proc.stderr.strip()[-500:]}")
    return json.loads(proc.stdout.strip().splitlines()[-1])["setup_s"]


def _read_text(path):
    try:
        with open(path) as fh:
            return fh.read()
    except OSError:
        return ""


def machine_info():
    cpu = platform.processor()
    for line in _read_text("/proc/cpuinfo").splitlines():
        if line.startswith("model name"):
            cpu = line.split(":", 1)[1].strip()
            break
    caches = {}
    cache_dir = Path("/sys/devices/system/cpu/cpu0/cache")
    for idx in sorted(cache_dir.glob("index*")) if cache_dir.is_dir() else []:
        level = _read_text(idx / "level").strip()
        kind = _read_text(idx / "type").strip()
        caches[f"L{level} {kind}"] = _read_text(idx / "size").strip()
    import numpy
    import scipy

    return {
        "cpu": cpu,
        "nproc": len(os.sched_getaffinity(0)),
        "caches": caches,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "threads": {v: os.environ.get(v) for v in THREAD_VARS},
    }


def src_lines():
    return sum(len(p.read_text().splitlines())
               for p in sorted((SRC / "ellpar").rglob("*.py")))


def end_to_end(setups, passes):
    """Metrics of an untraced run.  An item's latency is the slowest of its
    runs, one per pass; ``wall_s`` is the sum of those latencies."""
    n_items = passes[0][1].attempted
    tail_p, tail_ok = summary.tail_percentile(n_items)
    slowest = summary.slowest_per_item([p.latencies for _, p in passes])
    metrics = {
        "setup_s": statistics.median(setups),
        "wall_s": sum(slowest),
        "item_ms.p50": 1e3 * summary.percentile(slowest, 50),
        "item_ms.tail": 1e3 * summary.percentile(slowest, tail_p),
        "error_rate": statistics.median(
            [summary.error_rate(len(p.failures), p.attempted) for _, p in passes]),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }
    notes = {"tail": f"p{tail_p} of {n_items} items per pass"
                     + ("" if tail_ok else " (fewer than 10 items beyond it)"),
             "item_latency": f"slowest of {len(passes)} runs per item",
             "pass_wall_s": [w for w, _ in passes],
             "setup_samples": setups}
    return metrics, notes


def traced_run(wl, seconds):
    """One untraced pass, then traced passes in the rest of the budget.
    Counts come from the first traced pass and must repeat in every later
    one; timings are medians over traced passes."""
    ref_wall, _ = _passes(wl, 0, Pass)[0]
    tracer = spans.Tracer()
    instr = spans.Instrumentation(tracer).install()
    layers = []
    problems = []

    def make_pass():
        tracer.reset()
        return Pass(tracer)

    def after_pass():
        layers.append(spans.layer_metrics(tracer))
        if "solver._advance" not in instr.missing:
            problems.extend(spans.cross_check(tracer))

    try:
        passes = _passes(wl, max(seconds - ref_wall, 0.0), make_pass, after_pass)
    finally:
        instr.remove()

    first = layers[0]
    for m in layers[1:]:
        problems += [f"{k} differs between passes: {first[k]:g} vs {m[k]:g}"
                     for k in spans.EXACT if m[k] != first[k]]
    metrics = {k: v if k in spans.EXACT else statistics.median([m[k] for m in layers])
               for k, v in first.items()}
    metrics["trace.overhead"] = statistics.median([w for w, _ in passes]) / ref_wall
    metrics["ellpar.src_lines"] = src_lines()
    absent = instr.absent_metrics()
    for key in absent:
        metrics.pop(key, None)
    notes = {"untraced_wall_s": ref_wall, "traced_passes": len(passes),
             "missing_hooks": instr.missing, "absent_metrics": absent,
             "cross_check": "ok" if not problems else "FAILED"}
    return passes, metrics, notes, problems


def main(argv=None):
    args = _parse(argv)
    for var in THREAD_VARS:
        os.environ[var] = "1"
    try:
        workloads = _import_program()
    except (RuntimeError, ImportError) as exc:
        print(f"benchmark: cannot load the program: {exc}", file=sys.stderr)
        return 2
    if args.workload not in workloads.WORKLOADS:
        print(f"benchmark: unknown workload {args.workload!r}; choose from "
              f"{sorted(workloads.WORKLOADS)}", file=sys.stderr)
        return 2
    out_dir = OUT / args.workload / args.setup_tag
    out_dir.mkdir(parents=True, exist_ok=True)
    wl = workloads.WORKLOADS[args.workload](args.seed, str(out_dir))
    warm = Pass()
    wl.warmup(warm)
    setup_main = time.perf_counter() - T_START
    if warm.failures:
        print(f"benchmark: warm-up failed: {warm.failures}", file=sys.stderr)
        return 1
    if args.setup_only:
        print(json.dumps({"setup_s": setup_main}))
        return 0
    if args.trace:
        passes, metrics, notes, problems = traced_run(wl, args.seconds)
    else:
        setups = [setup_main] + [_child_setup(args, k) for k in range(SETUP_CHILDREN)]
        passes = _passes(wl, args.seconds, Pass, min_passes=MIN_PASSES)
        metrics, notes = end_to_end(setups, passes)
        problems = []

    attempted = sum(p.attempted for _, p in passes)
    failures = [f for _, p in passes for f in p.failures]
    correct = not failures and not problems
    gate = (f"pass ({attempted - len(failures)}/{attempted} items)" if correct
            else f"FAIL ({len(failures)} failed items, {len(problems)} trace problems)")

    manifest = {
        "workload": args.workload,
        "seed": args.seed,
        "inputs": ("generated from --seed" if wl.seeded
                   else "fixed; --seed is recorded but does not change them"),
        "trace": args.trace,
        "machine": machine_info(),
        "metrics": metrics,
        "notes": notes,
        "failures": failures[:50],
    }
    if args.workload == "solve":
        manifest["sha256"] = wl.hashes
    manifest_path = out_dir / f"manifest-trace{args.trace}.json"
    with open(manifest_path, "w") as fh:
        json.dump(manifest, fh, indent=2, default=str)

    units = END_TO_END_UNITS if not args.trace else {k: layer_unit(k) for k in metrics}
    print(f"# workload {args.workload}, seed {args.seed} "
          f"({manifest['inputs']}); manifest {manifest_path.relative_to(ROOT)}")
    for key, note in notes.items():
        print(f"# {key}: {note}")
    for f in failures[:10] + problems[:10]:
        print(f"# failure: {f}")
    for key, value in metrics.items():
        print(f"{args.workload:10s} {key:36s} {value:16.6g} {units[key]:6s} check: {gate}")
    print(json.dumps({
        "correct": correct,
        "attempted": attempted,
        "failed": len(failures),
        "metrics": {k: {"value": v, "unit": units[k]} for k, v in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
