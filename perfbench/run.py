"""Benchmark for sharecircuit: drives the CLI in-process as one closed-loop
client and prints one JSON result line.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

--trace 0 runs operations for S seconds and reports the end-to-end metrics.
--trace 1 runs a fixed number of operations, each once untraced and once with
spans around the library's public functions, and reports per-layer metrics
derived from the spans (S is not used: a fixed operation count makes every
count repeat exactly on the same seed). Spans are written to perfbench/out/.

The program is imported from src/ of the checkout this file sits in; the run
fails when it is not there.
"""

import argparse
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
from pathlib import Path
from time import perf_counter

import spans

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
HERE = Path(__file__).resolve().parent
OUT = HERE / "out"
SETUP_REPEATS = 15


def import_program():
    """Imports the library and the workloads; exits when they are not in the
    checkout this file sits in."""
    sys.path.insert(0, str(SRC))
    try:
        import workloads
    except ImportError as exc:
        sys.exit(f"error: cannot import sharecircuit from {SRC}: {exc}")
    import sharecircuit

    if Path(sharecircuit.__file__).resolve().parent.parent != SRC:
        sys.exit(f"error: sharecircuit was imported from {sharecircuit.__file__}, not {SRC}")
    return workloads


def import_seconds():
    """Seconds a fresh interpreter takes to import the library and the
    workloads, measured inside that interpreter."""
    code = (f"import sys, time; sys.path[:0] = {[str(SRC), str(HERE)]!r}; "
            "t0 = time.perf_counter(); import workloads; print(time.perf_counter() - t0)")
    proc = subprocess.run([sys.executable, "-c", code], cwd=ROOT, capture_output=True,
                          text=True, timeout=60, check=True)
    return float(proc.stdout)


def git_commit():
    try:
        # The ceiling keeps git from finding a repository above the checkout.
        env = {**os.environ, "GIT_CEILING_DIRECTORIES": str(ROOT.parent)}
        proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, env=env,
                              capture_output=True, text=True, timeout=30)
    except (OSError, subprocess.SubprocessError):
        return "unknown"
    return proc.stdout.strip() if proc.returncode == 0 else "unknown"


def metadata(seed):
    import sharecircuit

    return {
        "backend": sharecircuit.KERNEL_BACKEND,
        "python": platform.python_version(),
        "nproc": len(os.sched_getaffinity(0)),
        "seed": seed,
        "commit": git_commit(),
    }


def run_ops(wl, indices, log):
    """Runs the operations; returns (attempted, failed, [(work, stages)])."""
    done = []
    attempted = failed = 0
    for i in indices:
        attempted += 1
        try:
            done.append(wl.op(i))
        except Exception as exc:  # every failure is counted, none stops the run
            failed += 1
            log(f"operation {i} failed: {type(exc).__name__}: {exc}")
    return attempted, failed, done


def timed_indices(start, seconds):
    """Operation numbers start, start + 1, ... until `seconds` have passed
    (at least one)."""
    deadline = perf_counter() + seconds
    i = start
    while i == start or perf_counter() < deadline:
        yield i
        i += 1


def quantile(values, q):
    """Nearest-rank quantile of a non-empty list."""
    ordered = sorted(values)
    return ordered[min(len(ordered) - 1, max(0, round(q * len(ordered)) - 1))]


def end_to_end(wl, done, setup_s):
    """`op_best_ms` sums, over an operation's stages (CLI commands), the
    fastest time the run saw for each: the cost with the least interference
    from other load on the machine. The throughput `work_per_s` (all the
    work over all the time the operations took) and the latency quantiles go
    to INFO only: they average over the run, so they move with the share of
    it that a shared core spent slowed by other load (NOTES.md)."""
    latencies = [sum(stages.values()) for _, stages in done]
    names = list(done[0][1])
    stage_best = {n: min(stages[n] for _, stages in done) for n in names}
    work = sum(w for w, _ in done)
    metrics = {
        "op_best_ms": (sum(stage_best.values()) * 1000, "ms"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB"),
        "setup_s": (setup_s, "s"),
    }
    detail = {
        "work_unit": wl.unit,
        "work_per_op": work / len(done),
        "work_per_s": work / sum(latencies),
        "operations": len(latencies),
        "op_p50_ms": statistics.median(latencies) * 1000,
        "op_p90_ms": quantile(latencies, 0.9) * 1000,
        "stage_best_s": stage_best,
        "stage_p50_s": {n: statistics.median(stages[n] for _, stages in done) for n in names},
    }
    return {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()}, detail


def traced_run(wl, log):
    """Set-up once and `wl.trace_ops` operations under the tracer; returns
    (attempted, failed, per-layer metrics, info)."""
    tracer = spans.Tracer()
    tracer.op = "setup"
    sites = tracer.install()
    try:
        wl.setup()
    finally:
        tracer.uninstall()
    # Each operation runs untraced, then traced, so that drift on a shared
    # machine falls on both sides of the overhead alike.
    attempted = failed = 0
    untraced_s = traced_s = 0.0
    for i in range(wl.trace_ops):
        t0 = perf_counter()
        a, f, _ = run_ops(wl, [i], log)
        untraced_s += perf_counter() - t0
        tracer.op = i
        tracer.install()
        try:
            t0 = perf_counter()
            a2, f2, _ = run_ops(wl, [i], log)
            traced_s += perf_counter() - t0
        finally:
            tracer.uninstall()
        attempted, failed = attempted + a + a2, failed + f + f2
    span_file = OUT / f"spans-{wl.name}-seed{wl.seed}.jsonl.gz"
    tracer.write(span_file)
    info = {"sites_patched": sites, "spans": len(tracer.spans),
            "span_file": str(span_file.relative_to(ROOT)),
            "untraced_s": untraced_s, "traced_s": traced_s}
    return attempted, failed, tracer.layer_metrics(traced_s - untraced_s), info


def timed_run(wl, spare, seconds, log):
    """SETUP_REPEATS slices, each one set-up round and then operations for
    `seconds` / SETUP_REPEATS; returns (attempted, failed, end-to-end
    metrics, info).

    Each set-up round is one import in a fresh interpreter plus one build of
    the inputs, each round on its own draw from the seed, and `setup_s` is
    the median round: the work a build does depends on its draw, as the
    builders retry. The first round builds draw 0 for the operations; the
    others build into `spare`, a second instance of the workload, so that
    the operations' inputs stay fixed. Spreading the rounds over the run
    keeps them from all falling into one slow phase of a shared machine."""
    imports, builds = [], []
    attempted, failed, done = 0, 0, []
    for draw in range(SETUP_REPEATS):
        imports.append(import_seconds())
        t0 = perf_counter()
        (spare if draw else wl).setup(draw)
        builds.append(perf_counter() - t0)
        a, f, d = run_ops(wl, timed_indices(attempted, seconds / SETUP_REPEATS), log)
        attempted, failed, done = attempted + a, failed + f, done + d
    if not done:
        sys.exit("error: every operation failed")
    setup_s = statistics.median(i + b for i, b in zip(imports, builds))
    metrics, info = end_to_end(wl, done, setup_s)
    info.update(setup_import_s=imports, setup_build_s=builds)
    return attempted, failed, metrics, info


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    workloads = import_program()
    if args.workload not in workloads.WORKLOADS:
        sys.exit(f"error: unknown workload {args.workload!r}; "
                 f"choose from {', '.join(workloads.WORKLOADS)}")
    OUT.mkdir(exist_ok=True)
    workdir = tempfile.mkdtemp(prefix=f"{args.workload}-", dir=OUT)
    logged = []

    def log(message):
        if len(logged) < 20:
            print(message, file=sys.stderr)
        logged.append(message)

    try:
        runner = workloads.Runner(workdir)
        wl = workloads.WORKLOADS[args.workload](runner, args.seed)
        if args.trace:
            attempted, failed, metrics, detail = traced_run(wl, log)
        else:
            spare_dir = Path(workdir) / "spare"
            spare_dir.mkdir()
            spare = workloads.WORKLOADS[args.workload](workloads.Runner(spare_dir), args.seed)
            attempted, failed, metrics, detail = timed_run(wl, spare, args.seconds, log)
    except workloads.CheckFailed as exc:
        sys.exit(f"error: set-up failed its check: {exc}")
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    info = {"workload": wl.name, "meta": metadata(args.seed), **detail,
            "attempted": attempted, "failed": failed, "failed_ratio": failed / attempted,
            "artifacts": runner.artifacts, "artifact_sha256": runner.digest.hexdigest()}
    print("INFO " + json.dumps(info))
    print(json.dumps({"correct": failed == 0, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
