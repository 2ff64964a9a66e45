"""Checks on the benchmark itself, each running perfbench/run.py as a child
process from the repository root.

    python3 perfbench/check.py spread [--runs 10] [--first-seed 100] [WORKLOAD ...]
        Runs every workload on `--runs` seeds and reports, per end-to-end
        metric, the median and the quartile spread (Q3 - Q1) / median, against
        the bound in BENCHMARK.json.

    python3 perfbench/check.py selfcheck [--seed 1] [--second-seed 2] [WORKLOAD ...]
        Runs the traced run twice on one seed and requires every count and the
        artifact digest to repeat exactly, and the counts of the layers a
        workload does not load to read 0; then runs the untraced workload
        once on a second seed and requires zero failed operations.

    python3 perfbench/check.py compare BEFORE.json AFTER.json
        Compares the medians of two `spread` outputs: fails when they do not
        cover the same workloads, or when a metric of AFTER is worse than
        BEFORE by more than its bound.

Each prints one JSON document and exits 1 when a check fails.
"""

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
FLOW = ["network.flow_calls", "kernels.maxflow_calls", "kernels.augmentations"]
RANK = ["kernels.gf_rank_calls", "kernels.gf_rank_cells", "circuit.coalitions_checked"]
ENTROPY = ["infocheck.states", "infocheck.entropy_calls"]
# Per-layer counts that must read 0 on a workload that does not load the
# layer (NOTES.md). `reconstruct` extracts its matrix with `submatrix`, so
# only graph-verify has no submatrix calls.
PREDICTED_ZERO = {
    "graph-verify": RANK + ["field.submatrix_calls"] + ENTROPY,
    "scheme-verify": FLOW + ENTROPY,
    "deal": FLOW + RANK + ENTROPY,
    "pipeline": [],
}


def run(workload, seed, trace):
    """One benchmark run; returns (result, info) parsed from its last lines."""
    argv = SPEC["command"] + ["--workload", workload, "--seed", str(seed),
                              "--seconds", str(SPEC["run_seconds"]), "--trace", str(trace)]
    proc = subprocess.run(argv, cwd=ROOT, capture_output=True, text=True, timeout=600)
    if proc.returncode != 0:
        raise RuntimeError(f"{' '.join(argv)} exited {proc.returncode}: {proc.stderr[-2000:]}")
    lines = proc.stdout.strip().splitlines()
    info = json.loads(lines[-2].removeprefix("INFO "))
    return json.loads(lines[-1]), info


def spread(args):
    report, ok = {}, True
    for workload in args.workloads:
        values = {}
        for seed in range(args.first_seed, args.first_seed + args.runs):
            result, info = run(workload, seed, 0)
            ok &= result["correct"] and result["failed"] == 0
            for name, metric in result["metrics"].items():
                values.setdefault(name, []).append(metric["value"])
        rows = {}
        for metric in SPEC["end_to_end"]:
            vals = values[metric["name"]]
            q1, median, q3 = statistics.quantiles(vals, n=4)
            share = (q3 - q1) / median
            rows[metric["name"]] = {
                "median": median, "q1": q1, "q3": q3, "spread": share,
                "bound": metric["bound"], "values": vals,
                "steady": share < metric["bound"] / 3,
            }
            ok &= share <= metric["bound"]
            print(f"{workload:14} {metric['name']:12} median {median:12.4f} "
                  f"spread {share:6.3f} bound {metric['bound']}", file=sys.stderr)
        report[workload] = {"meta": {k: v for k, v in info["meta"].items() if k != "seed"},
                            "seeds": [args.first_seed, args.first_seed + args.runs - 1],
                            "metrics": rows}
    return report, ok


def selfcheck(args):
    report, ok = {}, True
    for workload in args.workloads:
        (first, info1), (second, info2) = run(workload, args.seed, 1), run(workload, args.seed, 1)
        counts = {name: (m["value"], second["metrics"][name]["value"])
                  for name, m in first["metrics"].items() if m["unit"] in ("count", "ratio")}
        differing = sorted(name for name, (a, b) in counts.items() if a != b)
        not_zero = [name for name in PREDICTED_ZERO[workload] if counts[name][0] != 0]
        other, other_info = run(workload, args.second_seed, 0)
        row = {
            "seed": args.seed,
            "counts_repeat": not differing,
            "differing_counts": differing,
            "predicted_zero": PREDICTED_ZERO[workload],
            "predicted_zero_not_zero": not_zero,
            "artifacts_repeat": info1["artifact_sha256"] == info2["artifact_sha256"],
            "artifacts": info1["artifacts"],
            "traced_failed": first["failed"] + second["failed"],
            "second_seed": args.second_seed,
            "second_seed_attempted": other["attempted"],
            "second_seed_failed": other["failed"],
            "counts": {name: a for name, (a, _) in counts.items()},
            "meta": {k: v for k, v in other_info["meta"].items() if k != "seed"},
        }
        ok &= (row["counts_repeat"] and row["artifacts_repeat"] and row["traced_failed"] == 0
               and not not_zero and other["correct"] and other["failed"] == 0)
        report[workload] = row
        print(f"{workload:14} counts_repeat={row['counts_repeat']} "
              f"artifacts_repeat={row['artifacts_repeat']} "
              f"predicted_zero_not_zero={not_zero} "
              f"second_seed_failed={other['failed']}/{other['attempted']}", file=sys.stderr)
    return report, ok


def compare(args):
    before, after = (json.loads(Path(f).read_text())["workloads"] for f in (args.before, args.after))
    report, ok = {}, before.keys() == after.keys()
    if not ok:
        print(f"workloads differ: {sorted(before)} against {sorted(after)}", file=sys.stderr)
    for metric in SPEC["end_to_end"]:
        name, sign = metric["name"], 1 if metric["better"] == "lower" else -1
        for workload in sorted(before.keys() & after.keys()):
            a = before[workload]["metrics"][name]["median"]
            b = after[workload]["metrics"][name]["median"]
            worse = sign * (b - a) / a
            ok &= worse <= metric["bound"]
            report.setdefault(workload, {})[name] = {
                "before": a, "after": b, "worse_by": worse, "bound": metric["bound"]}
            print(f"{workload:14} {name:12} {a:12.4f} -> {b:12.4f} worse by {worse:+.3f} "
                  f"(bound {metric['bound']})", file=sys.stderr)
    return report, ok


def main():
    names = [w["name"] for w in SPEC["workloads"]]
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    sub = parser.add_subparsers(dest="check", required=True)
    p = sub.add_parser("spread")
    p.add_argument("--runs", type=int, default=10)
    p.add_argument("--first-seed", type=int, default=100)
    p.add_argument("workloads", nargs="*", default=names)
    p.set_defaults(func=spread)
    p = sub.add_parser("selfcheck")
    p.add_argument("--seed", type=int, default=1)
    p.add_argument("--second-seed", type=int, default=2)
    p.add_argument("workloads", nargs="*", default=names)
    p.set_defaults(func=selfcheck)
    p = sub.add_parser("compare")
    p.add_argument("before")
    p.add_argument("after")
    p.set_defaults(func=compare)
    args = parser.parse_args()
    report, ok = args.func(args)
    print(json.dumps({"check": args.check, "ok": ok, "workloads": report}, indent=1))
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
