#!/usr/bin/env python3
"""Parent-versus-change comparison on the repository benchmark.

  python3 bench/suite/compare.py --parent ../parent --change . --pairs 10
  python3 bench/suite/compare.py --load bench/suite/baseline/aa_runs.json

Runs `python3 bench/suite/run.py --workload W --seed S` in the root of each
checkout. Pair i uses seed first_seed + i on both sides, and the side that
runs first alternates from pair to pair. Both checkouts run their own copy
of the benchmark, so they must hold the same bench/suite and BENCHMARK.json.

For every workload and end-to-end metric it prints each side's median and
quartiles, the fraction of pairs the change wins (ties count for neither),
and a verdict against the bound in BENCHMARK.json:
  worse       the change's median is worse by more than the bound
  unresolved  a side's spread, (q3 - q1) / median, exceeds the bound, and
              not every change run beats every parent run
  better      the change wins at least 9 of 10 pairs, the medians differ by
              more than the parent's q3 - q1, and no more operations failed
  same        otherwise
Then one summary row per workload. The exit code is 1 when any metric is
worse or the change failed more operations than the parent.
"""

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

SUITE = Path(__file__).resolve().parent
sys.path.insert(0, str(SUITE))
import run  # noqa: E402  (fingerprint, workload names)


def run_once(checkout, workload, seed, seconds):
    cmd = [sys.executable, "bench/suite/run.py", "--workload", workload,
           "--seed", str(seed), "--trace", "0"]
    if seconds:
        cmd += ["--seconds", str(seconds)]
    proc = subprocess.run(cmd, cwd=checkout, capture_output=True, text=True,
                          timeout=900)
    lines = proc.stdout.strip().splitlines()
    if not lines or not lines[-1].startswith("{"):
        sys.exit(f"compare.py: {' '.join(cmd)} in {checkout} printed no "
                 f"result:\n{proc.stderr[-2000:]}")
    return json.loads(lines[-1])


def collect(args, workloads):
    pairs = []
    for i in range(args.pairs):
        seed = args.first_seed + i
        for workload in workloads:
            sides = ["parent", "change"] if i % 2 == 0 else ["change", "parent"]
            pair = {"workload": workload, "seed": seed, "first": sides[0]}
            for side in sides:
                checkout = args.parent if side == "parent" else args.change
                pair[side] = run_once(checkout, workload, seed, args.seconds)
                print(f"pair {i + 1}/{args.pairs} {workload} seed {seed} "
                      f"{side}: wall_s "
                      f"{pair[side]['metrics']['wall_s']['value']:.4f}",
                      file=sys.stderr)
            pairs.append(pair)
    return pairs


def quartiles(values):
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def judge(metric, parent, change, parent_failed, change_failed):
    lower = metric["better"] == "lower"
    bound = metric["bound"]
    p1, pm, p3 = quartiles(parent)
    c1, cm, c3 = quartiles(change)
    wins = sum((c < p) if lower else (c > p) for p, c in zip(parent, change))
    frac = wins / len(parent)
    worse = (cm - pm) / pm if lower else (pm - cm) / pm
    spread = max((p3 - p1) / pm, (c3 - c1) / cm)
    all_better = (max(change) < min(parent)) if lower else \
        (min(change) > max(parent))
    if spread > bound and not all_better:
        verdict = "unresolved"
    elif worse > bound:
        verdict = "worse"
    elif frac >= 0.9 and abs(cm - pm) > p3 - p1 and \
            change_failed <= parent_failed:
        verdict = "better"
    else:
        verdict = "same"
    return {"parent": (p1, pm, p3), "change": (c1, cm, c3), "wins": frac,
            "delta": -worse, "spread": spread, "verdict": verdict}


def report(spec, pairs):
    metrics = spec["end_to_end"]
    workloads = list(dict.fromkeys(p["workload"] for p in pairs))
    print(f"{'workload':<20} {'metric':<16} {'parent med [q1, q3]':>30} "
          f"{'change med [q1, q3]':>30} {'gain':>8} {'wins':>5} "
          f"{'spread':>7} {'bound':>6}  verdict")
    summary, failing = [], False
    for w in workloads:
        rows = [p for p in pairs if p["workload"] == w]
        failed = {s: sum(r[s]["failed"] for r in rows) for s in
                  ("parent", "change")}
        attempted = {s: sum(r[s]["attempted"] for r in rows) for s in
                     ("parent", "change")}
        verdicts = {}
        for m in metrics:
            name = m["name"]
            parent = [r["parent"]["metrics"][name]["value"] for r in rows]
            change = [r["change"]["metrics"][name]["value"] for r in rows]
            j = judge(m, parent, change, failed["parent"], failed["change"])
            verdicts.setdefault(j["verdict"], []).append(name)
            fmt = "{1:.4g} [{0:.4g}, {2:.4g}]"
            print(f"{w:<20} {name:<16} {fmt.format(*j['parent']):>30} "
                  f"{fmt.format(*j['change']):>30} {j['delta']:>+8.1%} "
                  f"{j['wins']:>5.0%} {j['spread']:>7.1%} {m['bound']:>6.0%}"
                  f"  {j['verdict']}")
        more_failures = failed["change"] > failed["parent"]
        failing |= more_failures or "worse" in verdicts
        parts = [f"{len(rows)} pairs",
                 f"failed {failed['parent']}/{attempted['parent']} -> "
                 f"{failed['change']}/{attempted['change']}"]
        parts += [f"{v}: {', '.join(n)}" for v, n in sorted(verdicts.items())]
        summary.append(f"{w:<20} " + "; ".join(parts))
    print()
    print("\n".join(summary))
    return 1 if failing else 0


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--parent", type=Path, help="parent checkout root")
    parser.add_argument("--change", type=Path, help="change checkout root")
    parser.add_argument("--pairs", type=int, default=10)
    parser.add_argument("--first-seed", type=int, default=1)
    parser.add_argument("--workloads", default=",".join(run.WORKLOADS))
    parser.add_argument("--seconds", type=float,
                        help="override run_seconds (keep it equal on both)")
    parser.add_argument("--save", type=Path, help="write the runs as JSON")
    parser.add_argument("--load", type=Path, help="report saved runs")
    args = parser.parse_args()

    if args.load:
        saved = json.loads(args.load.read_text())
        spec, pairs = saved["benchmark"], saved["pairs"]
        print(f"host: {json.dumps(saved['fingerprint'])}")
    else:
        if not (args.parent and args.change):
            parser.error("--parent and --change are required without --load")
        if args.pairs < 10:
            print("compare.py: fewer than 10 pairs cannot support a claim",
                  file=sys.stderr)
        args.parent, args.change = args.parent.resolve(), args.change.resolve()
        spec = json.loads((args.change / "BENCHMARK.json").read_text())
        workloads = [w for w in args.workloads.split(",") if w]
        pairs = collect(args, workloads)
        if args.save:
            data = args.change / ".bench_build"
            one = next(data.glob("data/*/one.jsonl"))
            fp = run.fingerprint(data / "jsonsi" / "tools" / "jsi", one)
            args.save.write_text(json.dumps(
                {"fingerprint": fp, "benchmark": spec, "pairs": pairs},
                indent=1) + "\n")
    return report(spec, pairs)


if __name__ == "__main__":
    sys.exit(main())
