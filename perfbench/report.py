#!/usr/bin/env python3
"""Run the fqed benchmark repeatedly and summarise every metric.

    python3 perfbench/report.py [--runs 10] [--first-seed 1] [--traced 2]
                                [--workloads desk-scan,deep-scan]
                                [--out perfbench/baseline.json]
                                [--against EARLIER_REPORT.json]

Run from the root of a checkout.  For each seed, every selected workload is
run once untraced (``run.py --trace 0``), round robin so that drift in the
machine's load reaches all workloads alike.  Then each workload gets
``--traced`` traced runs.  Printed per workload: each end-to-end metric by
name and unit with its median, quartiles, run count and quartile spread as a
share of the median (against the bound in ``BENCHMARK.json``), the fail
ratio, and the median of each per-layer metric.  Per-layer counts must
repeat exactly across the traced runs.  The summary is written as JSON to
``--out``.  With ``--against``, each end-to-end median is also compared with
the same median of an earlier report, and a change for the worse by more than
the metric's bound is flagged.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
import time
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent

#: Per-layer metrics that are counts, or ratios of counts, and so must repeat
#: exactly from one traced run to the next.
EXACT_UNITS = ("count", "ratio", "solves/init", "solves/frame")


def one_run(workload: str, seed: int, seconds: int, trace: int) -> dict:
    cmd = [sys.executable, str(BENCH / "run.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds),
           "--trace", str(trace)]
    t0 = time.monotonic()
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True,
                          check=False)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        sys.exit(f"{' '.join(cmd)} failed ({proc.returncode}):\n"
                 f"{proc.stdout}{proc.stderr}")
    result = json.loads(lines[-1])
    result["run_s"] = time.monotonic() - t0
    print(f"  {workload} seed {seed} trace {trace}: {result['run_s']:.1f} s, "
          f"correct={result['correct']} "
          f"failed={result['failed']}/{result['attempted']}", flush=True)
    if not result["correct"]:
        print("\n".join(ln for ln in lines if ln.startswith("problem:")))
    return result


def summary(values: list) -> dict:
    if len(values) < 2:
        q1 = med = q3 = values[0]
    else:
        q1, med, q3 = statistics.quantiles(values, n=4)
    return {"n": len(values), "median": med, "q1": q1, "q3": q3,
            "spread": (q3 - q1) / med if med else 0.0, "values": values}


def main(argv=None) -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    names = [w["name"] for w in spec["workloads"]]
    parser = argparse.ArgumentParser(prog="perfbench/report.py")
    parser.add_argument("--workloads", default=",".join(names))
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--first-seed", type=int, default=1)
    parser.add_argument("--traced", type=int, default=2)
    parser.add_argument("--out", default=str(ROOT / ".perfbench_out"
                                             / "report.json"))
    parser.add_argument("--against", help="earlier report to compare with")
    args = parser.parse_args(argv)
    earlier = (json.loads(Path(args.against).read_text())["workloads"]
               if args.against else {})
    workloads = args.workloads.split(",")

    plain = {w: [] for w in workloads}
    traced = {w: [] for w in workloads}
    seeds = range(args.first_seed, args.first_seed + args.runs)
    for seed in seeds:
        for w in workloads:
            plain[w].append(one_run(w, seed, spec["run_seconds"], 0))
    for i in range(args.traced):
        for w in workloads:
            traced[w].append(one_run(w, args.first_seed + i,
                                     spec["run_seconds"], 1))

    report = {"seeds": [seeds.start, seeds.stop - 1],
              "seconds": spec["run_seconds"], "workloads": {}}
    ok = True
    for w in workloads:
        runs = plain[w] + traced[w]
        attempted = sum(r["attempted"] for r in runs)
        failed = sum(r["failed"] for r in runs)
        entry = {"runs": len(plain[w]), "traced_runs": len(traced[w]),
                 "all_correct": all(r["correct"] for r in runs),
                 "fail_ratio": failed / attempted,
                 "run_s": summary([r["run_s"] for r in runs]),
                 "end_to_end": {}, "per_layer": {}}
        ok &= entry["all_correct"]
        print(f"\n{w}: {len(plain[w])} runs + {len(traced[w])} traced, "
              f"fail_ratio {failed}/{attempted} = {failed / attempted:.4f}, "
              f"run length median {entry['run_s']['median']:.1f} s")
        for m in spec["end_to_end"] if plain[w] else []:
            s = summary([r["metrics"][m["name"]]["value"] for r in plain[w]])
            s.update(unit=m["unit"], bound=m["bound"])
            entry["end_to_end"][m["name"]] = s
            flag = "ok" if s["spread"] < m["bound"] / 3 else "WIDE"
            print(f"  {m['name']:14s} {s['median']:10.4f} {m['unit']:4s} "
                  f"[{s['q1']:.4f}, {s['q3']:.4f}] n={s['n']} "
                  f"spread {s['spread']:.4f} (bound {m['bound']}) {flag}")
            before = earlier.get(w, {}).get("end_to_end", {}).get(m["name"])
            if before:
                change = s["median"] / before["median"] - 1.0
                worse = change if m["better"] == "lower" else -change
                s["change_vs_earlier"] = change
                print(f"  {'':14s} median {change:+.4f} against "
                      f"{before['median']:.4f} of {args.against}"
                      f"{'  WORSE THAN BOUND' if worse > m['bound'] else ''}")
        for m in spec["per_layer"] if traced[w] else []:
            vals = [r["metrics"][m["name"]]["value"] for r in traced[w]]
            s = summary(vals)
            s["unit"] = m["unit"]
            if m["unit"] in EXACT_UNITS:
                s["repeats_exactly"] = len(set(vals)) == 1
                ok &= s["repeats_exactly"]
            entry["per_layer"][m["name"]] = s
            mark = {True: "", False: "  NOT REPEATED"}.get(
                s.get("repeats_exactly"), "")
            print(f"  {m['name']:40s} {s['median']:12.6g} {m['unit']}{mark}")
        report["workloads"][w] = entry

    Path(args.out).parent.mkdir(parents=True, exist_ok=True)
    Path(args.out).write_text(json.dumps(report, indent=1) + "\n")
    print(f"\nwrote {args.out}")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
