"""Two sets of benchmark runs of the same code, compared against the bounds.

    python3 bench/compare.py [--runs 10] [--first-seed 1]
    python3 bench/compare.py --trace [--first-seed 7]

Without ``--trace`` it runs two sets, one after the other.  Each set makes
``--runs`` runs of every workload in ``BENCHMARK.json`` with seeds
``first-seed, first-seed + 1, ...``, interleaving the workloads (the order
rotates with each seed) rather than running one workload back to back.  For
every workload and end-to-end metric it prints each set's median and
quartiles, the spread (quartile distance over the median) next to the
metric's bound, and the change of the second median against the first.  It
also compares the share of failed operations.

With ``--trace`` it makes two traced runs of every workload on one seed and
prints the per-layer metrics side by side, marking any count that differs.

Each run's result line is saved under ``.bench_out/`` as JSON.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def bench_run(name: str, seed: int, seconds: int, trace: int) -> dict:
    cmd = [sys.executable, os.path.join(HERE, "run.py"), "--workload", name,
           "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)]
    t0 = time.monotonic()
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True)
    if proc.returncode != 0:
        raise SystemExit(f"{' '.join(cmd)} exited with {proc.returncode}:\n"
                         f"{proc.stderr}")
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    print(f"  {name} seed {seed}: {time.monotonic() - t0:.0f} s, "
          f"attempted {result['attempted']}, failed {result['failed']}, "
          + ", ".join(f"{k} {v['value']:.4g}" for k, v in result["metrics"].items()
                      if k in ("setup_s", "run_s", "peak_rss_mb")),
          flush=True)
    return result


def compare_sets(bench: dict, runs: int, first_seed: int) -> dict:
    names = [w["name"] for w in bench["workloads"]]
    sets: list = []
    for label in ("first", "second"):
        print(f"set {label}:", flush=True)
        results: dict = {name: [] for name in names}
        for i in range(runs):
            seed = first_seed + i
            k = i % len(names)
            for name in names[k:] + names[:k]:
                results[name].append(bench_run(name, seed, bench["run_seconds"], 0))
        sets.append(results)

    ok = True
    print(f"\n{'workload':<22} {'metric':<12} {'set':<6} {'median':>10} "
          f"{'q1':>10} {'q3':>10} {'spread':>7} {'bound':>6} {'change':>7}")
    for name in names:
        for metric in bench["end_to_end"]:
            key, bound = metric["name"], metric["bound"]
            medians = []
            for label, results in zip(("first", "second"), sets):
                values = [r["metrics"][key]["value"] for r in results[name]]
                q1, med, q3 = statistics.quantiles(values, n=4)
                spread = (q3 - q1) / med
                medians.append(med)
                if key != "setup_s" and spread > bound:
                    ok = False
                change = ""
                if label == "second":
                    sign = 1.0 if metric["better"] == "lower" else -1.0
                    worse = sign * (med - medians[0]) / medians[0]
                    change = f"{worse:+.3f}"
                    ok = ok and worse <= bound
                print(f"{name:<22} {key:<12} {label:<6} {med:>10.4f} {q1:>10.4f} "
                      f"{q3:>10.4f} {spread:>7.3f} {bound:>6.2f} {change:>7} "
                      f"{metric['unit']}")
        shares = [
            (sum(r["failed"] for r in results[name]),
             sum(r["attempted"] for r in results[name]))
            for results in sets
        ]
        same = shares[0][0] * shares[1][1] == shares[1][0] * shares[0][1]
        ok = ok and same
        print(f"{name:<22} failed/attempted: {shares[0][0]}/{shares[0][1]} then "
              f"{shares[1][0]}/{shares[1][1]}" + ("" if same else "  DIFFERENT"))
    print("\nwithin bounds" if ok else "\nOUTSIDE BOUNDS")
    return {"runs": runs, "first_seed": first_seed, "sets": sets, "ok": ok}


def compare_traces(bench: dict, seed: int) -> dict:
    names = [w["name"] for w in bench["workloads"]]
    pairs = {name: [] for name in names}
    for _ in range(2):
        for name in names:
            pairs[name].append(bench_run(name, seed, bench["run_seconds"], 1))
    same = True
    for name in names:
        a, b = (r["metrics"] for r in pairs[name])
        print(f"\n{name} (seed {seed})")
        for key in a:
            va, vb = a[key]["value"], b[key]["value"]
            mark = ""
            if a[key]["unit"] == "count" and va != vb:
                mark, same = "  COUNT DIFFERS", False
            print(f"  {key:<32} {va:>14.6g} {vb:>14.6g} {a[key]['unit']}{mark}")
    print("\ncounts repeat exactly" if same else "\nCOUNTS DIFFER")
    return {"seed": seed, "traces": pairs, "same_counts": same}


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--first-seed", type=int, default=None)
    parser.add_argument("--trace", action="store_true")
    args = parser.parse_args()
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        bench = json.load(fh)
    if args.trace:
        record = compare_traces(bench, 7 if args.first_seed is None else args.first_seed)
        ok = record["same_counts"]
    else:
        if args.runs < 2:
            parser.error("--runs must be at least 2 to form quartiles")
        record = compare_sets(bench, args.runs, 1 if args.first_seed is None else args.first_seed)
        ok = record["ok"]
    out_dir = os.path.join(ROOT, ".bench_out")
    os.makedirs(out_dir, exist_ok=True)
    kind = "trace" if args.trace else "sets"
    path = os.path.join(out_dir, f"compare-{kind}-{time.strftime('%Y%m%d-%H%M%S')}.json")
    with open(path, "w") as fh:
        json.dump(record, fh, indent=1)
    print(f"results saved to {path}")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
