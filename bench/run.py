"""Benchmark command: run one workload for a fixed time and print its metrics.

    python3 bench/run.py --workload estimate-uuv --seed 7 --seconds 30 --trace 0

Run it from the root of a checkout (it finds ``src/`` next to ``bench/``).
It writes the workload's inputs from ``--seed``, then repeats whole rounds
for ``--seconds``.  A round spawns one fresh child interpreter
(``child.py``) that calls ``hypodist.cli.main`` on those inputs, then checks
the outputs (``checks.py``) outside the timed region.  Every child is one
operation; one whose call fails or whose output fails a check is counted in
``failed``.

``--trace 0`` reports the end-to-end metrics, each the median over the
run's children: ``setup_s`` (spawn until ``main`` is called; extra set-up-only
children top the sample up to five), ``run_s`` (wall time of ``main``) and
``peak_rss_mb`` (the child's peak resident set).  ``--trace 1`` runs each
round twice, untraced and traced, and reports the per-layer metrics of the
traced children plus the tracing overhead.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``; the lines before it
print every metric by name with its unit.
"""

from __future__ import annotations

import argparse
import itertools
import json
import os
import shutil
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")

# single-threaded children: BLAS/OpenMP pools pinned, hypodist's own pool off
PINNED = {
    "OMP_NUM_THREADS": "1",
    "OPENBLAS_NUM_THREADS": "1",
    "MKL_NUM_THREADS": "1",
    "VECLIB_MAXIMUM_THREADS": "1",
    "NUMEXPR_NUM_THREADS": "1",
}
MIN_SETUPS = 5
# rounds end by this mark whatever --seconds says, so a run ends within 180 s
LAST_ROUND_END_S = 150.0
CHILD_TIMEOUT_S = 170.0

END_TO_END = {"setup_s": "s", "run_s": "s", "peak_rss_mb": "MB"}


def child_env() -> dict:
    env = dict(os.environ)
    env.update(PINNED)
    env.pop("HYPODIST_THREADS", None)
    env["PYTHONPATH"] = SRC
    return env


class Run:
    """One benchmark run: its inputs, children and collected samples."""

    def __init__(self, name: str, seed: int, work_dir: str) -> None:
        self.name, self.seed, self.work_dir = name, seed, work_dir
        self.inputs = None
        self.report = os.path.join(work_dir, "child.json")
        self.env = child_env()
        self.attempted = 0
        self.failed = 0
        self.setup_s: list = []
        self.samples: dict = {"run": [], "trace": []}

    def spawn(self, mode: str) -> dict | None:
        """Run one child; return its report, or None if it produced none."""
        if os.path.exists(self.report):
            os.remove(self.report)
        if mode != "setup":
            shutil.rmtree(self.inputs.out_dir, ignore_errors=True)
        cmd = [sys.executable, os.path.join(HERE, "child.py"), self.report, mode]
        t0 = time.monotonic()
        try:
            proc = subprocess.run(
                cmd + self.inputs.argv, env=self.env, cwd=ROOT,
                capture_output=True, text=True, timeout=CHILD_TIMEOUT_S,
            )
        except subprocess.TimeoutExpired:
            print(f"{mode} child timed out after {CHILD_TIMEOUT_S:g} s", file=sys.stderr)
            return None
        if proc.returncode != 0 or not os.path.exists(self.report):
            print(f"{mode} child exited with {proc.returncode}:\n{proc.stderr}",
                  file=sys.stderr)
            return None
        with open(self.report) as fh:
            child = json.load(fh)
        self.setup_s.append(child["t_main"] - t0)
        return child

    def operation(self, mode: str) -> None:
        """One timed CLI call and the checks on its output."""
        import checks

        self.attempted += 1
        child = self.spawn(mode)
        if child is None:
            self.failed += 1
            return
        problems = checks.check(self.inputs)
        if child["exit_code"] != 0:
            problems.insert(0, f"main returned {child['exit_code']}")
        if problems:
            self.failed += 1
            print(f"{self.inputs.name}: output check failed:\n  "
                  + "\n  ".join(problems), file=sys.stderr)
        self.samples[mode].append(child)

    def measure(self, seconds: float, traced: bool) -> None:
        """Whole rounds, at least one; another round starts only if one as
        long as the last would still end within ``seconds``.

        Untraced, round k runs on the seed's k-th uuv sample pair, so a run's
        median covers several pairs rather than one pair's LP and candidate
        counts.  Traced, every round runs on pair 0, so that the counts of
        two traced runs of one seed are equal."""
        import workloads

        end = time.monotonic() + min(seconds, LAST_ROUND_END_S)
        for pair in itertools.count():
            t0 = time.monotonic()
            self.inputs = workloads.prepare(
                self.name, self.seed, self.work_dir, pair=0 if traced else pair
            )
            self.operation("run")
            if traced:
                self.operation("trace")
            now = time.monotonic()
            if now + (now - t0) > end:
                break
        while not traced and len(self.setup_s) < MIN_SETUPS:
            if self.spawn("setup") is None:
                break

    def end_to_end(self) -> dict:
        runs = self.samples["run"]
        return {
            "setup_s": statistics.median(self.setup_s),
            "run_s": statistics.median(c["run_s"] for c in runs),
            "peak_rss_mb": statistics.median(c["peak_rss_mb"] for c in runs),
        }

    def per_layer(self) -> dict:
        import spans

        traced = [spans.layer_metrics(c["spans"], c["counts"])
                  for c in self.samples["trace"]]
        out = {key: statistics.median(m[key] for m in traced) for key in traced[0]}
        out["trace.overhead_s"] = (
            statistics.median(c["run_s"] for c in self.samples["trace"])
            - statistics.median(c["run_s"] for c in self.samples["run"])
        )
        return out


def unit_of(metric: str) -> str:
    if metric in END_TO_END:
        return END_TO_END[metric]
    if metric.endswith("_s"):
        return "s"
    return "ratio" if metric.endswith("_ratio") else "count"


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=None)
    parser.add_argument("--seconds", type=float, default=35.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not os.path.isdir(os.path.join(SRC, "hypodist")):
        print(f"no hypodist sources under {SRC}; run from a full checkout",
              file=sys.stderr)
        return 2
    os.environ.update(PINNED)  # before numpy loads in this process too
    sys.path.insert(0, SRC)
    import workloads

    if args.workload not in workloads.WORKLOADS:
        parser.error(f"--workload must be one of {', '.join(workloads.WORKLOADS)}")
    seed = workloads.DEFAULT_SEED if args.seed is None else args.seed
    work_dir = os.path.join(
        ROOT, ".bench_out", f"{args.workload}-seed{seed}-pid{os.getpid()}"
    )
    try:
        run = Run(args.workload, seed, work_dir)
        run.measure(args.seconds, traced=bool(args.trace))
    finally:
        shutil.rmtree(work_dir, ignore_errors=True)
    if not run.samples["run"] or (args.trace and not run.samples["trace"]):
        print("no child completed; nothing to report", file=sys.stderr)
        return 1
    metrics = run.per_layer() if args.trace else run.end_to_end()
    for key, value in metrics.items():
        print(f"{args.workload}  {key} = {value:.6g} {unit_of(key)}")
    print(f"{args.workload}  attempted = {run.attempted}, failed = {run.failed}")
    print(json.dumps({
        "correct": run.failed == 0,
        "attempted": run.attempted,
        "failed": run.failed,
        "metrics": {k: {"value": v, "unit": unit_of(k)} for k, v in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
