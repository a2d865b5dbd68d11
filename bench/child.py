"""One benchmark child: a fresh interpreter that runs ``hypodist.cli.main``.

    python bench/child.py <report.json> <setup|run|trace> [cli arguments...]

The parent spawns it with ``PYTHONPATH=src`` and threads pinned, and times
set-up from the spawn to the ``time.monotonic()`` stamp taken right before
``main`` is called (the clock is system-wide).  Set-up includes the imports
the CLI would otherwise make lazily on its first LP probe, so that cost is
not charged to the timed call.  ``setup`` stops there; ``run`` also times
``main``; ``trace`` times it with spans recorded around every layer.
"""

import json
import resource
import sys
import time


def main() -> int:
    report_path, mode, argv = sys.argv[1], sys.argv[2], sys.argv[3:]
    import scipy.optimize  # noqa: F401  (imported lazily by hypodist.lp)
    import scipy.sparse  # noqa: F401

    from hypodist import cli

    rec = None
    if mode == "trace":
        import spans

        rec = spans.Recorder()
        spans.install(rec)
    report = {"t_main": time.monotonic()}
    if mode != "setup":
        t0 = time.perf_counter()
        report["exit_code"] = cli.main(argv)
        report["run_s"] = time.perf_counter() - t0
        # ru_maxrss is in KiB on Linux
        report["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    if rec is not None:
        report["spans"] = rec.spans
        report["counts"] = rec.counts
    with open(report_path, "w") as fh:
        json.dump(report, fh)
    return 0


if __name__ == "__main__":
    sys.exit(main())
