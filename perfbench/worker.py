"""One workload in one fresh process; started by run.py, never by hand.

Prints a single JSON line with what it measured.  `--setup-only` times the
set-up alone: importing `folner_lab`, writing the seeded spec files and
validating them with the `validate` subcommand.
"""
from __future__ import annotations

import argparse
import gc
import io
import json
import resource
import statistics
import sys
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path
from time import perf_counter


class Stats:
    def __init__(self):
        self.attempted = self.failed = self.checks = 0
        self.problems = []  # failed invocations and failed checks, as messages
        self.check_failures = 0


def run_pass(cli, invocations, first_outputs: dict, stats: Stats, Checker, tr) -> list:
    """Run every invocation once; returns the wall time of each call.

    Checks run after each call, outside the timed region.  Spans recorded
    during call k carry the tag k.
    """
    times = []
    for k, inv in enumerate(invocations):
        out, err = io.StringIO(), io.StringIO()
        tr.tag = k
        t0 = perf_counter()
        try:
            with redirect_stdout(out), redirect_stderr(err):
                rc = cli.main(list(inv.argv))
        except (Exception, SystemExit) as exc:  # a crash counts as a failed invocation
            rc = f"raised {exc!r}"
        times.append(perf_counter() - t0)
        stats.attempted += 1
        if rc != 0:
            stats.failed += 1
            stats.problems.append(f"{inv.argv[0]} #{k}: exit {rc}: {err.getvalue().strip()[:300]}")
            continue
        text = out.getvalue()
        ck = Checker()
        inv.check(text, ck)
        if k in first_outputs:
            ck.ok(text == first_outputs[k], f"{inv.argv[0]} #{k}: output differs from pass 1")
        else:
            first_outputs[k] = text
        stats.checks += ck.count
        stats.check_failures += len(ck.failures)
        stats.problems.extend(f"check {msg}" for msg in ck.failures)
    return times


def main() -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, default=10.0)
    ap.add_argument("--trace", type=int, default=0)
    ap.add_argument("--root", required=True)
    ap.add_argument("--workdir", required=True)
    ap.add_argument("--spans", help="where a traced run writes its spans")
    ap.add_argument("--setup-only", action="store_true")
    ap.add_argument("--quick", action="store_true")
    args = ap.parse_args()

    src = (Path(args.root) / "src").resolve()
    sys.path.insert(0, str(src))
    t0 = perf_counter()
    import folner_lab.cli as cli

    if not Path(cli.__file__).resolve().is_relative_to(src):
        print(f"worker: folner_lab imported from {cli.__file__}, not {src}", file=sys.stderr)
        return 2
    import gen

    docs, params = gen.docs_for(args.workload, args.seed)
    paths = gen.write_specs(docs, Path(args.workdir))
    with redirect_stdout(io.StringIO()):
        valid = cli.main(["validate", *paths.values()])
    setup_s = perf_counter() - t0
    if valid != 0:
        print(f"worker: generated specs fail validation (exit {valid})", file=sys.stderr)
        return 1
    if args.setup_only:
        print(json.dumps({"setup_s": setup_s}))
        return 0

    import tracer
    import workloads

    invocations = workloads.build(args.workload, paths, docs, params, args.quick)
    stats, first = Stats(), {}
    untraced, traced = [], []
    tr = tracer.Tracer()

    def one(trace: bool):
        gc.collect()
        if trace:
            tr.install()
        try:
            times = run_pass(cli, invocations, first, stats, workloads.Checker, tr)
        finally:
            tr.uninstall()
        (traced if trace else untraced).append(times)

    if args.quick:
        one(False)
        one(True)
    else:
        one(False)  # warm-up pass: checked, not timed
        untraced.clear()
        start = perf_counter()
        while True:
            one(False)
            if args.trace:
                one(True)
            if perf_counter() - start >= args.seconds:
                break

    result = {
        "attempted": stats.attempted,
        "failed": stats.failed,
        "checks": stats.checks,
        "check_failures": stats.check_failures,
        "problems": stats.problems[:20],
        "passes": len(untraced) + len(traced) + (0 if args.quick else 1),
        "setup_s": setup_s,
        "run_s": statistics.median(sum(p) for p in untraced),
        "pass_times": [sum(p) for p in untraced + traced],
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
    }
    if traced:
        metrics = tracer.layer_metrics(tr.spans, len(traced))
        t_med = statistics.median(sum(p) for p in traced)
        u_med = statistics.median(sum(p) for p in untraced)
        metrics["trace.traced_run_s"] = (t_med, "s")
        metrics["trace.untraced_run_s"] = (u_med, "s")
        metrics["trace.overhead_s"] = (t_med - u_med, "s")
        result["layers"] = {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()}
        if args.spans:
            tr.write(args.spans, [" ".join(inv.argv) for inv in invocations])
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
