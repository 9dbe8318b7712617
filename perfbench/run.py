"""folner-lab benchmark: one command for every workload, metric and check.

    python3 perfbench/run.py --workload szego-spectral --seed 1 --seconds 15 --trace 0
    python3 perfbench/run.py --quick            # all workloads, small windows

Run from anywhere inside a checkout; the program is imported from the
checkout's `src/`, never from an installed copy.  Each workload runs in a
fresh child process (worker.py) so that its peak memory is its own; with
`--trace 0` nine more fresh processes time the set-up.  The last line of
standard output is one JSON object: correct, attempted, failed, metrics.
See README.md in this directory for the workloads and metrics.
"""
from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKLOADS = ("szego-spectral", "poly-sections", "banded-grid", "tensor-bound")
SETUP_PROBES = 9
DEADLINE_S = 175.0  # the whole command must end within 180 s


def thread_env(workload: str):
    """Single-threaded BLAS everywhere; `folner_profile`'s thread pool gets
    min(4, nproc) workers on banded-grid, the workload that measures it, and
    one elsewhere.  Compute threads never exceed nproc, and elsewhere every
    run allocates in the same order, so its peak memory repeats exactly."""
    nproc = len(os.sched_getaffinity(0))
    pool = min(4, nproc) if workload == "banded-grid" else 1
    settings = {"FOLNER_LAB_THREADS": str(pool)}
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        settings[var] = "1"
    print(f"perfbench: {workload}: threads {' '.join(f'{k}={v}' for k, v in settings.items())} "
          f"(nproc={nproc})")
    return {**os.environ, **settings}


def child(args_list, env, timeout) -> dict:
    """Run worker.py to its end; returns its JSON line.  Raises on failure."""
    proc = subprocess.run([sys.executable, str(HERE / "worker.py"), *args_list], env=env,
                          stdout=subprocess.PIPE, text=True, timeout=timeout, check=False)
    if proc.returncode != 0:
        raise RuntimeError(f"worker exited with {proc.returncode}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def run_workload(name, seed, seconds, trace, quick, started) -> dict:
    env = thread_env(name)
    work = ROOT / ".bench_work" / f"{name}-seed{seed}-pid{os.getpid()}"
    spans = ROOT / ".bench_work" / f"spans-{name}-seed{seed}.tsv"
    common = ["--workload", name, "--seed", str(seed), "--root", str(ROOT)]
    probes = SETUP_PROBES if not trace and not quick else 0
    setups = []

    def probe(count):
        for _ in range(count):
            out = child([*common, "--workdir", str(work / f"probe{len(setups)}"),
                         "--setup-only"], env, timeout=60)
            setups.append(out["setup_s"])

    try:
        # probes before and after the workload, so they sample two moments of
        # a machine whose speed drifts
        probe(probes - probes // 2)
        remaining = DEADLINE_S - 10.0 - (time.monotonic() - started)
        flags = ["--seconds", str(seconds), "--trace", str(trace), "--spans", str(spans)]
        flags += ["--quick"] if quick else []
        res = child([*common, "--workdir", str(work / "specs"), *flags], env,
                    timeout=max(remaining, 10.0))
        probe(probes // 2)
    finally:
        shutil.rmtree(work, ignore_errors=True)
    if setups:
        res["setup_s"] = statistics.median(setups)
    res["spans_file"] = str(spans)
    return res


def report(name, res):
    print(f"perfbench: {name}: passes={res['passes']} invocations attempted={res['attempted']} "
          f"failed={res['failed']}; checks attempted={res['checks']} "
          f"failed={res['check_failures']}")
    print(f"perfbench: {name}: timed passes (s) {' '.join(f'{t:.4f}' for t in res['pass_times'])}")
    for msg in res["problems"]:
        print(f"perfbench: {name}: {msg}", file=sys.stderr)


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", choices=WORKLOADS)
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=10.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--quick", action="store_true",
                    help="small windows, one untraced and one traced pass, all checks")
    args = ap.parse_args()
    started = time.monotonic()
    if not (ROOT / "src" / "folner_lab" / "cli.py").is_file():
        print(f"perfbench: no folner_lab source under {ROOT / 'src'}", file=sys.stderr)
        return 2
    if args.workload is None and not args.quick:
        ap.error("--workload is required unless --quick is given")

    if args.quick:
        names = [args.workload] if args.workload else list(WORKLOADS)
        ok, total, failed = True, 0, 0
        for name in names:
            try:
                res = run_workload(name, args.seed, 0, 1, True, time.monotonic())
            except (RuntimeError, subprocess.TimeoutExpired, ValueError) as exc:
                print(f"perfbench: {name}: {exc}", file=sys.stderr)
                return 1
            report(name, res)
            ok = ok and res["check_failures"] == 0 and res["failed"] == 0
            total += res["attempted"]
            failed += res["failed"]
        print(json.dumps({"correct": ok, "attempted": total, "failed": failed, "metrics": {}}))
        return 0 if ok else 1

    try:
        res = run_workload(args.workload, args.seed, args.seconds, args.trace, False, started)
    except (RuntimeError, subprocess.TimeoutExpired, ValueError) as exc:
        print(f"perfbench: {args.workload}: {exc}", file=sys.stderr)
        return 1
    report(args.workload, res)
    if args.trace:
        metrics = res["layers"]
        print(f"perfbench: spans written to {res['spans_file']}")
    else:
        metrics = {
            "setup_s": {"value": res["setup_s"], "unit": "s"},
            "run_s": {"value": res["run_s"], "unit": "s"},
            "peak_rss_mb": {"value": res["peak_rss_mb"], "unit": "MB"},
        }
    print(json.dumps({"correct": res["check_failures"] == 0, "attempted": res["attempted"],
                      "failed": res["failed"], "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
