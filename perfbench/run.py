"""Time-to-agreement benchmark for hvactrade.

Usage (from the repository root):

    python3 perfbench/run.py --workload wide_fleet_inproc --seed 1 --seconds 50 --trace 0

Each operation runs `perfbench/worker.py` in a fresh interpreter: set-up
through the public API, one `coordinator.run()`, `reports.write_report`.
This script then checks the written report against scipy optima computed
here (see reference.py and checks.py), outside every timed region.
Operations repeat until `--seconds` would be exceeded by one more; the
first always runs.  `negotiate_s` is the shortest operation of the run:
the machine's noise is time stolen by other tenants, which only ever
adds (README, "Recorded environment").  `setup_s` is the median over
the set-up-only workers and every operation's own set-up.  With
`--trace 1` each round is an untraced operation, a traced one, and an
untraced one in the caller's own thread settings; the per-layer figures
are reported with the tracing overhead.

Workers run with one BLAS/OpenMP thread per process (PINNED).  Under the
library's default thread settings the in-process workloads vary up to
twofold between identical operations on a 2-core machine, too much for
any bound; the traced run still reports that default-settings time as
`threads.default_negotiate_s` (README, "Thread settings").

The last line of standard output is one JSON object:
{"correct", "attempted", "failed", "metrics": {name: {"value", "unit"}}}.
Progress and findings go to standard error.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import os
import signal
import statistics
import subprocess
import sys
import time

from workloads import FIXTURE, OUT, ROOT, SRC, WORKLOADS, make_scenario

SETUP_SAMPLES = 3       # set-up-only workers per run, before the operations
DEADLINE_S = 170.0      # every run ends well inside 180 s
PINNED = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1",
          "MKL_NUM_THREADS": "1"}
UNITS = (("_ms", "ms"), ("_us", "us"), ("_mb", "MB"), ("_kb_per_round", "KB"),
         ("_s", "s"))


def unit_of(name: str) -> str:
    return next((u for suffix, u in UNITS if name.endswith(suffix)), "count")


def cpu_ticks():
    """(steal, total) jiffies of the machine from /proc/stat, or None."""
    try:
        with open("/proc/stat") as fh:
            fields = [int(x) for x in fh.readline().split()[1:9]]
    except (OSError, ValueError):
        return None
    return (fields[7], sum(fields)) if len(fields) == 8 else None


def steal_share(before, after) -> str:
    """CPU time the hypervisor gave to other tenants between two samples."""
    if before is None or after is None or after[1] <= before[1]:
        return "n/a"
    return f"{100.0 * (after[0] - before[0]) / (after[1] - before[1]):.0f}%"


def environment() -> dict:
    import numpy
    import scipy

    head = ROOT / ".git" / "HEAD"
    rev = "unknown"
    if head.is_file():
        ref = head.read_text().strip()
        ref_file = ROOT / ".git" / ref[5:] if ref.startswith("ref: ") else None
        rev = ref_file.read_text().strip() if ref_file and ref_file.is_file() else ref
    return {"nproc": os.cpu_count(), "numpy": numpy.__version__,
            "scipy": scipy.__version__, "python": sys.version.split()[0],
            "git": rev,
            "threads_env": {k: v for k, v in sorted(os.environ.items())
                            if k.endswith("_NUM_THREADS")
                            or k.startswith(("OPENBLAS", "OMP_", "MKL_", "BLIS_"))}}


def call_worker(workload: str, out, deadline: float, *flags, pinned=True):
    """Run one worker; returns (result dict, None) or (None, reason)."""
    cmd = [sys.executable, os.path.join(os.path.dirname(__file__), "worker.py"),
           "--workload", workload, "--out", str(out), *flags]
    env = dict(os.environ, **PINNED) if pinned else None
    proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, stderr=subprocess.PIPE,
                            text=True, cwd=ROOT, env=env, start_new_session=True)
    try:
        stdout, stderr = proc.communicate(timeout=max(deadline - time.monotonic(), 1.0))
    except subprocess.TimeoutExpired:
        stdout, stderr = "", "timed out"
    finally:
        # the worker's agent processes share its session; end any left over
        with contextlib.suppress(ProcessLookupError):
            os.killpg(proc.pid, signal.SIGKILL)
        proc.wait()
    if proc.returncode != 0 or not stdout.strip():
        return None, stderr.strip()[-2000:] or f"exit code {proc.returncode}"
    return json.loads(stdout.strip().splitlines()[-1]), None


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=50.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    start = time.monotonic()
    deadline = start + DEADLINE_S
    if not (SRC / "hvactrade" / "__init__.py").is_file() or not FIXTURE.is_file():
        print(f"hvactrade sources or {FIXTURE.name} not found under {ROOT}",
              file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    from checks import check_report
    from reference import reference_costs

    print("# env " + json.dumps(environment()))
    scenario = make_scenario(args.workload, lambda name: contextlib.nullcontext())
    out = OUT / args.workload
    setup = []
    for _ in range(SETUP_SAMPLES):
        res, err = call_worker(args.workload, out, deadline, "--setup-only")
        if res is None:
            print(f"set-up failed: {err}", file=sys.stderr)
            return 1
        setup.append(res["setup_s"])
    t = time.monotonic()
    pooled, baselines = reference_costs(scenario)
    print(f"reference: pooled optimum {pooled!r} in {time.monotonic() - t:.1f} s",
          file=sys.stderr)

    attempted = failed = 0
    correct = True
    samples: dict[str, list] = {}
    traced: list[dict] = []
    unpinned: list[float] = []

    def operation(trace=False, pinned=True):
        nonlocal attempted, failed, correct
        attempted += 1
        ticks = cpu_ticks()
        res, err = call_worker(args.workload, out, deadline,
                               *(["--trace"] if trace else []), pinned=pinned)
        stolen = steal_share(ticks, cpu_ticks())
        if res is None:
            failed += 1
            print(f"operation {attempted} failed: {err}", file=sys.stderr)
            return
        with open(out / "report" / "report.json") as fh:
            findings = check_report(json.load(fh), scenario, pooled, baselines)
        for f in findings:
            print(f"operation {attempted}: {f}", file=sys.stderr)
        correct = correct and not findings
        if trace:
            traced.append(res)
        elif not pinned:
            unpinned.append(res["negotiate_s"])
        else:
            for k, v in res.items():
                samples.setdefault(k, []).append(v)
        kind = "traced" if trace else "pinned" if pinned else "default threads"
        print(f"operation {attempted} ({kind}): {res['negotiate_s']:.3f} s, "
              f"{res['rounds']} rounds, steal {stolen}", file=sys.stderr)

    measure_start = time.monotonic()
    durations = []
    while True:
        t = time.monotonic()
        operation()
        if args.trace:
            operation(trace=True)
            operation(pinned=False)
        durations.append(time.monotonic() - t)
        next_end = time.monotonic() + statistics.mean(durations)
        if next_end > min(measure_start + args.seconds, deadline - 10.0):
            break

    if not samples:
        print("every untraced operation failed", file=sys.stderr)
        return 1
    samples["setup_s"] = setup + samples["setup_s"]

    if args.trace:
        names = traced[0]["layers"] if traced else {}
        metrics = {k: statistics.median(r["layers"][k] for r in traced) for k in names}
        if traced:
            metrics["trace.overhead_s"] = (min(r["negotiate_s"] for r in traced)
                                           - min(samples["negotiate_s"]))
        if unpinned:
            metrics["threads.default_negotiate_s"] = min(unpinned)
    else:
        metrics = {k: statistics.median(samples[k])
                   for k in ("setup_s", "rounds", "peak_rss_mb")}
        metrics["negotiate_s"] = min(samples["negotiate_s"])
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed,
                      "metrics": {k: {"value": v, "unit": unit_of(k)}
                                  for k, v in metrics.items()}}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
