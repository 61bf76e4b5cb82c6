"""One benchmark operation in a fresh interpreter.

Sets a workload up through the library's public API (import, load or
synthesise, save the YAML that socket agents read, load it back), then
either stops there (`--setup-only`) or calls `coordinator.run()` once
and writes the report with `reports.write_report`.  The last line of
standard output is a JSON object with the measurements.

The socket transport starts agents with the `spawn` method, which
re-imports this file in every agent process: all work stays under the
`__main__` guard.

Usage: python3 perfbench/worker.py --workload NAME --out DIR
       [--trace] [--setup-only]
"""

from __future__ import annotations

import argparse
import contextlib
import json
import resource
import sys
import time
from pathlib import Path

from workloads import SRC, WORKLOADS, make_scenario


def main(argv=None) -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--out", required=True)
    ap.add_argument("--trace", action="store_true")
    ap.add_argument("--setup-only", action="store_true")
    args = ap.parse_args(argv)
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    sys.path.insert(0, str(SRC))

    t0 = time.perf_counter()
    import hvactrade  # noqa: F401  (timed: part of set-up)
    from hvactrade import scenario as hs

    tracer = None
    span = lambda name: contextlib.nullcontext()  # noqa: E731
    if args.trace:
        from tracing import Tracer
        tracer = Tracer()
        tracer.install()
        span = tracer.span
    scenario = make_scenario(args.workload, span)
    path = out / "scenario.yaml"
    with span("scenario.save"):
        hs.save_scenario(scenario, path)
    with span("scenario.load"):
        scenario = hs.load_scenario(path)
    setup_s = time.perf_counter() - t0
    result = {"setup_s": setup_s}
    if args.setup_only:
        print(json.dumps(result))
        return 0

    from hvactrade.coordinator import run
    from hvactrade.reports import write_report

    t1 = time.perf_counter()
    report = run(scenario, transport=WORKLOADS[args.workload]["transport"])
    result["negotiate_s"] = time.perf_counter() - t1
    result["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    result["rounds"] = report.iterations
    with span("reports.write"):
        write_report(report, out / "report")
    if tracer is not None:
        from tracing import layer_metrics
        tracer.write(out / "spans.jsonl")
        result["layers"] = layer_metrics(tracer.spans, report.iterations,
                                         report.wire_frames)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
