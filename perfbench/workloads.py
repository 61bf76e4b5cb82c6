"""Workload table shared by run.py and worker.py.

Imports only the standard library at module level, so the worker can
time `import hvactrade` from a clean start.
"""

from __future__ import annotations

from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
FIXTURE = ROOT / "scenarios" / "reference_10user.yaml"
OUT = Path(__file__).resolve().parent / "out"

# The wide fleet is drawn once from this synthesis seed.  Fixed inputs
# keep `rounds` an exact repeat across runs; the benchmark's own --seed
# therefore selects nothing in these workloads (see README).
WIDE_FLEET = {"n_users": 16, "horizon": 12, "seed": 1}

WORKLOADS = {
    "ref10_inproc": {"source": "fixture", "transport": "inproc"},
    "wide_fleet_inproc": {"source": "synth", "transport": "inproc"},
    "ref10_socket": {"source": "fixture", "transport": "socket"},
}


def make_scenario(name: str, span):
    """Load or synthesise a workload's scenario.

    `span(label)` is a context manager that times each library call;
    the worker passes the tracer's, run.py a no-op.
    """
    from hvactrade import scenario as hs

    if WORKLOADS[name]["source"] == "fixture":
        with span("scenario.load"):
            return hs.load_scenario(FIXTURE)
    with span("scenario.synth"):
        return hs.build_synth_scenario(name="wide_fleet", **WIDE_FLEET)
