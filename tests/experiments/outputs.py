"""Experiment outputs pinned at a tiny scale: the byte-identity oracle.

``golden_outputs.json`` holds every experiment's ``format()`` text at
:data:`TINY`, recorded before the experiments moved from the removed
one-shot helpers onto ``session.train`` / ``Cluster.open``.  Two fields are
measured on the host, not simulated, and are blanked before comparing:
Table 4's estimation-time column and the knee's peak RSS.  Everything else
is a function of the code and the seed.

Re-record (only in a change that means to alter an experiment's output)::

    PYTHONPATH=src:. python tests/experiments/outputs.py
"""

from __future__ import annotations

import json
import re
from pathlib import Path

from repro.experiments import (
    ExperimentScale,
    run_figure03,
    run_figure11,
    run_figure12,
    run_figure13,
    run_model_figures,
    run_overload_knee,
    run_scheduling_policies,
    run_table03,
    run_table04,
)

GOLDEN = Path(__file__).with_name("golden_outputs.json")

TINY = ExperimentScale(
    name="tiny",
    trace_transactions=300,
    simulated_transactions=150,
    partition_counts=(4,),
    accuracy_partitions=4,
    accuracy_test_transactions=100,
    thresholds=(0.5,),
    seed=3,
)

#: experiment -> how the tier-1 tests run it.
RUNS = {
    "figure03": lambda: run_figure03(TINY),
    "figure11": lambda: run_figure11(TINY),
    "figure12": lambda: run_figure12(TINY),
    "figure13": lambda: run_figure13(TINY),
    "table03": lambda: run_table03(TINY.override(accuracy_test_transactions=80)),
    "table04": lambda: run_table04(TINY.override(simulated_transactions=120)),
    "model_figures": lambda: run_model_figures(TINY),
    "scheduling_policies": lambda: run_scheduling_policies(TINY),
    "overload_knee": lambda: run_overload_knee(
        TINY, "tatp", users=50_000, probe_seconds=0.5
    ),
}


def normalized(name: str, result) -> str:
    """``result.format()`` with the host-measured fields blanked."""
    text = result.format()
    if name == "table04":
        title, header, *rest = text.split("\n")
        cut = header.index("Estimate (ms)")
        text = "\n".join([title] + [line[:cut].rstrip() for line in [header, *rest]])
    elif name == "overload_knee":
        text = re.sub(r"peak RSS [0-9.]+ MiB", "peak RSS - MiB", text)
    return text


def expected(name: str) -> str:
    return json.loads(GOLDEN.read_text(encoding="utf-8"))[name]


if __name__ == "__main__":
    recorded = {name: normalized(name, run()) for name, run in RUNS.items()}
    GOLDEN.write_text(json.dumps(recorded, indent=1, sort_keys=True) + "\n",
                      encoding="utf-8")
    print(f"recorded {GOLDEN}")
