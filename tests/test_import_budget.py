"""numpy loads only where a run draws Poisson arrivals or fits clusters.

numpy is about 13.7 MiB of resident memory, a third of a closed-loop
session's peak, and ``numpy.random`` another 6.1 MiB.  Two parts of the
program use numpy: the Poisson branch of the arrival kernel
(:mod:`repro.workload.vectorized`, for its ``log``) and the §5 clusterers
(:mod:`repro.ml.kmeans`, :mod:`repro.ml.em`).  So:

* ``import repro.cli`` and a whole closed-loop session on the fast loop
  (train, open, ``run_for``, close) load no numpy;
* a bursty open-loop session (the ``smallbank_open_gated`` shape) loads no
  numpy at any step;
* a Poisson open-loop session, and a :class:`TenantSource` with a Poisson
  tenant (the ``tatp_tenants_overload`` shape), have numpy loaded by the
  end of ``Cluster.open``, where the source compiles;
* no arrival source loads ``numpy.random``;
* no open-loop session loads any module in its first ``run_for``: an import
  there lands in the measured phase of an open-loop benchmark;
* the partitioned provider and the clusterers still import and work.

Import state is per process, so :func:`numpy_loads` runs in a fresh
interpreter (:func:`fresh_numpy_loads`).
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest


def _numpy_state() -> str:
    if "numpy.random" in sys.modules:
        return "numpy.random"
    return "numpy" if "numpy" in sys.modules else "none"


def numpy_loads() -> dict[str, dict]:
    """Which of numpy / ``numpy.random`` is loaded after each step of a run
    (``"steps"``), and the modules each open-loop session's first
    ``run_for`` loads (``"first run_for"``)."""
    loaded: dict[str, str] = {}
    first_run: dict[str, list[str]] = {}

    def mark(step: str) -> None:
        loaded[step] = _numpy_state()

    import repro.cli  # noqa: F401 - the import is the step under test

    from repro.session import Cluster, ClusterSpec, build_partitioned_provider, train
    from repro.workload import OpenLoopSource, TenantSource

    mark("import repro.cli")
    # The tatp_closed shape: the pass-through fast loop, learning off,
    # streaming metrics.
    closed = ClusterSpec(
        benchmark="tatp", num_partitions=4, strategy="houdini",
        model_provider="global", clients_per_partition=4, trace_transactions=300,
        seed=0, learning=False, metrics_mode="streaming",
    )
    artifacts = train(closed)
    mark("train")
    with Cluster.open(closed, artifacts=artifacts) as session:
        mark("closed open")
        session.run_for(txns=500)
    mark("closed run and close")

    def open_loop(name: str, workload) -> None:
        spec = ClusterSpec.from_dict({**closed.to_dict(), "workload": workload.to_dict()})
        session = Cluster.open(spec, artifacts=artifacts)
        mark(f"{name} open")
        try:
            before = set(sys.modules)
            session.run_for(txns=200)
            first_run[name] = sorted(set(sys.modules) - before)
        finally:
            session.close()
        mark(f"{name} run and close")

    # Bursty first: numpy, once loaded, stays loaded for the later steps.
    open_loop("bursty", OpenLoopSource(400.0, "bursty", seed=1))
    open_loop("poisson", OpenLoopSource(400.0, "poisson", seed=1))
    # The tatp_tenants_overload shape: the merge pulls the first Poisson
    # batch at its first next(), inside the first run_for.
    open_loop("tenants", TenantSource({
        "gold": OpenLoopSource(150.0, "poisson", seed=2),
        "free": OpenLoopSource(400.0, "bursty", seed=3, burst_size=512),
    }))

    # TPC-C's NewOrder is the procedure the heuristic partitioner clusters.
    tpcc = train(ClusterSpec(benchmark="tpcc", num_partitions=4, trace_transactions=300))
    provider = build_partitioned_provider(tpcc, feature_selection="heuristic")
    assert provider.bundle_for("neworder").num_clusters > 1
    from repro.ml import DecisionTreeClassifier, EMClustering, KMeans

    assert EMClustering().fit([[0.0], [0.1], [5.0], [5.1]]).n_clusters >= 1
    assert KMeans(2).fit([[0.0], [5.0]]).k == 2
    tree = DecisionTreeClassifier(min_samples_leaf=1).fit([[0.0], [1.0]], [0, 1])
    assert tree.predict([1.0]) == 1
    return {"steps": loaded, "first run_for": first_run}


@pytest.fixture(scope="module")
def fresh_numpy_loads() -> dict[str, dict]:
    """:func:`numpy_loads` in a fresh interpreter."""
    root = Path(__file__).resolve().parents[1]
    script = (
        "import json; from tests.test_import_budget import numpy_loads; "
        "print(json.dumps(numpy_loads()))"
    )
    path = os.pathsep.join([str(root / "src"), str(root)])
    completed = subprocess.run(
        [sys.executable, "-c", script], cwd=root, env={**os.environ, "PYTHONPATH": path},
        capture_output=True, text=True, check=True, timeout=600,
    )
    return json.loads(completed.stdout.splitlines()[-1])


def test_numpy_loads_only_at_open_loop_compile(fresh_numpy_loads):
    assert fresh_numpy_loads["steps"] == {
        "import repro.cli": "none",
        "train": "none",
        "closed open": "none",
        "closed run and close": "none",
        "bursty open": "none",
        "bursty run and close": "none",
        "poisson open": "numpy",
        "poisson run and close": "numpy",
        "tenants open": "numpy",
        "tenants run and close": "numpy",
    }


def test_first_run_for_loads_no_module(fresh_numpy_loads):
    assert fresh_numpy_loads["first run_for"] == {
        "bursty": [], "poisson": [], "tenants": [],
    }
