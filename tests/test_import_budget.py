"""numpy loads only where a run draws arrivals or fits clusters.

numpy is about 13.7 MiB of resident memory, a third of a closed-loop
session's peak, and only two parts of the program use it: the vectorized
open-loop arrival kernel (:mod:`repro.workload.vectorized`) and the §5
clusterers (:mod:`repro.ml.kmeans`, :mod:`repro.ml.em`).  So:

* ``import repro.cli`` and a whole closed-loop session on the fast loop
  (train, open, ``run_for``, close) load no numpy;
* an open-loop session has numpy loaded by the end of ``Cluster.open``,
  where it compiles its source, and not at the first ``run_for``: a lazy
  import inside the arrival generator would land in the measured phase of
  an open-loop benchmark;
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


def numpy_loads() -> dict[str, bool]:
    """Whether numpy is in ``sys.modules`` after each step of a run."""
    loaded = {}

    def mark(step: str) -> None:
        loaded[step] = "numpy" in sys.modules

    import repro.cli  # noqa: F401 - the import is the step under test

    from repro.session import Cluster, ClusterSpec, build_partitioned_provider, train
    from repro.workload import OpenLoopSource

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

    open_loop = ClusterSpec.from_dict({
        **closed.to_dict(), "workload": OpenLoopSource(400.0, "bursty", seed=1).to_dict(),
    })
    session = Cluster.open(open_loop, artifacts=artifacts)
    mark("open-loop open")
    try:
        session.run_for(txns=200)
    finally:
        session.close()

    # TPC-C's NewOrder is the procedure the heuristic partitioner clusters.
    tpcc = train(ClusterSpec(benchmark="tpcc", num_partitions=4, trace_transactions=300))
    provider = build_partitioned_provider(tpcc, feature_selection="heuristic")
    assert provider.bundle_for("neworder").num_clusters > 1
    from repro.ml import DecisionTreeClassifier, EMClustering, KMeans

    assert EMClustering().fit([[0.0], [0.1], [5.0], [5.1]]).n_clusters >= 1
    assert KMeans(2).fit([[0.0], [5.0]]).k == 2
    tree = DecisionTreeClassifier(min_samples_leaf=1).fit([[0.0], [1.0]], [0, 1])
    assert tree.predict([1.0]) == 1
    return loaded


def fresh_numpy_loads() -> dict[str, bool]:
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


def test_numpy_loads_only_at_open_loop_compile():
    assert fresh_numpy_loads() == {
        "import repro.cli": False,
        "train": False,
        "closed open": False,
        "closed run and close": False,
        "open-loop open": True,
    }
