"""A session holds no training trace.

The trace exists only to build the models and the parameter mappings
(paper §3, Fig. 6); at run time Houdini reads those and never the trace.
``ClusterSession.artifacts`` is therefore the adopted artifacts with
``trace=None``, sharing everything else.  A caller that keeps its artifacts
keeps its trace; when it drops them, nothing the session holds reaches the
trace, and the collector frees it.
"""

from __future__ import annotations

import gc
import weakref
from dataclasses import replace

import pytest

import repro.session as session_module
from repro.artifacts import ArtifactBundle, ArtifactError
from repro.errors import SessionError
from repro.session import Cluster, ClusterSpec, build_partitioned_provider
from tests.conftest import trained

SPEC = ClusterSpec(
    benchmark="tpcc", num_partitions=4, trace_transactions=200, seed=0
)


def _artifacts():
    return trained("tpcc", 4, 200, 0)


def _drive(session) -> None:
    result = session.run_for(txns=40)
    assert result.committed > 0


def test_adopted_trace_is_freed_once_the_caller_drops_it():
    artifacts = _artifacts()
    trace = weakref.ref(artifacts.trace)
    session = Cluster.open(SPEC, artifacts=artifacts)
    del artifacts
    gc.collect()
    assert trace() is None
    _drive(session)
    session.close()


def test_trained_trace_is_freed_at_open(monkeypatch):
    traces = []
    record_trace = session_module.record_trace

    def recording(instance, transactions):
        trace = record_trace(instance, transactions)
        traces.append(weakref.ref(trace))
        return trace

    monkeypatch.setattr(session_module, "record_trace", recording)
    session = Cluster.open(SPEC)
    gc.collect()
    assert len(traces) == 1 and traces[0]() is None
    _drive(session)
    session.close()


def test_the_session_view_shares_everything_but_the_trace():
    artifacts = _artifacts()
    trace = artifacts.trace
    session = Cluster.open(SPEC, artifacts=artifacts)
    view = session.artifacts
    assert view is not artifacts and view.trace is None
    assert artifacts.trace is trace
    assert view.models is artifacts.models
    assert view.mappings is artifacts.mappings
    assert view.benchmark is artifacts.benchmark
    assert view.extras is artifacts.extras
    session.close()


def test_a_caller_that_keeps_its_artifacts_keeps_its_trace():
    artifacts = _artifacts()
    trace = artifacts.trace
    spec = replace(SPEC, model_provider="partitioned")
    first = Cluster.open(spec, artifacts=artifacts)
    _drive(first)
    first.close()
    assert artifacts.trace is trace
    provider = artifacts.extras["partitioned_provider"]
    second = Cluster.open(spec, artifacts=artifacts)
    assert second.houdini.provider is provider
    _drive(second)
    second.close()
    assert artifacts.trace is trace


def test_bundling_a_session_view_names_the_missing_trace():
    session = Cluster.open(SPEC, artifacts=_artifacts())
    with pytest.raises(ArtifactError, match="trace"):
        ArtifactBundle.from_trained(session.artifacts)
    session.close()


def test_partitioning_a_session_view_names_the_missing_trace():
    session = Cluster.open(SPEC, artifacts=_artifacts())
    with pytest.raises(SessionError, match="trace"):
        build_partitioned_provider(session.artifacts)
    session.close()
