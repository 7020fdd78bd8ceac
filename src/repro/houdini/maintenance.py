"""Model maintenance (paper §4.5).

As transactions execute, Houdini counts how often they take each outgoing
edge of every vertex they visit.  When the observed transition distribution
of a vertex drifts too far from the probabilities stored in the model —
accuracy below a threshold (75% in the paper) — the model's edge and vertex
probabilities are recomputed from the accumulated counters.  This happens
on-line and is cheap (the paper quotes ≤ 5 ms); full model regeneration is
only needed when the partitioning scheme or the procedure code changes.

The observed path is written once: the run-time monitor appends each
attempt's transitions to the model's transition log
(:meth:`~repro.markov.model.MarkovModel.log_transitions`), and
:meth:`ModelMaintenance.fold` takes the whole log at each check — one
aggregated pass counts it into the model's edge hits and into the observed
counters here.  Everything that reads the counters folds first, so a fold
at any moment gives the same counters (and dict order) as counting each
transition as it happened.
"""

from __future__ import annotations

from dataclasses import dataclass

from ..markov.model import MarkovModel
from ..markov.vertex import VertexKey
from .config import HoudiniConfig

def overlap(
    model: MarkovModel, source: VertexKey, observed: dict[VertexKey, int], total: int
) -> float:
    """How well ``model``'s distribution at ``source`` matches the observed
    target counts (``total`` of them): ``sum(min(p_observed, p_model))`` in
    the counts' order, 1.0 when the two agree exactly and 0.0 when they are
    disjoint."""
    edge_probability = model.edge_probability
    result = 0.0
    for target, count in observed.items():
        result += min(count / total, edge_probability(source, target))
    return result


def worst_overlap(
    model: MarkovModel, observed: dict[VertexKey, dict[VertexKey, int]], min_observations: int
) -> float:
    """The lowest :func:`overlap` over the sources observed at least
    ``min_observations`` times (1.0 when none is): maintenance's accuracy,
    and one minus self-tuning's drift score."""
    worst = 1.0
    for source, targets in observed.items():
        total = sum(targets.values())
        if total and total >= min_observations:
            worst = min(worst, overlap(model, source, targets, total))
    return worst


@dataclass
class MaintenanceStats:
    """Counters describing maintenance activity for one model.

    ``transitions_observed`` counts the folded transitions;
    :meth:`MaintenanceRegistry.stats_by_procedure` adds what the model's log
    still holds, so the rollup is exact after every attempt.
    """

    transitions_observed: int = 0
    accuracy_checks: int = 0
    recomputations: int = 0
    last_accuracy: float = 1.0


class ModelMaintenance:
    """Tracks observed transitions and recomputes drifting models.

    Tracking starts with an empty log: what the model logged before (a
    previous session learning on the same model object) is counted into its
    edges but is not this maintenance's observation.
    """

    def __init__(self, model: MarkovModel, config: HoudiniConfig | None = None) -> None:
        self.model = model
        self.config = config or HoudiniConfig()
        self.stats = MaintenanceStats()
        model.drain_log()
        #: Observed transition counts since the last recompute, per source
        #: in first-seen order (the check's overlap sums follow it).
        self._observed: dict[VertexKey, dict[VertexKey, int]] = {}

    # ------------------------------------------------------------------
    def fold(self) -> None:
        """Take the model's transition log and count it in: one aggregated
        pass in first-seen order folds it into the edge hits (the model does
        that) and into the observed counters.
        """
        log, counts = self.model.drain_log()
        if not log:
            return
        self.stats.transitions_observed += len(log)
        observed = self._observed
        for (source, target), count in counts.items():
            targets = observed.setdefault(source, {})
            targets[target] = targets.get(target, 0) + count

    # ------------------------------------------------------------------
    def vertex_accuracy(self, source: VertexKey) -> float:
        """The :func:`overlap` of the model's distribution at ``source`` with
        the observed one (1.0 when nothing was observed there)."""
        self.fold()
        observed = self._observed.get(source)
        total = sum(observed.values()) if observed else 0
        return overlap(self.model, source, observed, total) if total else 1.0

    def check(self) -> bool:
        """Evaluate drift; recompute probabilities if accuracy is too low.

        Returns True when a recomputation happened.
        """
        self.fold()
        self.stats.accuracy_checks += 1
        worst = worst_overlap(
            self.model, self._observed, self.config.maintenance_min_observations
        )
        self.stats.last_accuracy = worst
        if worst < self.config.maintenance_accuracy_threshold:
            self.recompute()
            return True
        return False

    def recompute(self) -> None:
        """Recompute the model's probabilities from its visit counters."""
        self.fold()
        self.model.process()
        self.stats.recomputations += 1
        self._observed.clear()


class MaintenanceRegistry:
    """Maintenance state for every model a provider manages."""

    def __init__(self, config: HoudiniConfig | None = None) -> None:
        self.config = config or HoudiniConfig()
        self._by_model: dict[int, ModelMaintenance] = {}

    def tracking(self, model: MarkovModel) -> ModelMaintenance | None:
        """The maintenance of ``model`` if it is tracked, else ``None``
        (never tracked, or released by :meth:`forget`)."""
        return self._by_model.get(id(model))

    def for_model(self, model: MarkovModel) -> ModelMaintenance:
        key = id(model)
        maintenance = self._by_model.get(key)
        if maintenance is None:
            maintenance = ModelMaintenance(model, self.config)
            self._by_model[key] = maintenance
        return maintenance

    def check_all(self) -> list[MarkovModel]:
        """Run drift checks on every tracked model; returns the models that
        were recomputed (the plan memo evicts what their recomputes staled)."""
        return [
            maintenance.model
            for maintenance in self._by_model.values()
            if maintenance.check()
        ]

    def forget(self, model: MarkovModel) -> None:
        """Stop tracking ``model`` (hot swap retired it).

        Must be called while the caller still holds a reference to the old
        model — afterwards its ``id`` may be recycled and would alias the
        registry entry onto an unrelated model.
        """
        self._by_model.pop(id(model), None)

    def maintenances(self):
        return list(self._by_model.values())

    def stats_by_procedure(self) -> dict[str, dict[str, int | float]]:
        """Roll maintenance counters up per procedure for metrics surfaces.

        Counters are summed over a procedure's models (a partitioned provider
        tracks several per procedure); ``last_accuracy`` reports the worst.
        """
        rollup: dict[str, dict[str, int | float]] = {}
        for maintenance in self._by_model.values():
            procedure = maintenance.model.procedure
            entry = rollup.get(procedure)
            if entry is None:
                entry = rollup[procedure] = {
                    "transitions_observed": 0,
                    "accuracy_checks": 0,
                    "recomputations": 0,
                    "last_accuracy": 1.0,
                }
            stats = maintenance.stats
            entry["transitions_observed"] += (
                stats.transitions_observed + maintenance.model.logged_transitions()
            )
            entry["accuracy_checks"] += stats.accuracy_checks
            entry["recomputations"] += stats.recomputations
            entry["last_accuracy"] = min(entry["last_accuracy"], stats.last_accuracy)
        return {procedure: rollup[procedure] for procedure in sorted(rollup)}
