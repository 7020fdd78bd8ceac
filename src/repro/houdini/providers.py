"""Model providers: how Houdini finds the right Markov model for a request.

The paper evaluates two configurations: a single **global** model per stored
procedure, and a set of **partitioned** models per procedure selected by a
decision tree over features of the input parameters (Section 5).  Both are
hidden behind the :class:`ModelProvider` interface so the estimator does not
care which is in use.
"""

from __future__ import annotations

from abc import ABC, abstractmethod
from typing import Iterable, Mapping

from ..markov.model import MarkovModel
from ..types import ProcedureRequest


class ModelProvider(ABC):
    """Resolves the Markov model to use for an incoming request."""

    @abstractmethod
    def model_for(self, request: ProcedureRequest) -> MarkovModel | None:
        """Return the model for ``request`` (None when no model exists)."""

    @abstractmethod
    def models(self) -> Iterable[MarkovModel]:
        """Every model managed by this provider (for maintenance sweeps)."""

    def procedures(self) -> tuple[str, ...]:
        """Names of the procedures this provider has models for."""
        return tuple(sorted({model.procedure for model in self.models()}))

    def total_vertices(self) -> int:
        """Aggregate model size; used by the scalability ablation."""
        return sum(model.vertex_count() for model in self.models())


class GlobalModelProvider(ModelProvider):
    """One model per procedure — the paper's "global" configuration."""

    name = "global"

    def __init__(self, models: Mapping[str, MarkovModel]) -> None:
        self._models = dict(models)

    def model_for(self, request: ProcedureRequest) -> MarkovModel | None:
        return self._models.get(request.procedure)

    def models(self) -> Iterable[MarkovModel]:
        return self._models.values()

    def model_for_procedure(self, procedure: str) -> MarkovModel | None:
        return self._models.get(procedure)

    def install_model(self, procedure: str, model: MarkovModel) -> MarkovModel | None:
        """Replace the model served for ``procedure``; return the old one.

        This is the hot-swap entry point: the assignment is a single dict
        store, so every ``model_for`` call either sees the old model or the
        new one, never a mix.  Callers own the invalidation side — dropping
        the retired model's plan-memo entries and maintenance state (see
        :meth:`~repro.houdini.houdini.Houdini.swap_model`).
        """
        if model.procedure != procedure:
            raise ValueError(
                f"model is for procedure {model.procedure!r}, not {procedure!r}"
            )
        previous = self._models.get(procedure)
        self._models[procedure] = model
        return previous

    def __len__(self) -> int:
        return len(self._models)
