"""The stage protocol and the shared context stages operate on.

A stage is a named unit of the funnel: it reads earlier products off the
:class:`StageContext`, computes its own, writes them back, and reports
its input/output cardinalities so the executor can account for the
funnel's narrowing.  Stages hold no state of their own — everything
flows through the context — which is what lets one stage list run under
any backend.
"""

from __future__ import annotations

from abc import ABC, abstractmethod
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Any, Iterable

from repro.exec.metrics import StageStats
from repro.faults.quality import DataQuality

if TYPE_CHECKING:
    from repro.exec.backends import ExecutionBackend


@dataclass
class StageContext:
    """Inputs plus every intermediate product of one pipeline run.

    Concrete pipelines subclass this with typed fields for their
    products; the base carries only what every run needs: the immutable
    input bundle, the configuration, and the run's data-quality ledger
    (empty — ``degraded == False`` — unless faults degraded the inputs
    or the backend absorbed worker failures).
    """

    inputs: Any
    config: Any
    quality: DataQuality = field(default_factory=DataQuality)


class Stage(ABC):
    """One named step of a staged pipeline."""

    #: Stable identifier used in logs, metrics, and the run manifest.
    name: str = ""

    #: Whether the stage fans out through ``backend.map`` (documentation
    #: for the manifest; serial stages still receive the backend).
    parallel: bool = False

    #: Context fields this stage produces.  A stage-cache hit restores
    #: exactly these onto the context and skips ``run``; an empty tuple
    #: marks the stage uncacheable (it always runs).
    products: tuple[str, ...] = ()

    #: Salts the stage's cache fingerprint.  Bump whenever the stage's
    #: computation changes meaning, so entries written by older code
    #: miss instead of resurrecting stale results.
    cache_version: int = 1

    #: Top-level config fields this stage's computation reads.  The
    #: stage's cache fingerprint folds in only these (plus those of
    #: every upstream stage), so sweeps over unrelated knobs still hit.
    #: ``None`` — the conservative default — depends on the whole
    #: config.
    config_deps: tuple[str, ...] | None = None

    #: Input channels (:data:`repro.cache.fingerprint.INPUT_CHANNELS`)
    #: this stage's computation reads.  Like ``config_deps``, the
    #: fingerprint folds in only the digests of these (plus those of
    #: every upstream stage), so a delta confined to other channels —
    #: a week of passive DNS, say — still hits.  ``None`` — the
    #: conservative default — reads every channel.
    input_deps: tuple[str, ...] | None = None

    @abstractmethod
    def run(self, ctx: StageContext, backend: ExecutionBackend) -> StageStats:
        """Execute the stage, mutating ``ctx``, and report cardinalities."""

    def cache_products(self, ctx: StageContext) -> dict[str, Any]:
        """The product mapping the cache stores on a miss.

        Override to shrink the pickled entry by stripping anything
        rederivable from the inputs (the same trick the worker kernels
        use on the wire); pair every override with
        :meth:`restore_products`, which must undo the stripping exactly.
        """
        return {name: getattr(ctx, name) for name in self.products}

    def restore_products(self, ctx: StageContext, products: dict[str, Any]) -> None:
        """Install a stored product mapping onto the context.

        Called on a cache hit, and again right after a store (the stored
        mapping shares objects with the context, so any stripping
        ``cache_products`` did must be reversed either way).
        """
        for name in self.products:
            setattr(ctx, name, products[name])

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"<{type(self).__name__} {self.name!r}>"


#: One link of a fingerprint chain: a stage's ``(name, cache_version,
#: config_deps, input_deps)``.
ChainLink = tuple[str, int, tuple[str, ...] | None, tuple[str, ...] | None]


def fingerprint_chain(stages: Iterable[Stage]) -> list[ChainLink]:
    """The fingerprint chain of a stage list, one link per stage.

    The ``i``-th stage's cache address is
    ``stage_fingerprint(run_key, chain[: i + 1])``
    (:func:`repro.cache.fingerprint.stage_fingerprint`); uncacheable
    stages have links too, since their code shapes downstream products
    just the same.  Every chain is built here, so the key material
    cannot drift from the stages' declarations.
    """
    return [
        (stage.name, stage.cache_version, stage.config_deps, stage.input_deps)
        for stage in stages
    ]
