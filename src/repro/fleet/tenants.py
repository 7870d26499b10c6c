"""Tenant specifications: everything the fleet scheduler needs per account.

A :class:`TenantSpec` bundles one tenant's placement units, re-optimization
policy, event source and optional compression profiles / SLO constraints —
the exact constructor surface of
:class:`~repro.engine.OnlineTieringEngine`, minus the tier catalog, which the
fleet owns (every tenant prices against the *same* shared catalog; that is
what makes stacked solves and shared capacity pools meaningful).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterable, Mapping, Sequence

from ..cloud import DataPartition
from ..core.optassign import ProfileTable, TENANT_SEPARATOR
from ..engine import EngineConfig, EpochBatch, SeriesStream, TieringPolicy

__all__ = ["TenantSpec", "FleetConfig"]


@dataclass
class TenantSpec:
    """One tenant account of the fleet.

    Parameters
    ----------
    name:
        Unique tenant identifier; may not contain ``"::"`` (the stacked
        problem's tenant tag separator).
    partitions:
        The tenant's placement units (see
        :class:`~repro.engine.OnlineTieringEngine`).
    policy:
        The tenant's re-optimization policy.  Policies are stateful, so every
        spec needs its own instance (never share one across tenants).
    series:
        Per-partition monthly read series (the
        :func:`repro.workloads.generate_drifting_reads` output shape), turned
        into a :class:`~repro.engine.SeriesStream` by the scheduler.  Exactly
        one of ``series`` / ``stream`` must be given.
    stream:
        An explicit epoch-batch iterable instead of ``series``.
    profiles, latency_slo_s, provider_affinity:
        Forwarded to the tenant's engine.
    config:
        The tenant's engine config, :attr:`FleetConfig.engine` when
        ``None``.  A fleet runs one engine config, so it must equal every
        other tenant's: the fleet rejects a spec whose config differs in any
        field (:class:`~repro.fleet.FleetScheduler`).
    """

    name: str
    partitions: Sequence[DataPartition]
    policy: TieringPolicy
    series: Mapping[str, Sequence[float]] | None = None
    stream: Iterable[EpochBatch] | None = None
    profiles: ProfileTable | None = None
    config: EngineConfig | None = None
    latency_slo_s: Mapping[str, float] | None = None
    provider_affinity: Mapping[str, object] | None = None

    def __post_init__(self) -> None:
        if not self.name:
            raise ValueError("tenant name must be non-empty")
        if TENANT_SEPARATOR in self.name:
            raise ValueError(
                f"tenant name may not contain {TENANT_SEPARATOR!r}: {self.name!r}"
            )
        if (self.series is None) == (self.stream is None):
            raise ValueError(
                f"tenant {self.name!r} must provide exactly one of "
                "series= or stream="
            )

    def make_stream(self, num_epochs: int | None = None) -> Iterable[EpochBatch]:
        """The tenant's epoch-batch source."""
        if self.stream is not None:
            return self.stream
        return SeriesStream(self.series, num_epochs=num_epochs)


@dataclass(frozen=True)
class FleetConfig:
    """Knobs of the fleet control loop.

    ``engine`` is the :class:`~repro.engine.EngineConfig` of tenants whose
    spec carries none; the fleet runs the first tenant's config, which every
    other tenant's must equal.  ``max_workers`` has no effect: it sized a
    thread pool for the per-tenant problem builds, which the one plan pass
    per window (:class:`~repro.engine.WindowPlan`) replaced.  It is still
    validated (at least 1) and kept for callers that pass it, until a
    change to the benchmark that passes it can drop it.  Nothing in the
    loop is threaded: each window plans and settles every tenant in one
    vectorized pass each.
    """

    engine: EngineConfig = field(default_factory=EngineConfig)
    max_workers: int | None = None

    def __post_init__(self) -> None:
        if self.max_workers is not None and self.max_workers < 1:
            raise ValueError("max_workers must be at least 1")
