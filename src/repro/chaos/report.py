"""Structured degradation reporting: what gave, and what it cost.

When a disruption makes the current instance unsolvable as-specified, the
engine and fleet never crash mid-run (that is the calm-run contract, kept
loud and fail-fast); instead the injector walks a graceful-degradation
ladder and records every rung it had to take in a :class:`DegradationReport`
— one per affected window, accumulated on
:attr:`repro.chaos.ChaosInjector.reports`.

Each rung is a :class:`DegradationAction` with a closed ``kind`` vocabulary:

* ``forced_evacuation`` — residents of a dead provider's tiers were moved
  off at the outage epoch (egress billed once, early-deletion waived);
* ``affinity_lifted`` — residency pins whose allowed providers lost every
  live tier were suspended (each is an SLO violation until recovery);
* ``latency_relaxed`` — the solve only became feasible after the facade's
  relaxation ladder widened the latency SLAs by ``amount``;
* ``pool_budget_suspended`` — the stacked fleet solve was infeasible under
  shared pool budgets and was retried without them;
* ``placement_frozen`` — even the relaxed/unpooled solve was infeasible, so
  the epoch was billed at the standing placement and nothing moved.

``bill_impact_cents`` totals the evacuation traffic (move + egress) charged
by disruptions at that epoch, so a chaos run's excess bill is attributable
event by event.
"""

from __future__ import annotations

from dataclasses import dataclass, field

__all__ = ["ACTION_KINDS", "DegradationAction", "DegradationReport"]

#: Closed vocabulary of degradation-ladder rungs.
ACTION_KINDS: frozenset[str] = frozenset(
    {
        "forced_evacuation",
        "affinity_lifted",
        "latency_relaxed",
        "pool_budget_suspended",
        "placement_frozen",
    }
)

#: Kinds that mean the epoch ran outside its calm-run contract (a lifted pin,
#: a widened SLA, a suspended budget or a frozen placement); an evacuation
#: alone is disruptive but the resulting placement honours every constraint.
_DEGRADED_KINDS: frozenset[str] = ACTION_KINDS - {"forced_evacuation"}


@dataclass(frozen=True)
class DegradationAction:
    """One rung of the graceful-degradation ladder, taken at one epoch."""

    kind: str
    detail: str
    partitions: tuple[str, ...] = ()
    amount: float = 0.0

    def __post_init__(self) -> None:
        if self.kind not in ACTION_KINDS:
            raise ValueError(
                f"unknown degradation kind {self.kind!r}; "
                f"expected one of {sorted(ACTION_KINDS)}"
            )
        object.__setattr__(self, "partitions", tuple(self.partitions))


@dataclass
class DegradationReport:
    """Everything chaos did to (and cost) one window.

    ``epoch`` is the window's index (on month-aligned windows, its month
    mark).  ``events`` are the human-readable descriptions of the disruption
    events applied at the window's boundary; ``actions`` the degradation
    rungs taken; ``slo_violations`` the partitions whose hard constraints
    (residency pins) were suspended; ``bill_impact_cents`` the evacuation
    traffic the window's disruptions charged.
    """

    epoch: int
    events: list[str] = field(default_factory=list)
    actions: list[DegradationAction] = field(default_factory=list)
    slo_violations: list[str] = field(default_factory=list)
    bill_impact_cents: float = 0.0

    @property
    def degraded(self) -> bool:
        """True when the epoch ran outside its calm-run contract."""
        return any(action.kind in _DEGRADED_KINDS for action in self.actions)

    @property
    def action_kinds(self) -> tuple[str, ...]:
        """The kinds taken this epoch, in order (duplicates preserved)."""
        return tuple(action.kind for action in self.actions)

    def summary(self) -> str:
        """One line: epoch, event count, action kinds, bill impact."""
        kinds = ",".join(self.action_kinds) or "none"
        return (
            f"epoch {self.epoch}: {len(self.events)} event(s), "
            f"actions=[{kinds}], {len(self.slo_violations)} SLO violation(s), "
            f"bill impact {self.bill_impact_cents:.2f}c"
        )

    def render(self) -> str:
        """Multi-line human-readable report."""
        lines = [self.summary()]
        for description in self.events:
            lines.append(f"  event: {description}")
        for action in self.actions:
            line = f"  action[{action.kind}]: {action.detail}"
            if action.amount:
                line += f" (amount={action.amount:g})"
            lines.append(line)
            if action.partitions:
                lines.append(f"    partitions: {', '.join(action.partitions)}")
        if self.slo_violations:
            lines.append(f"  SLO violations: {', '.join(self.slo_violations)}")
        return "\n".join(lines)
