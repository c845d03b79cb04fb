"""Per-action state machine (paper Figure 3).

Each user action starts *Uncategorized* (it has never caused a soft
hang).  S-Checker moves symptomatic actions to *Suspicious* and
UI-looking ones to *Normal*; Diagnoser moves Suspicious actions to
*Hang Bug* (confirmed) or *Normal* (false positive).  Normal actions
are periodically reset to Uncategorized so that occasional bugs get
re-examined; Hang Bug actions are always deeply analyzed.
"""

import enum
from dataclasses import dataclass
from typing import List

from repro.telemetry import current as telemetry


class ActionState(enum.Enum):
    """Lifecycle state of one user action."""

    UNCATEGORIZED = "uncategorized"
    NORMAL = "normal"
    SUSPICIOUS = "suspicious"
    HANG_BUG = "hang_bug"

    @property
    def short(self):
        """One-letter label used in the paper's Figure 7 (U/N/S/H)."""
        return {"uncategorized": "U", "normal": "N",
                "suspicious": "S", "hang_bug": "H"}[self.value]


#: Legal transitions (Figure 3's arrows).
_ALLOWED = {
    (ActionState.UNCATEGORIZED, ActionState.NORMAL),      # Path A
    (ActionState.UNCATEGORIZED, ActionState.SUSPICIOUS),  # Paths B/C start
    (ActionState.SUSPICIOUS, ActionState.NORMAL),         # Path B
    (ActionState.SUSPICIOUS, ActionState.HANG_BUG),       # Path C
    (ActionState.NORMAL, ActionState.UNCATEGORIZED),      # periodic reset
    (ActionState.HANG_BUG, ActionState.HANG_BUG),         # stays
}


@dataclass(frozen=True)
class Transition:
    """One recorded state change (for tests and the Figure 7 trace)."""

    uid: int
    source: ActionState
    target: ActionState
    component: str
    time_ms: float


@dataclass
class _ActionRecord:
    state: ActionState = ActionState.UNCATEGORIZED
    executions_since_normal: int = 0


class ActionStateMachine:
    """Tracks and transitions the state of every action UID."""

    def __init__(self, reset_period=20):
        if reset_period < 1:
            raise ValueError("reset_period must be >= 1")
        self.reset_period = reset_period
        self._records = {}
        self.transitions: List[Transition] = []

    def register(self, uid):
        """Register a UID (idempotent); actions start Uncategorized."""
        self._records.setdefault(uid, _ActionRecord())

    def state(self, uid):
        """Current state of *uid*."""
        return self._records[uid].state

    def transition(self, uid, target, component, time_ms=0.0):
        """Move *uid* to *target*; raises on an illegal transition."""
        record = self._records[uid]
        source = record.state
        if source == target and source is not ActionState.HANG_BUG:
            return source
        if (source, target) not in _ALLOWED:
            raise ValueError(
                f"illegal transition {source.value} -> {target.value} "
                f"for action uid {uid}"
            )
        record.state = target
        if target is ActionState.NORMAL:
            record.executions_since_normal = 0
        self.transitions.append(
            Transition(uid=uid, source=source, target=target,
                       component=component, time_ms=time_ms)
        )
        tel = telemetry()
        if tel.enabled:
            tel.count("core.state.transitions")
            tel.event(
                "core.state.transition", time_ms, uid=uid,
                source=source.value, target=target.value,
                component=component,
            )
        return target

    def note_normal_execution(self, uid, time_ms=0.0):
        """Count an execution of a Normal action; reset to
        Uncategorized every ``reset_period`` executions (paper §3.2:
        "e.g., every 20 executions of the action")."""
        record = self._records[uid]
        if record.state is not ActionState.NORMAL:
            raise ValueError(f"action uid {uid} is not Normal")
        record.executions_since_normal += 1
        if record.executions_since_normal >= self.reset_period:
            self.transition(uid, ActionState.UNCATEGORIZED,
                            component="S-Checker", time_ms=time_ms)

    def counts(self):
        """Number of actions currently in each state."""
        totals = {state: 0 for state in ActionState}
        for record in self._records.values():
            totals[record.state] += 1
        return totals
