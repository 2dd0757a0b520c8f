"""Source-switching supervisor stitching multiple odometry streams.

Keeps a status table of registered odometry sources, selects the highest
priority source that is healthy, fresh and warning-free (with hysteresis),
and stitches outputs at switches so the unified trajectory stays continuous
and gravity-aligned (yaw+translation stitching only).
"""

from __future__ import annotations

import csv
from dataclasses import dataclass

import numpy as np

from .geometry import Pose, compose, rot_z


@dataclass
class SourceStatus:
    source: str
    last_output_time: float
    rate: float
    observability_warning: bool = False
    input_health: bool = True
    priority: int = 0


@dataclass
class SwitchEvent:
    time: float
    source_from: str
    source_to: str
    stitch_transform: Pose
    reason: str


def _yaw_of(R: np.ndarray) -> float:
    return float(np.arctan2(R[1, 0] - R[0, 1], R[0, 0] + R[1, 1]))


def yaw_translation_stitch(prev_output: Pose, new_source_output: Pose) -> Pose:
    """Transform making the new source continuous with the previous output
    without disturbing roll/pitch (both sources are gravity-aligned)."""
    T = compose(prev_output, new_source_output.inverse())
    Rz = rot_z(_yaw_of(T.rotation))
    t = prev_output.translation - Rz @ new_source_output.translation
    return Pose(Rz, t)


class Supervisor:
    def __init__(self, hold_time: float = 0.5):
        self.hold_time = hold_time
        self.status: dict[str, SourceStatus] = {}
        self._clean_since: dict[str, float] = {}
        self.active: str | None = None
        self.degraded = False
        self.stitch_transform = Pose.identity()
        self.switches: list[SwitchEvent] = []
        self._last_switch_time = -np.inf
        self._now = 0.0

    def report(self, status: SourceStatus) -> None:
        """The clean clock tracks health and observability only; freshness is
        evaluated instantaneously at selection time, so polling a source
        slower than its output rate does not reset its clock."""
        self._now = max(self._now, status.last_output_time)
        self.status[status.source] = status
        ok = status.input_health and not status.observability_warning
        if not ok:
            self._clean_since[status.source] = np.inf
        elif self._clean_since.get(status.source, np.inf) == np.inf:
            self._clean_since[status.source] = status.last_output_time

    def _is_fresh(self, s: SourceStatus, now: float) -> bool:
        return s.rate <= 0 or (now - s.last_output_time) <= 3.0 / s.rate

    def _is_clean(self, s: SourceStatus | None, now: float) -> bool:
        if s is None:
            return False
        return s.input_health and not s.observability_warning \
            and self._is_fresh(s, now)

    def _eligible(self, s: SourceStatus, now: float) -> bool:
        if not self._is_clean(s, now):
            return False
        return now - self._clean_since.get(s.source, np.inf) >= self.hold_time \
            or s.source == self.active

    def select(self, now: float | None = None) -> str:
        """Source that should be active now; deterministic given the table.

        Highest-priority eligible source wins; switching away from the
        current source is rate-limited by hold_time. With no eligible
        source the current one is retained and the degraded flag raised.
        """
        if not self.status:
            raise ValueError("no sources registered")
        now = self._now if now is None else now
        # a dropout resets the clean clock so a resuming source must stay
        # clean for hold_time before it becomes eligible again
        for s in self.status.values():
            if not self._is_fresh(s, now):
                self._clean_since[s.source] = np.inf
        ranked = sorted(self.status.values(), key=lambda s: s.priority)
        candidates = [s for s in ranked if self._eligible(s, now)]
        if not candidates:
            self.degraded = True
            return self.active if self.active is not None else ranked[0].source
        self.degraded = False
        best = candidates[0].source
        if self.active is None or best == self.active:
            return best
        if now - self._last_switch_time >= self.hold_time:
            return best
        return self.active

    def update(self, now: float, poses: dict[str, Pose]) -> Pose:
        """Advance the unified output: select, stitch on switches, and return
        the stitched pose of the active source."""
        choice = self.select(now)
        if self.active is None:
            self.active = choice
        elif choice != self.active:
            prev_out = compose(self.stitch_transform, poses[self.active])
            self.stitch_transform = yaw_translation_stitch(prev_out, poses[choice])
            self.switches.append(SwitchEvent(
                now, self.active, choice, self.stitch_transform,
                "priority recovery" if self.status[choice].priority
                < self.status[self.active].priority else "active source degraded"))
            self._last_switch_time = now
            self.active = choice
        return compose(self.stitch_transform, poses[self.active])

    def write_switch_log(self, path: str) -> None:
        with open(path, "w", newline="") as f:
            w = csv.writer(f)
            w.writerow(["time", "from", "to", "reason"])
            for s in self.switches:
                w.writerow([f"{s.time:.9f}", s.source_from, s.source_to, s.reason])
