"""Round a continuous schedule onto a discrete speed menu.

Every algorithm in the library emits schedules whose realized segments run
at arbitrary real speeds. This module converts such a schedule into one
that only uses menu levels, by replacing each constant-speed segment with
its optimal two-level emulation (see :mod:`repro.discrete.envelope`):
the segment's time window is split into a leading part at the upper
adjacent level and a trailing part at the lower adjacent level (or idle),
preserving the work processed *exactly* and keeping the job on the same
processor in the same window — so feasibility (one job per processor, no
job on two processors at once) transfers verbatim from the continuous
schedule.

The resulting :class:`DiscreteSchedule` carries both energies, the lost
value (unchanged — rounding never alters acceptance decisions), and the
overhead ratio that the E11 ablation sweeps as the menu refines.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

from ..chen.mcnaughton import Segment
from ..errors import InvalidParameterError
from ..model.power import PowerFunction
from ..model.schedule import Schedule
from ..types import left_sum
from .envelope import DiscreteEnvelopePower
from .speedset import SpeedSet

__all__ = ["DiscreteSchedule", "discretize_segment", "discretize_schedule"]

#: Sub-segments shorter than this are dropped (floating-point dust).
_DURATION_EPS = 1e-12


def discretize_segment(segment: Segment, speed_set: SpeedSet) -> list[Segment]:
    """Optimal two-level emulation of one constant-speed segment.

    The fast part comes first and the slow (possibly idle) part second;
    the order inside the window is irrelevant for both energy and
    feasibility, but fixing it keeps output deterministic. Work is
    preserved exactly: ``theta*hi + (1-theta)*lo == segment.speed`` by
    construction of the bracket.

    Raises
    ------
    InvalidParameterError
        If the segment's speed exceeds the menu's top level.
    """
    if segment.speed <= 0.0 or segment.duration <= _DURATION_EPS:
        return []
    bracket = speed_set.bracket(segment.speed)
    if bracket.theta >= 1.0 or bracket.lo == bracket.hi:
        # Already at a level (or rounded up to one by the bracket).
        return [
            Segment(
                job=segment.job,
                processor=segment.processor,
                start=segment.start,
                end=segment.end,
                speed=bracket.hi,
            )
        ]
    t_fast = bracket.theta * segment.duration
    out: list[Segment] = []
    if t_fast > _DURATION_EPS:
        out.append(
            Segment(
                job=segment.job,
                processor=segment.processor,
                start=segment.start,
                end=segment.start + t_fast,
                speed=bracket.hi,
            )
        )
    if bracket.lo > 0.0 and segment.duration - t_fast > _DURATION_EPS:
        out.append(
            Segment(
                job=segment.job,
                processor=segment.processor,
                start=segment.start + t_fast,
                end=segment.end,
                speed=bracket.lo,
            )
        )
    return out


@dataclass(frozen=True)
class DiscreteSchedule:
    """A continuous schedule together with its menu-level emulation.

    Attributes
    ----------
    source:
        The continuous schedule that was rounded.
    speed_set:
        The menu used.
    segments:
        All discrete segments across the horizon, each running at a menu
        level. Same processors and windows as the continuous realization.
    """

    source: Schedule
    speed_set: SpeedSet
    segments: tuple[Segment, ...]

    @cached_property
    def energy(self) -> float:
        """Total energy of the discrete segments under the instance's power law."""
        power: PowerFunction = self.source.instance.power
        return float(
            left_sum(power(seg.speed) * seg.duration for seg in self.segments)
        )

    @property
    def continuous_energy(self) -> float:
        """Energy of the continuous source schedule."""
        return self.source.energy

    @property
    def lost_value(self) -> float:
        """Value of rejected jobs — identical to the source schedule's."""
        return self.source.lost_value

    @property
    def cost(self) -> float:
        """Discrete energy plus lost value (Equation (1) on the menu)."""
        return self.energy + self.lost_value

    @property
    def overhead(self) -> float:
        """``discrete energy / continuous energy`` (1.0 when both are 0)."""
        cont = self.continuous_energy
        if cont <= 0.0:
            return 1.0
        return self.energy / cont

    def work_by_job(self) -> dict[int, float]:
        """Total discrete work per job id — must match the source loads."""
        acc: dict[int, float] = {}
        for seg in self.segments:
            acc[seg.job] = acc.get(seg.job, 0.0) + seg.work
        return acc

    def validate(self, *, rel_tol: float = 1e-9) -> None:
        """Check the emulation invariants.

        * every segment speed is a menu level,
        * per-job work matches the continuous loads to relative tolerance,
        * segments on one processor do not overlap, and no job runs on two
          processors at once.
        """
        for seg in self.segments:
            if not self.speed_set.is_level(seg.speed):
                raise InvalidParameterError(
                    f"segment speed {seg.speed} is not a menu level"
                )
        want = self.source.work_done()
        got = self.work_by_job()
        for j in range(self.source.instance.n):
            have = got.get(j, 0.0)
            if abs(have - want[j]) > rel_tol * max(1.0, want[j]):
                raise InvalidParameterError(
                    f"job {j}: discrete work {have} != continuous work {want[j]}"
                )
        _check_disjoint(self.segments)


def _check_disjoint(segments: tuple[Segment, ...]) -> None:
    """No processor runs two segments at once; no job self-overlaps."""
    by_proc: dict[int, list[Segment]] = {}
    by_job: dict[int, list[Segment]] = {}
    for seg in segments:
        by_proc.setdefault(seg.processor, []).append(seg)
        by_job.setdefault(seg.job, []).append(seg)
    for key, group in list(by_proc.items()) + list(by_job.items()):
        group.sort(key=lambda s: s.start)
        for a, b in zip(group, group[1:]):
            if a.end > b.start + 1e-9:
                raise InvalidParameterError(
                    f"overlapping segments around t={b.start} (group {key})"
                )


def discretize_schedule(schedule: Schedule, speed_set: SpeedSet) -> DiscreteSchedule:
    """Emulate ``schedule`` on the menu, two levels per original segment.

    The continuous schedule is first realized into explicit
    ``(job, processor, start, end, speed)`` segments via Chen et al. +
    McNaughton, then each segment is rounded independently. Because each
    rounded pair stays inside its source window on its source processor,
    the discrete schedule is feasible whenever the source is, and its
    energy equals ``sum(envelope(speed) * duration)`` over the source
    segments — the certified optimum for this work assignment.

    Raises
    ------
    InvalidParameterError
        If any realized speed exceeds the menu's top level (the instance
        then simply cannot be served with this assignment on this menu —
        callers wanting graceful degradation should screen jobs first, see
        :func:`repro.discrete.pd_discrete.run_pd_discrete`).
    """
    segments: list[Segment] = []
    for interval in schedule.realize():
        for seg in interval.segments:
            segments.extend(discretize_segment(seg, speed_set))
    segments.sort(key=lambda s: (s.processor, s.start))
    out = DiscreteSchedule(
        source=schedule, speed_set=speed_set, segments=tuple(segments)
    )
    # Cross-check the closed form: discrete energy == envelope energy.
    env = DiscreteEnvelopePower(speed_set, schedule.instance.power)
    expected = 0.0
    for interval in schedule.realize():
        for seg in interval.segments:
            expected += env(seg.speed) * seg.duration
    if abs(out.energy - expected) > 1e-6 * max(1.0, expected):
        raise InvalidParameterError(
            f"internal accounting mismatch: segments give {out.energy}, "
            f"envelope gives {expected}"
        )
    return out
