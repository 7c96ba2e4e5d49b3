"""Resource augmentation: PD on a ``(1 + eps)``-speed machine.

Pruhs & Stein's positive result pairs their impossibility proof with a
*scalable* algorithm: give the online scheduler processors that are
``(1 + eps)`` times faster than the adversary's (same power at
``(1 + eps)``-fold speed) and bounded profit-competitiveness becomes
possible, with a constant depending only on ``eps`` and ``alpha``.

We realize augmentation exactly, not approximately, through a workload
change of variables: a machine that processes ``(1 + eps) * s`` work per
unit time at power ``P(s)`` serves workload ``w`` exactly like a normal
machine serves workload ``w / (1 + eps)``. So the augmented run *is* a
normal PD run on the shrunk instance; only the accounting (which job
earned its value) is mapped back. Energy, acceptance decisions, and the
Theorem 3 certificate of the shrunk run all remain valid verbatim.

The quantitative effect on the hard family of
:mod:`repro.profit.hard_instances` has a closed form: PD's energy shrinks
by ``(1 + eps)**(1 - alpha)`` (each committed speed drops by the
augmentation factor while durations are unchanged), so its profit jumps
from ``margin`` to ``margin + (1 - (1+eps)**(1-alpha)) * PD_energy`` —
bounded away from zero *independently of the margin*. E12 sweeps both
knobs and shows the ratio collapsing from unbounded to O(1), mirroring
Pruhs & Stein's qualitative claim.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from ..core.pd import PDResult, run_pd
from ..errors import InvalidParameterError
from ..model.job import Instance
from .model import ProfitBreakdown

__all__ = ["AugmentedProfitResult", "run_pd_augmented"]


@dataclass(frozen=True)
class AugmentedProfitResult:
    """A PD run on an ``(1 + eps)``-speed machine, profit-accounted.

    Attributes
    ----------
    instance:
        The original (unshrunk) instance.
    epsilon:
        The augmentation amount; 0 reproduces plain PD exactly.
    inner:
        The PD result on the shrunk instance. Its schedule's *nominal*
        speeds are the augmented machine's power-relevant speeds; work
        quantities refer to the shrunk workloads.
    """

    instance: Instance
    epsilon: float
    inner: PDResult

    @property
    def energy(self) -> float:
        """Energy bought by the augmented machine (shrunk-run energy)."""
        return self.inner.schedule.energy

    @property
    def earned_value(self) -> float:
        """Value of jobs the augmented run finishes."""
        ordered = self.instance.sorted_by_release()
        return float(ordered.values[self.inner.accepted_mask].sum())

    @property
    def profit(self) -> ProfitBreakdown:
        """Profit accounting against the *original* values and workloads."""
        return ProfitBreakdown(
            earned_value=self.earned_value,
            energy=self.energy,
            total_value=self.instance.total_value,
        )

    def summary(self) -> str:
        """Human-readable run summary."""
        p = self.profit
        return (
            f"Augmented PD (eps={self.epsilon:g}): {p}\n"
            f"  accepted {int(self.inner.accepted_mask.sum())}"
            f"/{self.instance.n} jobs"
        )


def run_pd_augmented(
    instance: Instance, epsilon: float, *, delta: float | None = None
) -> AugmentedProfitResult:
    """Run PD with ``(1 + epsilon)``-speed resource augmentation.

    Parameters
    ----------
    instance:
        The original problem instance (adversary's machine model).
    epsilon:
        Augmentation; must be a finite number ``>= 0``. ``0`` degrades
        to plain PD.
    delta:
        PD's aggressiveness parameter, forwarded to the inner run.

    Notes
    -----
    Because the shrunk instance is a legitimate instance of the paper's
    model, everything proven about PD applies to the inner run — in
    particular ``inner`` still carries its own α^α loss certificate. The
    profit guarantee against the unaugmented optimum is the *additional*
    content quantified empirically by E12.
    """
    if (
        not isinstance(epsilon, (int, float))
        or isinstance(epsilon, bool)
        or not math.isfinite(epsilon)
        or epsilon < 0.0
    ):
        raise InvalidParameterError(
            f"epsilon must be a finite number >= 0, got {epsilon!r}"
        )
    shrunk = instance.scaled(work=1.0 / (1.0 + epsilon))
    inner = run_pd(shrunk, delta=delta)
    return AugmentedProfitResult(
        instance=instance.sorted_by_release(), epsilon=epsilon, inner=inner
    )


# ----------------------------------------------------------------------
# Engine registration
# ----------------------------------------------------------------------
from ..engine.registry import register_algorithm  # noqa: E402

#: Augmentation used by the bare ``pd-aug`` registry entry. Callers who
#: want another epsilon address the variant directly —
#: ``pd-aug?epsilon=0.3`` — or sweep it with an
#: :class:`~repro.engine.experiment.ExperimentSpec` ``variants`` axis.
REGISTERED_EPSILON = 0.1


def _pd_aug_certificate(result: AugmentedProfitResult):
    from ..analysis.certificates import dual_certificate

    return dual_certificate(result.inner)


@register_algorithm(
    "pd-aug",
    profit_aware=True,
    online=True,
    multiprocessor=True,
    certificate=_pd_aug_certificate,
    summary=f"PD with (1 + eps) speed augmentation (Pruhs-Stein; default eps={REGISTERED_EPSILON})",
    variant_params={"epsilon": float, "delta": float},
)
def _run_pd_aug_registered(
    instance, *, epsilon: float = REGISTERED_EPSILON, delta: float | None = None
):
    result = run_pd_augmented(instance, epsilon, delta=delta)
    return result.inner.schedule, result
