"""Workload generators: adversarial, random, and trace-like families.

Every family registers itself with the declarative
:class:`~repro.workloads.registry.WorkloadRegistry` (the global
:data:`~repro.workloads.registry.WORKLOADS`), next to its implementation
— the workload-side mirror of the algorithm registry. Parameterized
specs (``heavy-tail?n=64&alpha=3.0&seed=7``) resolve to canonical names,
so every spelling of the same workload builds the identical instance and
shares one batch-runner cache key.

Callers list the families with ``WORKLOADS.names()`` and reach a
family's generator as ``WORKLOADS.info(name).generator``; every
generator keeps the uniform keyword signature
``family(n, *, m=1, alpha=3.0, seed=0)``.
"""

from .datacenter import diurnal_instance, diurnal_intensity
from .lowerbound import (
    lower_bound_instance,
    optimal_cost_closed_form,
    pd_cost_closed_form,
)
from .random_instances import (
    heavy_tail_instance,
    poisson_instance,
    uniform_instance,
)
from .registry import WORKLOADS, WorkloadInfo, WorkloadRegistry, register_workload
from .structured import (
    agreeable_instance,
    batch_instance,
    bursty_instance,
    laminar_instance,
    slotted_instance,
    tight_instance,
)
from . import perturb as _perturb  # noqa: F401 - registers the jitter family

__all__ = [
    "WORKLOADS",
    "WorkloadInfo",
    "WorkloadRegistry",
    "register_workload",
    "lower_bound_instance",
    "pd_cost_closed_form",
    "optimal_cost_closed_form",
    "poisson_instance",
    "heavy_tail_instance",
    "uniform_instance",
    "diurnal_instance",
    "diurnal_intensity",
    "agreeable_instance",
    "laminar_instance",
    "batch_instance",
    "tight_instance",
    "bursty_instance",
    "slotted_instance",
]
