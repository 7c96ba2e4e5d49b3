"""Declarative workload registry — the naming layer for instance families.

Symmetric to the algorithm side's
:class:`~repro.engine.registry.AlgorithmRegistry`: every generator in
:mod:`repro.workloads` registers itself here (via the
:func:`register_workload` decorator placed next to its implementation in
:mod:`~repro.workloads.random_instances`,
:mod:`~repro.workloads.structured`, :mod:`~repro.workloads.lowerbound`,
:mod:`~repro.workloads.datacenter`, and
:mod:`~repro.workloads.perturb`) together with the table of knobs it
accepts through *parameterized workload specs*.

A workload spec uses the same query-string grammar as algorithm variant
specs — ``heavy-tail?n=64&alpha=3.0&seed=7`` — parsed by the shared
:func:`~repro.engine.registry.parse_variant_name` /
:func:`~repro.engine.registry.canonical_variant_name` pair. Resolution
produces a first-class :class:`WorkloadInfo` with the *canonical* name
(keys sorted, values in shortest round-tripping form), so every spelling
of the same workload (``heavy-tail?alpha=3&n=64``) builds the identical
instance — and, since the batch runner's
:func:`~repro.engine.runner.request_key` hashes instance *content*,
shares the identical cache key. Unknown families, unknown parameters,
uncastable values, and malformed specs all fail loudly.
"""

from __future__ import annotations

import importlib
from dataclasses import dataclass, field, replace
from types import MappingProxyType
from typing import Any, Callable, Iterator, Mapping

from ..engine.registry import canonical_variant_name, parse_variant_name
from ..errors import InvalidParameterError
from ..model.job import Instance

__all__ = [
    "WorkloadInfo",
    "WorkloadRegistry",
    "WORKLOADS",
    "register_workload",
]

#: Shared immutable empty mapping for frozen-dataclass defaults.
_EMPTY: Mapping[str, Any] = MappingProxyType({})

#: Knobs every registered generator accepts (the uniform contract
#: ``family(n, *, m, alpha, seed)``); family-specific knobs extend this
#: table at registration.
_COMMON_PARAMS: dict[str, Callable[[str], Any]] = {
    "n": int,
    "m": int,
    "alpha": float,
    "seed": int,
}

#: Modules whose import registers the built-in families. Imported lazily
#: on first lookup so ``import repro.workloads.registry`` stays cheap and
#: cycle-free (these modules import this one for the decorator).
_BUILTIN_MODULES = (
    "repro.workloads.random_instances",
    "repro.workloads.structured",
    "repro.workloads.lowerbound",
    "repro.workloads.datacenter",
    "repro.workloads.perturb",
)

#: A generator: ``family(n, *, m=..., alpha=..., seed=..., **knobs)``.
Generator = Callable[..., Instance]


@dataclass(frozen=True)
class WorkloadInfo:
    """One registered workload family: its generator plus spec metadata.

    ``spec_params`` (name → caster) is the full table of knobs the
    family accepts through ``name?key=value`` specs — the common four
    (``n``/``m``/``alpha``/``seed``) plus whatever the registration
    declared. On a *resolved spec*, ``base`` is the family's plain name
    and ``params`` holds the parsed values; base entries have
    ``base == name`` and empty ``params``.

    ``deterministic`` marks families that ignore their seed (the
    adversarial lower bound); ``classical`` marks must-finish job sets
    (no values to reject), which composes with the classical zoo only.
    """

    name: str
    generator: Generator = field(repr=False)
    summary: str = ""
    spec_params: Mapping[str, Callable[[str], Any]] = field(
        default_factory=lambda: _EMPTY, repr=False
    )
    deterministic: bool = False
    classical: bool = False
    base: str = ""
    params: Mapping[str, Any] = field(default_factory=lambda: _EMPTY)

    def __post_init__(self) -> None:
        if not self.base:
            object.__setattr__(self, "base", self.name)

    def tags(self) -> frozenset[str]:
        """Stable string tags, mirroring ``AlgorithmInfo.capabilities``."""
        tags = {"deterministic" if self.deterministic else "seeded"}
        tags.add("classical" if self.classical else "profit")
        return frozenset(tags)

    def build(
        self, n: int | None = None, *, seed: int | None = None, **kwargs: Any
    ) -> Instance:
        """Generate an instance, folding the spec's parsed parameters in.

        Spec parameters are pinned: a caller keyword that collides with
        one raises instead of silently shadowing either side. ``n`` and
        ``seed`` given in the spec win over the call-site arguments (a
        pinned replicate is the point of putting them in the spec).
        """
        params = dict(self.params)
        n_eff = params.pop("n", None)
        if n_eff is None:
            n_eff = 20 if n is None else n
        seed_eff = params.pop("seed", seed)
        clashes = set(params).intersection(kwargs)
        if clashes:
            raise InvalidParameterError(
                f"parameter(s) {sorted(clashes)} are pinned by the workload "
                f"spec {self.name!r} and were also passed as keywords"
            )
        return self.generator(n_eff, seed=seed_eff, **{**kwargs, **params})


class WorkloadRegistry:
    """String → :class:`WorkloadInfo` mapping with spec resolution."""

    def __init__(self) -> None:
        self._infos: dict[str, WorkloadInfo] = {}
        self._resolved: dict[str, WorkloadInfo] = {}
        self._builtins_loaded = False

    # ------------------------------------------------------------------
    # Registration
    # ------------------------------------------------------------------
    def register(
        self,
        name: str,
        *,
        summary: str = "",
        params: Mapping[str, Callable[[str], Any]] | None = None,
        deterministic: bool = False,
        classical: bool = False,
    ) -> Callable[[Generator], Generator]:
        """Decorator registering ``fn`` as workload family ``name``.

        ``params`` declares family-specific knobs (name → caster) on top
        of the common ``n``/``m``/``alpha``/``seed``; ``fn`` must accept
        all of them as keyword arguments. Re-registering a name
        overwrites it, like the algorithm registry.
        """
        if "?" in name or "&" in name:
            raise InvalidParameterError(
                f"workload name {name!r} may not contain '?' or '&' "
                "(reserved for parameterized specs)"
            )

        def decorator(fn: Generator) -> Generator:
            self._infos[name] = WorkloadInfo(
                name=name,
                generator=fn,
                summary=summary,
                spec_params=MappingProxyType(
                    {**_COMMON_PARAMS, **dict(params or {})}
                ),
                deterministic=deterministic,
                classical=classical,
            )
            self._resolved.clear()  # stale resolutions may bind old generators
            return fn

        return decorator

    def _ensure_builtins(self) -> None:
        if not self._builtins_loaded:
            self._builtins_loaded = True
            for module in _BUILTIN_MODULES:
                importlib.import_module(module)

    # ------------------------------------------------------------------
    # Lookup
    # ------------------------------------------------------------------
    def names(self) -> tuple[str, ...]:
        """Registered family names (bases only), alphabetically."""
        self._ensure_builtins()
        return tuple(sorted(self._infos))

    def info(self, spec: str) -> WorkloadInfo:
        """Metadata for one family or parameterized spec; loud failure
        for unknown names, unknown parameters, and malformed specs."""
        self._ensure_builtins()
        if "?" in spec:
            return self._resolve(spec)
        try:
            return self._infos[spec]
        except KeyError:
            raise InvalidParameterError(
                f"unknown workload family {spec!r}; "
                f"available: {', '.join(self.names())}"
            ) from None

    def _resolve(self, spec: str) -> WorkloadInfo:
        base_name, raw = parse_variant_name(spec)
        base = self.info(base_name)
        params: dict[str, Any] = {}
        for key, text in raw.items():
            caster = base.spec_params.get(key)
            if caster is None:
                raise InvalidParameterError(
                    f"unknown parameter {key!r} for workload {base_name!r}; "
                    f"accepted: {', '.join(sorted(base.spec_params))}"
                )
            try:
                params[key] = caster(text)
            except (TypeError, ValueError) as exc:
                raise InvalidParameterError(
                    f"bad value {text!r} for parameter {key!r} of workload "
                    f"{base_name!r}: {exc}"
                ) from None
        canonical = canonical_variant_name(base_name, params)
        cached = self._resolved.get(canonical)
        if cached is not None:
            return cached
        info = replace(
            base,
            name=canonical,
            base=base_name,
            params=MappingProxyType(dict(params)),
        )
        self._resolved[canonical] = info
        return info

    def build(
        self,
        spec: str,
        n: int | None = None,
        *,
        seed: int | None = None,
        **kwargs: Any,
    ) -> Instance:
        """Resolve ``spec`` and generate an instance in one step."""
        return self.info(spec).build(n, seed=seed, **kwargs)

    def __contains__(self, spec: str) -> bool:
        self._ensure_builtins()
        if "?" not in spec:
            return spec in self._infos
        try:
            self._resolve(spec)
        except InvalidParameterError:
            return False
        return True

    def __iter__(self) -> Iterator[WorkloadInfo]:
        self._ensure_builtins()
        return iter(self._infos[name] for name in self.names())

    def select(
        self,
        *,
        deterministic: bool | None = None,
        classical: bool | None = None,
    ) -> tuple[WorkloadInfo, ...]:
        """All families matching the given tag constraints (``None`` =
        don't care) — e.g. ``select(classical=False)`` for the families a
        profit experiment can reject jobs on."""
        return tuple(
            info
            for info in self
            if (deterministic is None or info.deterministic == deterministic)
            and (classical is None or info.classical == classical)
        )


#: The process-global registry all library workload families register
#: into.
WORKLOADS = WorkloadRegistry()

#: Module-level alias of :meth:`WorkloadRegistry.register` on the global
#: registry — what workload modules import.
register_workload = WORKLOADS.register
