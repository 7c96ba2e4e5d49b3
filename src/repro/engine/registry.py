"""Capability-aware algorithm registry — the engine's naming layer.

Every scheduler in the library registers itself here (via the
:func:`register_algorithm` decorator placed next to its implementation in
:mod:`repro.core`, :mod:`repro.classical`, :mod:`repro.offline`, and
:mod:`repro.profit`) together with *capability metadata*:

* ``profit_aware`` — respects job values (may reject unprofitable jobs);
* ``online`` — consumes jobs in arrival order with no future knowledge;
* ``multiprocessor`` — accepts instances with ``m > 1``;
* ``certificate`` — a hook producing a machine-checkable
  :class:`~repro.analysis.certificates.DualCertificate` from the raw run
  result (present iff the algorithm is certificate-producing).

The metadata is what lets generic layers stay generic: the batch runner
records a certified ratio for exactly the algorithms that can produce
one, sweeps select comparators by capability instead of hard-coding
names, and the CLI can explain what each name is.

**Variant specs.** A lookup name may carry parameters in a query-string
form — ``pd?delta=0.05``, ``pd-aug?epsilon=0.3&delta=0.01`` — resolved
against the base entry's declared ``variant_params`` (name → caster).
The resolved :class:`AlgorithmInfo` is first-class: same capability
metadata and certificate hook as the base entry, canonical name
(parameters sorted, values in shortest round-tripping form), and the
parsed parameters exposed as ``info.params`` so the batch runner can
fold them into cache keys. Unknown parameters, unknown bases, and
malformed specs all fail loudly.

Callers run an algorithm by name with ``REGISTRY.run(name, instance)``
and list the names with ``REGISTRY.names()``.
"""

from __future__ import annotations

import importlib
from dataclasses import dataclass, field, replace
from types import MappingProxyType
from typing import Any, Callable, Iterator, Mapping

from ..errors import InvalidParameterError
from ..model.job import Instance
from ..model.schedule import Schedule

__all__ = [
    "AlgorithmInfo",
    "AlgorithmRegistry",
    "RunOutcome",
    "REGISTRY",
    "register_algorithm",
    "parse_variant_name",
    "canonical_variant_name",
]

#: Empty immutable mapping used as the default for param dicts (a shared
#: singleton keeps frozen-dataclass defaults hashable-free and cheap).
_EMPTY: Mapping[str, Any] = MappingProxyType({})


def _format_param_value(value: Any) -> str:
    """Canonical text of one variant-parameter value.

    Floats and ints render via ``repr`` (shortest round-tripping form:
    ``0.05``, not ``5e-2``), strings as themselves — so parsing the
    rendered name reproduces the exact value, and two spellings of the
    same value canonicalize to the same name (hence the same cache key).
    """
    if isinstance(value, str):
        return value
    return repr(value)


def parse_variant_name(name: str) -> tuple[str, dict[str, str]]:
    """Split ``base?k1=v1&k2=v2`` into ``(base, raw_params)``.

    Values stay raw strings here — casting needs the base entry's
    declared parameter table, which is the registry's job. A name with
    no ``?`` parses as ``(name, {})``. Malformed specs (empty base,
    empty parameter list, missing ``=``, empty key/value, duplicate
    key) raise :class:`~repro.errors.InvalidParameterError`.
    """
    base, sep, query = name.partition("?")
    if not sep:
        return name, {}
    if not base:
        raise InvalidParameterError(f"variant spec {name!r} has an empty base name")
    if not query:
        raise InvalidParameterError(
            f"variant spec {name!r} has an empty parameter list "
            "(drop the '?' or add key=value pairs)"
        )
    raw: dict[str, str] = {}
    for pair in query.split("&"):
        key, eq, value = pair.partition("=")
        if not eq or not key or not value:
            raise InvalidParameterError(
                f"malformed variant parameter {pair!r} in {name!r}; "
                "expected key=value"
            )
        if key in raw:
            raise InvalidParameterError(
                f"duplicate variant parameter {key!r} in {name!r}"
            )
        raw[key] = value
    return base, raw


def canonical_variant_name(base: str, params: Mapping[str, Any]) -> str:
    """The canonical display/lookup name of a parameterized variant.

    Parameters are sorted by key and values rendered in their shortest
    round-tripping form, so every spelling of the same variant maps to
    one name (``pd?delta=5e-2`` → ``pd?delta=0.05``).
    """
    if not params:
        return base
    query = "&".join(
        f"{key}={_format_param_value(params[key])}" for key in sorted(params)
    )
    return f"{base}?{query}"


def _bind_variant(base_runner: Callable[..., Any], params: Mapping[str, Any]):
    """A nullary-style runner with the variant's parameters bound.

    Workers resolve variants by name inside their own process (the
    bound closure is never pickled), so parameterized cells parallelize
    exactly like base ones.
    """

    def runner(instance: Instance) -> tuple[Schedule, object]:
        return base_runner(instance, **params)

    return runner

#: Modules whose import registers the built-in algorithms. Imported
#: lazily on first lookup so that ``import repro.engine`` stays cheap and
#: cycle-free (these modules themselves import this one for the
#: decorator).
_BUILTIN_MODULES = (
    "repro.core.pd",
    "repro.core.cll",
    "repro.core.policies",
    "repro.classical.yds",
    "repro.classical.oa",
    "repro.classical.avr",
    "repro.classical.bkp",
    "repro.classical.qoa",
    "repro.offline.convex",
    "repro.offline.optimal",
    "repro.profit.augmented",
)

Runner = Callable[[Instance], tuple[Schedule, object]]


@dataclass(frozen=True)
class RunOutcome:
    """Normalized result of running any registered algorithm."""

    name: str
    schedule: Schedule
    raw: object

    @property
    def cost(self) -> float:
        return self.schedule.cost

    @property
    def energy(self) -> float:
        return self.schedule.energy


@dataclass(frozen=True)
class AlgorithmInfo:
    """One registered algorithm: its runner plus capability metadata.

    ``runner`` maps an instance to ``(schedule, raw_result)`` — the same
    normalized form :meth:`AlgorithmRegistry.run` wraps. ``certificate``
    (when present) maps the *raw* result to a dual certificate; its
    presence defines the ``certificate-producing`` capability.

    ``variant_params`` (name → caster) declares the tunable knobs a
    base entry accepts through ``base?key=value`` variant specs; the
    registered runner must then accept them as keyword arguments. On a
    *resolved variant*, ``base`` is the base entry's name and
    ``params`` holds the parsed values; base entries have
    ``base == name`` and empty ``params``.
    """

    name: str
    runner: Runner = field(repr=False)
    profit_aware: bool = False
    online: bool = True
    multiprocessor: bool = False
    certificate: Callable[[Any], Any] | None = field(default=None, repr=False)
    summary: str = ""
    variant_params: Mapping[str, Callable[[str], Any]] = field(
        default_factory=lambda: _EMPTY, repr=False
    )
    base: str = ""
    params: Mapping[str, Any] = field(default_factory=lambda: _EMPTY)

    def __post_init__(self) -> None:
        if not self.base:
            object.__setattr__(self, "base", self.name)

    @property
    def produces_certificate(self) -> bool:
        return self.certificate is not None

    def capabilities(self) -> frozenset[str]:
        """The capability tags, as a set of stable strings."""
        tags = set()
        if self.profit_aware:
            tags.add("profit-aware")
        tags.add("online" if self.online else "offline")
        if self.multiprocessor:
            tags.add("multiprocessor")
        if self.produces_certificate:
            tags.add("certificate-producing")
        return frozenset(tags)


class AlgorithmRegistry:
    """String → :class:`AlgorithmInfo` mapping with capability queries."""

    def __init__(self) -> None:
        self._infos: dict[str, AlgorithmInfo] = {}
        self._variants: dict[str, AlgorithmInfo] = {}
        self._builtins_loaded = False

    # ------------------------------------------------------------------
    # Registration
    # ------------------------------------------------------------------
    def register(
        self,
        name: str,
        *,
        profit_aware: bool = False,
        online: bool = True,
        multiprocessor: bool = False,
        certificate: Callable[[Any], Any] | None = None,
        summary: str = "",
        variant_params: Mapping[str, Callable[[str], Any]] | None = None,
    ) -> Callable[[Runner], Runner]:
        """Decorator registering ``fn`` as algorithm ``name``.

        Re-registering a name overwrites it (idempotent module reloads,
        and tests that want to stub an algorithm, both rely on this).
        A ``variant_params`` table makes the entry parameterizable via
        ``name?key=value`` specs; ``fn`` must accept the declared keys
        as keyword arguments.
        """
        if "?" in name or "&" in name:
            raise InvalidParameterError(
                f"algorithm name {name!r} may not contain '?' or '&' "
                "(reserved for variant specs)"
            )

        def decorator(fn: Runner) -> Runner:
            self._infos[name] = AlgorithmInfo(
                name=name,
                runner=fn,
                profit_aware=profit_aware,
                online=online,
                multiprocessor=multiprocessor,
                certificate=certificate,
                summary=summary,
                variant_params=MappingProxyType(dict(variant_params or {})),
            )
            self._variants.clear()  # stale resolutions may bind old runners
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
        """Registered algorithm names, alphabetically."""
        self._ensure_builtins()
        return tuple(sorted(self._infos))

    def info(self, name: str) -> AlgorithmInfo:
        """Metadata for one algorithm or variant spec; loud failure
        for unknown names, unknown parameters, and malformed specs."""
        self._ensure_builtins()
        if "?" in name:
            return self._resolve_variant(name)
        try:
            return self._infos[name]
        except KeyError:
            raise InvalidParameterError(
                f"unknown algorithm {name!r}; available: {', '.join(self.names())}"
            ) from None

    def _resolve_variant(self, name: str) -> AlgorithmInfo:
        """Resolve ``base?k=v&...`` into a first-class entry.

        Resolutions are memoized per canonical name; the memo is
        invalidated whenever any base entry is (re-)registered, so a
        stubbed base never serves a stale bound runner.
        """
        base_name, raw = parse_variant_name(name)
        base = self.info(base_name)
        if not base.variant_params:
            raise InvalidParameterError(
                f"algorithm {base_name!r} takes no variant parameters "
                f"(got {name!r})"
            )
        params: dict[str, Any] = {}
        for key, text in raw.items():
            caster = base.variant_params.get(key)
            if caster is None:
                raise InvalidParameterError(
                    f"unknown parameter {key!r} for algorithm {base_name!r}; "
                    f"accepted: {', '.join(sorted(base.variant_params))}"
                )
            try:
                params[key] = caster(text)
            except (TypeError, ValueError) as exc:
                raise InvalidParameterError(
                    f"bad value {text!r} for parameter {key!r} of "
                    f"{base_name!r}: {exc}"
                ) from None
        canonical = canonical_variant_name(base_name, params)
        cached = self._variants.get(canonical)
        if cached is not None:
            return cached
        info = replace(
            base,
            name=canonical,
            runner=_bind_variant(base.runner, params),
            summary=(
                f"{base.summary} [{', '.join(f'{k}={_format_param_value(v)}' for k, v in sorted(params.items()))}]"
                if base.summary
                else canonical
            ),
            base=base_name,
            params=MappingProxyType(dict(params)),
        )
        self._variants[canonical] = info
        return info

    def __contains__(self, name: str) -> bool:
        self._ensure_builtins()
        if "?" not in name:
            return name in self._infos
        try:
            self._resolve_variant(name)
        except InvalidParameterError:
            return False
        return True

    def __iter__(self) -> Iterator[AlgorithmInfo]:
        self._ensure_builtins()
        return iter(self._infos[name] for name in self.names())

    def select(
        self,
        *,
        profit_aware: bool | None = None,
        online: bool | None = None,
        multiprocessor: bool | None = None,
        produces_certificate: bool | None = None,
    ) -> tuple[AlgorithmInfo, ...]:
        """All algorithms matching the given capability constraints.

        ``None`` means "don't care"; e.g. ``select(profit_aware=True,
        multiprocessor=True)`` yields the algorithms eligible for a
        multi-processor profit experiment.
        """

        def match(info: AlgorithmInfo) -> bool:
            return (
                (profit_aware is None or info.profit_aware == profit_aware)
                and (online is None or info.online == online)
                and (multiprocessor is None or info.multiprocessor == multiprocessor)
                and (
                    produces_certificate is None
                    or info.produces_certificate == produces_certificate
                )
            )

        return tuple(info for info in self if match(info))

    # ------------------------------------------------------------------
    # Execution
    # ------------------------------------------------------------------
    def run(self, name: str, instance: Instance) -> RunOutcome:
        """Run a registered algorithm or variant spec by name.

        The outcome carries the *canonical* name, so every spelling of
        the same variant reports identically.
        """
        info = self.info(name)
        schedule, raw = info.runner(instance)
        return RunOutcome(name=info.name, schedule=schedule, raw=raw)


#: The process-global registry all library algorithms register into.
REGISTRY = AlgorithmRegistry()

#: Module-level alias of :meth:`AlgorithmRegistry.register` on the global
#: registry — what algorithm modules import.
register_algorithm = REGISTRY.register
