"""Declarative platform specs: one canonical construction path.

Platforms used to be built through three inconsistent ad-hoc factories
(:func:`~repro.platform.paper_platform`, ``platform_3d``, manual
``big_little_power_model`` wiring).  A :class:`PlatformSpec` replaces
all of that with a frozen, content-hashable value: a **family** name
plus a flat mapping of JSON-scalar **overrides**.  Every consumer —
:func:`repro.api.load_platform`, the CLI's ``-o platforms=...`` and
``repro certify``, the :class:`~repro.service.session.SchedulerSession`
resolver, :func:`~repro.service.cache.platform_hash`, and the sharded
runner's ``solve_cell`` payloads — resolves platforms through specs, so
equivalent constructions can never drift apart in cache keys.

Families
--------
* ``paper`` — the calibrated 65 nm paper platform
  (:func:`~repro.platform.paper_platform`);
* ``big_little`` — the paper substrate with a heterogeneous big.LITTLE
  power model (big cores default to the first half);
* ``stack3d`` — the 3D-stacked platform
  (:func:`~repro.platform.platform_3d`);
* ``tech`` — the technology-scaling generator
  (:func:`~repro.scaling.generator.tech_platform`), one point per
  (node, scenario, style, stack).

Named presets (``paper``, ``paper3``, ``big_little``, ``stack3d`` and
the generated ``tech-<node>-<style>`` grid) are specs with overrides
pre-filled; ``PlatformSpec.named("tech-16-io", n_cores=4)`` layers
further overrides on top.

Specs round-trip JSON exactly: ``PlatformSpec.from_dict(s.as_dict())
== s``, and :meth:`PlatformSpec.canonical` is a deterministic string
suitable for memo keys across processes.  Building a platform from a
spec stamps the spec onto ``Platform.spec``, so sweep-derived copies
(:meth:`~repro.platform.Platform.with_t_max` /
:meth:`~repro.platform.Platform.with_ladder`) keep provenance that
rebuilds the *same* physics — no silent cache-key drift.
"""

from __future__ import annotations

import numbers
from collections.abc import Callable, Mapping
from dataclasses import dataclass, field, replace
from typing import Any

from repro.errors import ConfigurationError
from repro.platform import Platform, paper_platform, platform_3d
from repro.power.dvfs import VoltageLadder
from repro.power.model import big_little_power_model
from repro.util.canonical import canonical_json

__all__ = [
    "PlatformSpec",
    "PlatformFamily",
    "FAMILIES",
    "get_family",
    "platform_names",
    "get_preset",
    "build_platform",
    "preset_on_axes",
]


def _canonical_value(value: Any) -> Any:
    """Canonicalize one override value to a hashable JSON-scalar form."""
    if isinstance(value, bool):
        return value
    if isinstance(value, numbers.Integral):
        return int(value)
    if isinstance(value, numbers.Real):
        return float(value)
    if value is None or isinstance(value, str):
        return value
    if isinstance(value, (list, tuple)):
        return tuple(_canonical_value(v) for v in value)
    raise ConfigurationError(
        f"platform-spec override values must be JSON scalars or lists, "
        f"got {type(value).__name__}: {value!r}"
    )


def _jsonable(value: Any) -> Any:
    """Tuples back to lists for the JSON wire form."""
    if isinstance(value, tuple):
        return [_jsonable(v) for v in value]
    return value


@dataclass(frozen=True)
class PlatformFamily:
    """One registered way of building platforms.

    Attributes
    ----------
    name:
        Family id (``paper``, ``big_little``, ``stack3d``, ``tech``).
    builder:
        Callable accepting the family's keyword parameters and returning
        a bare :class:`~repro.platform.Platform`.
    params:
        The accepted override names — unknown overrides are rejected
        with this list, so CLI typos fail loudly.
    description:
        One-liner for ``repro list platforms``.
    """

    name: str
    builder: Callable[..., Platform]
    params: tuple[str, ...]
    description: str


def _build_paper(**kwargs: Any) -> Platform:
    ladder_levels = kwargs.pop("ladder_levels", None)
    if ladder_levels is not None:
        kwargs["ladder"] = VoltageLadder(tuple(ladder_levels))
    kwargs.setdefault("n_cores", 3)
    return paper_platform(**kwargs)


def _build_big_little(**kwargs: Any) -> Platform:
    kwargs.setdefault("n_cores", 3)
    n_cores = int(kwargs["n_cores"])
    big_cores = kwargs.pop("big_cores", None)
    if big_cores is None:
        big_cores = tuple(range(max(1, n_cores // 2)))
    power = big_little_power_model(
        big_cores=list(int(c) for c in big_cores),
        n_cores=n_cores,
        little_gamma_scale=float(kwargs.pop("little_gamma_scale", 0.45)),
        little_alpha_scale=float(kwargs.pop("little_alpha_scale", 0.55)),
    )
    ladder_levels = kwargs.pop("ladder_levels", None)
    if ladder_levels is not None:
        kwargs["ladder"] = VoltageLadder(tuple(ladder_levels))
    return paper_platform(power=power, **kwargs)


def _build_stack3d(**kwargs: Any) -> Platform:
    ladder_levels = kwargs.pop("ladder_levels", None)
    if ladder_levels is not None:
        kwargs["ladder"] = VoltageLadder(tuple(ladder_levels))
    kwargs.setdefault("n_layers", 3)
    kwargs.setdefault("rows", 2)
    kwargs.setdefault("cols", 2)
    return platform_3d(**kwargs)


def _build_tech(**kwargs: Any) -> Platform:
    from repro.scaling.generator import tech_platform

    ladder_levels = kwargs.pop("ladder_levels", None)
    platform = tech_platform(**kwargs)
    if ladder_levels is not None:
        platform = replace(platform, ladder=VoltageLadder(tuple(ladder_levels)))
    return platform


#: The family registry.  ``ladder_levels`` everywhere is what keeps
#: :meth:`Platform.with_ladder` copies spec-representable.
FAMILIES: dict[str, PlatformFamily] = {
    fam.name: fam
    for fam in (
        PlatformFamily(
            name="paper",
            builder=_build_paper,
            params=(
                "n_cores", "n_levels", "t_max_c", "t_ambient_c",
                "tau", "topology", "ladder_levels",
            ),
            description="calibrated 65 nm paper platform",
        ),
        PlatformFamily(
            name="big_little",
            builder=_build_big_little,
            params=(
                "n_cores", "n_levels", "t_max_c", "t_ambient_c",
                "tau", "topology", "ladder_levels",
                "big_cores", "little_gamma_scale", "little_alpha_scale",
            ),
            description="paper substrate with heterogeneous big.LITTLE power",
        ),
        PlatformFamily(
            name="stack3d",
            builder=_build_stack3d,
            params=(
                "n_layers", "rows", "cols", "n_levels", "t_max_c",
                "t_ambient_c", "tau", "g_interlayer",
                "sidewall_fraction", "ladder_levels",
            ),
            description="3D-stacked paper substrate (layer 0 sink-adjacent)",
        ),
        PlatformFamily(
            name="tech",
            builder=_build_tech,
            params=(
                "node", "scenario", "style", "n_cores", "n_levels",
                "stack_layers", "t_max_c", "t_ambient_c", "tau",
                "sidewall_fraction", "ladder_levels",
            ),
            description="technology-scaling generator (45-8 nm, io/o3)",
        ),
    )
}


def get_family(name: str) -> PlatformFamily:
    """Look a family up by id, failing with the known names."""
    try:
        return FAMILIES[name]
    except KeyError:
        raise ConfigurationError(
            f"unknown platform family {name!r}; known: {sorted(FAMILIES)}"
        ) from None


@dataclass(frozen=True)
class PlatformSpec:
    """A frozen, content-hashable recipe for one platform.

    Attributes
    ----------
    family:
        A :data:`FAMILIES` id.
    overrides:
        Sorted ``(name, value)`` pairs of keyword overrides, values
        canonicalized to hashable JSON scalars/tuples.  Construct with a
        mapping — ``PlatformSpec("tech", {"node": 16})`` — or through
        :meth:`named` / :meth:`with_overrides`.
    """

    family: str
    overrides: tuple[tuple[str, Any], ...] = field(default=())

    def __post_init__(self) -> None:
        raw = self.overrides
        if isinstance(raw, Mapping):
            items = raw.items()
        else:
            items = tuple(raw)
        canon = tuple(
            sorted((str(k), _canonical_value(v)) for k, v in items)
        )
        names = [k for k, _ in canon]
        if len(set(names)) != len(names):
            raise ConfigurationError(f"duplicate override names in {names}")
        object.__setattr__(self, "overrides", canon)
        family = get_family(self.family)
        unknown = set(names) - set(family.params)
        if unknown:
            raise ConfigurationError(
                f"family {family.name!r} does not accept overrides "
                f"{sorted(unknown)}; valid: {sorted(family.params)}"
            )

    # -- construction ---------------------------------------------------

    @classmethod
    def named(cls, name: str, **overrides: Any) -> "PlatformSpec":
        """A preset spec by name, with further overrides layered on top.

        ``name`` may be a preset (``paper3``, ``tech-16-io``, ...) or a
        bare family id (``tech``); see :func:`platform_names`.
        """
        preset = _PRESETS.get(name)
        if preset is not None:
            return preset[0].with_overrides(**overrides)
        if name in FAMILIES:
            return cls(name, overrides)
        raise ConfigurationError(
            f"unknown platform {name!r}; known presets: "
            f"{', '.join(platform_names())} (or a family id: "
            f"{', '.join(sorted(FAMILIES))})"
        )

    @classmethod
    def coerce(cls, value: Any) -> "PlatformSpec":
        """Any accepted platform description -> a spec (no warnings).

        Accepts a spec, a preset/family name, a spec document
        (``{"family": ..., "overrides": {...}}``), a legacy flat kwargs
        dict (routed to the ``paper`` family, the shape old journal rows
        and manifests carry), or ``None`` (the default ``paper`` spec).
        :func:`repro.api.load_platform` is this plus keyword overrides.
        """
        if isinstance(value, cls):
            return value
        if value is None:
            return cls("paper")
        if isinstance(value, str):
            return cls.named(value)
        if isinstance(value, Mapping):
            if "family" in value:
                return cls.from_dict(value)
            if "name" in value:
                doc = dict(value)
                return cls.named(str(doc.pop("name")), **doc)
            return cls("paper", dict(value))
        raise ConfigurationError(
            f"cannot interpret {type(value).__name__} as a platform spec"
        )

    def with_overrides(self, **overrides: Any) -> "PlatformSpec":
        """Copy with further overrides layered on top (later wins)."""
        if not overrides:
            return self
        merged = dict(self.overrides)
        merged.update(overrides)
        return PlatformSpec(self.family, merged)

    # -- wire form ------------------------------------------------------

    def overrides_dict(self) -> dict[str, Any]:
        """The overrides as a plain dict (canonical tuple values)."""
        return dict(self.overrides)

    def as_dict(self) -> dict[str, Any]:
        """JSON wire form: ``{"family": ..., "overrides": {...}}``."""
        return {
            "family": self.family,
            "overrides": {k: _jsonable(v) for k, v in self.overrides},
        }

    @classmethod
    def from_dict(cls, doc: Mapping[str, Any]) -> "PlatformSpec":
        """Rebuild a spec from its :meth:`as_dict` document."""
        if "family" not in doc:
            raise ConfigurationError(
                f"a platform-spec document needs a 'family' key, got "
                f"{sorted(doc)}"
            )
        overrides = doc.get("overrides") or {}
        if not isinstance(overrides, Mapping):
            raise ConfigurationError(
                f"'overrides' must be a mapping, got {type(overrides).__name__}"
            )
        return cls(str(doc["family"]), overrides)

    def canonical(self) -> str:
        """Deterministic canonical-JSON string (memo keys, journals)."""
        return canonical_json(self.as_dict())

    # -- building -------------------------------------------------------

    def build(self) -> Platform:
        """Build the platform, stamping this spec as its provenance."""
        family = get_family(self.family)
        platform = family.builder(**self.overrides_dict())
        return replace(platform, spec=self)


def build_platform(spec: Any) -> Platform:
    """:meth:`PlatformSpec.coerce` then :meth:`~PlatformSpec.build`."""
    return PlatformSpec.coerce(spec).build()


def preset_on_axes(name: str, **axes: Any) -> PlatformSpec:
    """The named preset with the sweep axes its family parameterizes.

    Sweeps over mixed families (``repro certify -o platforms=...``, the
    realtime experiment) set ``n_cores``/``n_levels``/``t_max_c`` and
    pass-through kwargs on every cell; axes a family does not take
    (``stack3d`` has no ``n_cores``) are dropped rather than rejected.
    """
    spec = PlatformSpec.named(str(name))
    params = get_family(spec.family).params
    return spec.with_overrides(**{k: v for k, v in axes.items() if k in params})


def _tech_preset_description(node: int, style: str) -> str:
    from repro.scaling.tables import FREQ_BASE_GHZ, LEAKAGE_SHARE

    del FREQ_BASE_GHZ  # descriptions stay static; tables validate style
    return (
        f"generated {node} nm {style} platform (itrs scaling, "
        f"{LEAKAGE_SHARE[node]:.0%} leakage share)"
    )


def _presets() -> dict[str, tuple["PlatformSpec", str]]:
    from repro.scaling.tables import CORE_STYLES, TECH_NODES

    presets: dict[str, tuple[PlatformSpec, str]] = {
        "paper": (
            PlatformSpec("paper"),
            "calibrated paper platform (3 cores, 2 levels, T_max 55 C)",
        ),
        "paper3": (
            PlatformSpec("paper", {"n_cores": 3}),
            "the paper's 3-core reference configuration, explicitly",
        ),
        "big_little": (
            PlatformSpec("big_little"),
            "3-core big.LITTLE variant (first half big)",
        ),
        "stack3d": (
            PlatformSpec("stack3d"),
            "3-layer 2x2 3D stack on the paper substrate",
        ),
    }
    for node in TECH_NODES:
        for style in CORE_STYLES:
            presets[f"tech-{node}-{style}"] = (
                PlatformSpec("tech", {"node": node, "style": style}),
                _tech_preset_description(node, style),
            )
    return presets


#: Named presets: name -> (spec, description).
_PRESETS: dict[str, tuple[PlatformSpec, str]] = _presets()


def platform_names() -> tuple[str, ...]:
    """All named presets, stable order (paper first, tech grid last)."""
    return tuple(_PRESETS)


def get_preset(name: str) -> tuple[PlatformSpec, str]:
    """``(spec, description)`` of one named preset."""
    try:
        return _PRESETS[name]
    except KeyError:
        raise ConfigurationError(
            f"unknown platform preset {name!r}; known: "
            f"{', '.join(platform_names())}"
        ) from None
