"""Tests for the PlatformSpec registry — the one canonical construction path.

Three claims are load-bearing:

* every named preset builds a platform **bitwise identical** (same
  ``platform_hash``) to the legacy factory call it replaced — the API
  redesign changed the addressing scheme, not the physics;
* specs round-trip JSON ⇄ object ⇄ cache key, including across a process
  restart, so journals and the on-disk schedule cache stay valid;
* sweep-derived copies (``with_t_max`` / ``with_ladder``) carry specs
  whose rebuild reproduces the copy's physics — no silent cache-key
  drift mid-sweep.
"""

import json
import subprocess
import sys
import warnings
from pathlib import Path

import pytest

from repro.api import load_platform
from repro.errors import ConfigurationError
from repro.platform import paper_platform, platform_3d
from repro.platforms import (
    FAMILIES,
    PlatformSpec,
    build_platform,
    get_family,
    get_preset,
    platform_names,
    preset_on_axes,
)
from repro.power import big_little_power_model
from repro.scaling.generator import tech_platform
from repro.scaling.tables import CORE_STYLES, TECH_NODES
from repro.service import platform_hash, schedule_cache_key

SRC_DIR = Path(__file__).resolve().parents[1] / "src"


def _legacy_build(name: str):
    """The pre-registry factory call each preset replaced."""
    if name in ("paper", "paper3"):
        return paper_platform(3)
    if name == "big_little":
        return paper_platform(
            3, power=big_little_power_model(big_cores=[0], n_cores=3)
        )
    if name == "stack3d":
        return platform_3d(3, 2, 2)
    node, style = name.removeprefix("tech-").rsplit("-", 1)
    return tech_platform(node=int(node), style=style)


class TestPresetParity:
    @pytest.mark.parametrize("name", platform_names())
    def test_preset_matches_legacy_factory(self, name):
        spec, _description = get_preset(name)
        assert platform_hash(spec.build()) == platform_hash(_legacy_build(name))

    def test_preset_count_covers_tech_grid(self):
        expected = 4 + len(TECH_NODES) * len(CORE_STYLES)
        assert len(platform_names()) == expected

    def test_build_stamps_spec(self):
        spec = PlatformSpec.named("tech-16-io")
        assert spec.build().spec == spec

    def test_legacy_flat_dict_coerces_to_paper(self):
        doc = {"n_cores": 2, "n_levels": 2, "t_max_c": 65.0}
        built = build_platform(doc)
        assert platform_hash(built) == platform_hash(
            paper_platform(2, n_levels=2, t_max_c=65.0)
        )
        assert built.spec.family == "paper"


class TestRoundTrip:
    CASES = (
        PlatformSpec("paper"),
        PlatformSpec("paper", {"n_cores": 2, "t_max_c": 65.0}),
        PlatformSpec("big_little", {"big_cores": (0, 2), "n_cores": 4}),
        PlatformSpec("stack3d", {"n_layers": 2, "g_interlayer": 1.5}),
        PlatformSpec("tech", {"node": 16, "style": "o3", "stack_layers": 2}),
    )

    @pytest.mark.parametrize("spec", CASES, ids=lambda s: s.family)
    def test_json_object_roundtrip(self, spec):
        wire = json.loads(json.dumps(spec.as_dict()))
        assert PlatformSpec.from_dict(wire) == spec
        assert PlatformSpec.from_dict(wire).canonical() == spec.canonical()

    def test_canonical_insensitive_to_input_form(self):
        a = PlatformSpec("tech", {"style": "io", "node": 16})
        b = PlatformSpec("tech", {"node": 16, "style": "io"})
        c = PlatformSpec("tech", (("node", 16), ("style", "io")))
        assert a == b == c
        assert a.canonical() == b.canonical() == c.canonical()

    def test_list_values_canonicalized_to_tuples(self):
        a = PlatformSpec("big_little", {"big_cores": [0, 1]})
        b = PlatformSpec("big_little", {"big_cores": (0, 1)})
        assert a == b

    def test_cache_key_stable_across_process_restart(self):
        """A fresh interpreter must derive the same platform hash and
        schedule-cache key from the same spec document."""
        spec = PlatformSpec("tech", {"node": 22, "style": "io", "n_cores": 4})
        doc_json = json.dumps(spec.as_dict())
        code = (
            "import json, sys\n"
            "from repro.platforms import PlatformSpec\n"
            "from repro.service import platform_hash, schedule_cache_key\n"
            f"spec = PlatformSpec.from_dict(json.loads({doc_json!r}))\n"
            "phash = platform_hash(spec.build())\n"
            "print(phash)\n"
            "print(schedule_cache_key(phash, 'AO', {'m_cap': 8}, 0.05))\n"
        )
        proc = subprocess.run(
            [sys.executable, "-c", code],
            env={"PYTHONPATH": str(SRC_DIR), "PATH": "/usr/bin:/bin"},
            capture_output=True,
            text=True,
        )
        assert proc.returncode == 0, proc.stderr
        phash_line, key_line = proc.stdout.split()
        phash = platform_hash(spec.build())
        assert phash_line == phash
        assert key_line == schedule_cache_key(phash, "AO", {"m_cap": 8}, 0.05)

    def test_platform_hash_coerces_spec_forms(self):
        built = platform_hash(PlatformSpec.named("tech-16-io").build())
        assert platform_hash("tech-16-io") == built
        assert platform_hash({"family": "tech",
                              "overrides": {"node": 16, "style": "io"}}) == built


class TestSweepDerivedSpecs:
    def test_with_t_max_spec_rebuilds_identically(self):
        p = PlatformSpec.named("tech-16-io").build()
        q = p.with_t_max(70.0)
        assert q.spec is not None
        assert platform_hash(q.spec.build()) == platform_hash(q)

    def test_with_ladder_spec_rebuilds_identically(self):
        from repro.power.dvfs import VoltageLadder

        p = PlatformSpec.named("paper").build()
        q = p.with_ladder(VoltageLadder((p.ladder.levels[0], p.ladder.levels[-1])))
        assert q.spec is not None
        assert platform_hash(q.spec.build()) == platform_hash(q)

    def test_specless_platform_copies_stay_specless(self):
        p = paper_platform(2)
        assert p.spec is None and p.with_t_max(60.0).spec is None

    def test_preset_on_axes_drops_axes_the_family_lacks(self):
        axes = {"n_cores": 4, "n_levels": 3, "t_max_c": 60.0, "tau": 1e-5}
        assert preset_on_axes("stack3d", **axes) == PlatformSpec.named(
            "stack3d", n_levels=3, t_max_c=60.0, tau=1e-5
        )
        assert preset_on_axes("tech-16-io", **axes) == PlatformSpec.named(
            "tech-16-io", **axes
        )


class TestCoercionAndErrors:
    def test_coerce_forms_agree(self):
        by_name = PlatformSpec.coerce("paper")
        by_none = PlatformSpec.coerce(None)
        by_doc = PlatformSpec.coerce({"family": "paper"})
        by_named_doc = PlatformSpec.coerce({"name": "paper"})
        assert by_name == by_none == by_doc == by_named_doc

    def test_unknown_family_rejected(self):
        with pytest.raises(ConfigurationError, match="unknown platform family"):
            PlatformSpec("7nm_finfet")

    def test_unknown_override_rejected_with_valid_list(self):
        with pytest.raises(ConfigurationError, match="does not accept"):
            PlatformSpec("paper", {"node": 16})

    def test_unknown_preset_lists_known_names(self):
        with pytest.raises(ConfigurationError, match="tech-16-io"):
            PlatformSpec.named("tech-16")

    def test_object_override_rejected(self):
        with pytest.raises(ConfigurationError, match="JSON scalars"):
            PlatformSpec("paper", {"tau": object()})

    def test_family_params_all_declared(self):
        for family in FAMILIES.values():
            assert "ladder_levels" in family.params, family.name
        assert get_family("tech").params == FAMILIES["tech"].params


class TestLoadPlatformShim:
    def test_blessed_forms_do_not_warn(self):
        with warnings.catch_warnings():
            warnings.simplefilter("error", DeprecationWarning)
            load_platform("paper", t_max_c=65.0)
            load_platform(PlatformSpec("tech", {"node": 16, "style": "io"}))
            load_platform({"family": "paper", "overrides": {"n_cores": 2}})
            load_platform()

    def test_legacy_kwargs_warn_but_match(self):
        # Bare overrides build the paper preset, with no warning.
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            legacy = load_platform(n_cores=2, n_levels=2, t_max_c=65.0)
        blessed = load_platform("paper", n_cores=2, n_levels=2, t_max_c=65.0)
        assert platform_hash(legacy) == platform_hash(blessed)

    def test_legacy_flat_dict_warns_but_matches(self):
        # A flat overrides dict builds the paper preset, with no warning.
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            legacy = load_platform({"n_cores": 2, "n_levels": 2})
        assert platform_hash(legacy) == platform_hash(
            load_platform("paper", n_cores=2, n_levels=2)
        )

    def test_object_overrides_rejected(self):
        # Overrides must be spec scalars; objects no longer fall back to
        # a direct paper_platform() call.
        power = big_little_power_model(big_cores=[0], n_cores=2)
        with pytest.raises(ConfigurationError):
            load_platform(n_cores=2, power=power)
