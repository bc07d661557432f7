"""TrialSpec canonicalization, fingerprints, the config round trip,
and seed derivation."""

import numpy as np
import pytest

from repro.experiments.fig11 import Fig11Config
from repro.experiments.fig12 import Fig12Config
from repro.experiments.scaling import ScalingConfig
from repro.runtime import (TrialSpec, canonical, canonical_json, derive_seed,
                           make_result)
from repro.sim.clock import PTPConfig


def _scaling(**fields):
    return TrialSpec.of("scaling", ScalingConfig(**fields), "scaling")


class TestCanonical:
    def test_tuples_become_lists(self):
        assert canonical((1, 2, (3, 4))) == [1, 2, [3, 4]]

    def test_numpy_scalars_coerce_to_python(self):
        doc = canonical({"a": np.int64(3), "b": np.float64(0.5)})
        assert doc == {"a": 3, "b": 0.5}
        assert type(doc["a"]) is int
        assert type(doc["b"]) is float

    def test_non_json_values_rejected(self):
        with pytest.raises(TypeError):
            canonical({"obj": object()})

    def test_non_string_keys_rejected(self):
        with pytest.raises(TypeError):
            canonical({1: "a"})

    @pytest.mark.parametrize("bad", [float("nan"), float("inf"),
                                     -float("inf"), np.float64("nan")])
    def test_non_finite_floats_rejected_by_key_path(self, bad: float) -> None:
        # A NaN used to construct, and fingerprint() then raised an
        # unnamed "Out of range float values" error.
        path = r"^TrialSpec\.settings\['interval_ns'\] must be a finite number"
        with pytest.raises(ValueError, match=path):
            TrialSpec(kind="fig12", settings={"interval_ns": bad})
        with pytest.raises(ValueError, match=r"^value\['a'\]\[1\] must be "):
            canonical({"a": [0.5, bad]})

    def test_json_is_key_order_independent(self):
        assert canonical_json({"b": 1, "a": 2}) == \
            canonical_json({"a": 2, "b": 1})


class TestFingerprint:
    def test_label_does_not_affect_fingerprint(self):
        a = TrialSpec(kind="k", settings={"x": 1}, label="one")
        b = TrialSpec(kind="k", settings={"x": 1}, label="two")
        assert a.fingerprint() == b.fingerprint()

    def test_params_order_does_not_affect_fingerprint(self):
        a = TrialSpec(kind="k", settings={"x": 1, "y": 2}, point={"p": 1})
        b = TrialSpec(kind="k", settings={"y": 2, "x": 1}, point={"p": 1})
        assert a.fingerprint() == b.fingerprint()

    @pytest.mark.parametrize("other", [
        TrialSpec(kind="k2", settings={"x": 1, "seed": 7}),
        TrialSpec(kind="k", settings={"x": 2, "seed": 7}),
        TrialSpec(kind="k", settings={"x": 1, "seed": 8}),
        TrialSpec(kind="k", settings={"x": 1, "seed": 7}, point={"p": 1}),
    ])
    def test_kind_params_seed_all_fingerprinted(self, other):
        """Kind, config (the seed is one of its fields) and point."""
        base = TrialSpec(kind="k", settings={"x": 1, "seed": 7})
        assert base.fingerprint() != other.fingerprint()

    def test_default_shards_leaves_fingerprint_unchanged(self):
        assert _scaling().fingerprint() == _scaling(shards=1).fingerprint()

    def test_shard_count_is_fingerprinted(self):
        assert _scaling().fingerprint() != _scaling(shards=2).fingerprint()

    def test_shards_must_be_positive(self):
        with pytest.raises(ValueError, match=r"^ScalingConfig\.shards "):
            _scaling(shards=0)

    def test_default_agg_degree_leaves_fingerprint_unchanged(self):
        assert (_scaling().fingerprint()
                == _scaling(agg_degree=None).fingerprint())

    def test_agg_degree_is_fingerprinted(self):
        assert len({_scaling().fingerprint(),
                    _scaling(agg_degree=0).fingerprint(),
                    _scaling(agg_degree=4).fingerprint()}) == 3

    def test_agg_degree_must_be_nonnegative(self):
        with pytest.raises(ValueError, match=r"^ScalingConfig\.agg_degree "):
            _scaling(agg_degree=-1)

    def test_fingerprint_is_stable_across_processes(self):
        # A hard-coded value: sha256 must not drift with interpreter
        # hash randomization (unlike hash()).
        spec = TrialSpec(kind="k", settings={"x": 1})
        assert spec.fingerprint() == spec.fingerprint()
        assert len(spec.fingerprint()) == 64
        assert int(spec.fingerprint(), 16) >= 0


class TestConfigRoundTrip:
    def test_nested_dataclass_and_sweep_narrowing(self):
        config = Fig11Config(router_counts=[10, 30], trials=3,
                             ptp=PTPConfig(residual_sigma_ns=2_000))
        spec = TrialSpec.of("fig11", config, "fig11/30r", router_counts=[30])
        rebuilt = spec.config(Fig11Config)
        assert isinstance(rebuilt.ptp, PTPConfig)
        assert rebuilt == Fig11Config(router_counts=[30], trials=3,
                                      ptp=config.ptp)

    def test_tuple_field(self):
        config = Fig12Config(rounds=3, workloads=("memcache", "graphx"))
        spec = TrialSpec.of("fig12", config, "fig12", workloads=["graphx"])
        assert spec.config(Fig12Config).workloads == ("graphx",)


class TestDeriveSeed:
    def test_deterministic(self):
        assert derive_seed(42, "fig11", 100) == derive_seed(42, "fig11", 100)

    def test_parts_change_seed(self):
        seeds = {derive_seed(42, "fig11", 100), derive_seed(42, "fig11", 101),
                 derive_seed(43, "fig11", 100), derive_seed(42, "fig12", 100)}
        assert len(seeds) == 4

    def test_non_negative_63_bit(self):
        s = derive_seed(0)
        assert 0 <= s < 2 ** 63


class TestMakeResult:
    def test_result_carries_spec_identity(self):
        spec = TrialSpec(kind="k", settings={"x": 1}, point={"p": 2},
                         label="lbl")
        result = make_result(spec, {"v": (1, 2)})
        assert result.fingerprint == spec.fingerprint()
        assert result.kind == "k"
        assert result.label == "lbl"
        assert (result.settings, result.point) == ({"x": 1}, {"p": 2})
        assert result.data == {"v": [1, 2]}  # canonicalized

    def test_json_roundtrip_is_byte_stable(self):
        from repro.runtime import TrialResult

        spec = TrialSpec(kind="k", settings={"x": 1}, point={"p": 2})
        result = make_result(spec, {"v": 3.5})
        text = result.to_json()
        assert TrialResult.from_json(text).to_json() == text
