"""On-disk result cache: hits, version invalidation, atomicity."""

import pytest

from repro.runtime import TrialCache, TrialSpec, code_version, make_result


def _result(x=1):
    spec = TrialSpec(kind="k", settings={"x": x, "seed": 5}, label=f"k/{x}")
    return spec, make_result(spec, {"value": x * 10})


class TestCache:
    def test_roundtrip(self, tmp_path):
        cache = TrialCache(tmp_path / "c", version="v1")
        spec, result = _result()
        assert cache.get(spec.fingerprint()) is None
        cache.put(result)
        hit = cache.get(spec.fingerprint())
        assert hit is not None
        assert hit.to_json() == result.to_json()
        assert len(cache) == 1

    def test_spec_change_is_a_miss(self, tmp_path):
        cache = TrialCache(tmp_path / "c", version="v1")
        _, result = _result(x=1)
        cache.put(result)
        changed_spec, _ = _result(x=2)
        assert cache.get(changed_spec.fingerprint()) is None

    def test_code_version_mismatch_is_a_miss(self, tmp_path):
        spec, result = _result()
        TrialCache(tmp_path / "c", version="v1").put(result)
        assert TrialCache(tmp_path / "c",
                          version="v2").get(spec.fingerprint()) is None
        # Same version still hits.
        assert TrialCache(tmp_path / "c",
                          version="v1").get(spec.fingerprint()) is not None

    @pytest.mark.parametrize("text", ["{not json", "[]", "null"],
                             ids=["truncated", "list", "null"])
    def test_corrupt_entry_is_a_miss(self, tmp_path, text):
        cache = TrialCache(tmp_path / "c", version="v1")
        spec, result = _result()
        cache.put(result)
        cache._path(spec.fingerprint()).write_text(text)
        assert cache.get(spec.fingerprint()) is None

    def test_overwrite_replaces_entry(self, tmp_path):
        cache = TrialCache(tmp_path / "c", version="v1")
        spec, result = _result()
        cache.put(result)
        cache.put(result)
        assert len(cache) == 1

    def test_default_version_is_code_hash(self, tmp_path):
        cache = TrialCache(tmp_path / "c")
        assert cache.version == code_version()
        assert len(code_version()) == 64
