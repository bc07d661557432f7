"""Tests for snapshot-ID arithmetic with wraparound."""

import pytest
from hypothesis import given, strategies as st

from repro.core.ids import IdSpace


class TestUnbounded:
    def test_wrap_is_identity(self):
        ids = IdSpace(None)
        assert ids.wrap(12345) == 12345

    def test_cmp_is_plain_comparison(self):
        ids = IdSpace(None)
        assert ids.cmp(3, 5) == -1
        assert ids.cmp(5, 5) == 0
        assert ids.cmp(9, 5) == 1

    def test_unwrap_is_identity(self):
        ids = IdSpace(None)
        assert ids.unwrap_onto(7, 1000) == 7

    def test_window_effectively_unbounded(self):
        assert IdSpace(None).window > 10**18


class TestWrapped:
    def test_min_max_sid(self):
        with pytest.raises(ValueError):
            IdSpace(2)
        IdSpace(3)  # smallest valid

    def test_wrap(self):
        ids = IdSpace(7)  # size 8
        assert ids.wrap(0) == 0
        assert ids.wrap(7) == 7
        assert ids.wrap(8) == 0
        assert ids.wrap(19) == 3

    def test_negative_epoch_rejected(self):
        with pytest.raises(ValueError):
            IdSpace(7).wrap(-1)

    def test_cmp_without_rollover(self):
        ids = IdSpace(7)
        assert ids.cmp(2, 1) == 1
        assert ids.cmp(1, 2) == -1
        assert ids.cmp(4, 4) == 0

    def test_cmp_across_rollover(self):
        ids = IdSpace(7)  # window 3
        # Epoch 8 wraps to 0 and follows epoch 7.
        assert ids.cmp(0, 7) == 1
        assert ids.cmp(7, 0) == -1
        assert ids.cmp(1, 6) == 1  # 9 vs 6

    def test_cmp_out_of_range_rejected(self):
        ids = IdSpace(7)
        with pytest.raises(ValueError):
            ids.cmp(8, 0)

    def test_succ_wraps(self):
        ids = IdSpace(7)
        assert ids.wrap(6 + 1) == 7
        assert ids.wrap(7 + 1) == 0
        assert ids.cmp(0, 7) == 1  # the successor of 7 is still ahead

    def test_forward_distance(self):
        # How far ahead of a reference a wrapped ID lands.
        ids = IdSpace(7)
        assert ids.unwrap_onto(5, 3) - 3 == 2
        assert ids.unwrap_onto(1, 6) - 6 == 3
        assert ids.unwrap_onto(4, 4) - 4 == 0

    def test_unwrap_onto_forward(self):
        ids = IdSpace(7)
        # Reference epoch 13 (wraps to 5); wrapped 6 -> 14.
        assert ids.unwrap_onto(6, 13) == 14

    def test_unwrap_onto_backward(self):
        ids = IdSpace(7)
        # Reference 13 (5); wrapped 4 -> nearest is 12.
        assert ids.unwrap_onto(4, 13) == 12

    def test_unwrap_never_negative(self):
        ids = IdSpace(7)
        assert ids.unwrap_onto(7, 0) >= 0


class TestWrappedProperties:
    @given(st.integers(min_value=3, max_value=1000),
           st.integers(min_value=0, max_value=10**6))
    def test_property_wrap_within_range(self, max_sid, epoch):
        ids = IdSpace(max_sid)
        assert 0 <= ids.wrap(epoch) <= max_sid

    @given(st.integers(min_value=3, max_value=255),
           st.integers(min_value=0, max_value=10**6),
           st.integers(min_value=0, max_value=10**6))
    def test_property_cmp_matches_truth_within_window(self, max_sid, a, b):
        ids = IdSpace(max_sid)
        if abs(a - b) > ids.window:
            return  # outside the guarantee
        expected = (a > b) - (a < b)
        assert ids.cmp(ids.wrap(a), ids.wrap(b)) == expected

    @given(st.integers(min_value=3, max_value=255),
           st.integers(min_value=0, max_value=10**6),
           st.integers(min_value=-100, max_value=100))
    def test_property_unwrap_recovers_epoch_within_window(self, max_sid,
                                                          reference, delta):
        ids = IdSpace(max_sid)
        true_epoch = reference + delta
        if true_epoch < 0 or abs(delta) > ids.window:
            return
        assert ids.unwrap_onto(ids.wrap(true_epoch), reference) == true_epoch

    @given(st.integers(min_value=3, max_value=255),
           st.integers(min_value=0, max_value=10**6))
    def test_property_succ_agrees_with_unwrapped_increment(self, max_sid, a):
        ids = IdSpace(max_sid)
        assert ids.unwrap_onto(ids.wrap(a + 1), a) == a + 1
        assert ids.cmp(ids.wrap(a + 1), ids.wrap(a)) == 1


def _unwrap_onto_three_candidates(max_sid, wrapped, reference):
    """``IdSpace.unwrap_onto`` as it was before the closed form: build the
    three nearest members of the congruence class, take the closest, the
    smaller on a tie.  Kept here as the oracle."""
    if max_sid is None:
        return wrapped
    if not 0 <= wrapped <= max_sid:
        raise ValueError(f"wrapped ID {wrapped} out of range [0, {max_sid}]")
    size = max_sid + 1
    base = reference - (reference % size) + wrapped
    candidates = (base - size, base, base + size)
    best = min(candidates, key=lambda c: (abs(c - reference), c))
    return max(best, 0)


class TestUnwrapClosedForm:
    @pytest.mark.parametrize("max_sid", [*range(3, 17), 255])
    def test_equals_three_candidate_form_over_three_laps(self, max_sid):
        ids = IdSpace(max_sid)
        for reference in range(3 * (max_sid + 1) + 1):
            for wrapped in range(max_sid + 1):
                assert (ids.unwrap_onto(wrapped, reference)
                        == _unwrap_onto_three_candidates(max_sid, wrapped,
                                                         reference)), \
                    (wrapped, reference)

    @given(st.integers(min_value=0, max_value=65535),
           st.integers(min_value=0, max_value=2**40))
    def test_property_equals_three_candidate_form_16_bit(self, wrapped,
                                                         reference):
        assert (IdSpace(65535).unwrap_onto(wrapped, reference)
                == _unwrap_onto_three_candidates(65535, wrapped, reference))

    @given(st.integers(min_value=0, max_value=2**40),
           st.integers(min_value=0, max_value=2**40))
    def test_property_unbounded_is_identity(self, wrapped, reference):
        assert IdSpace(None).unwrap_onto(wrapped, reference) == wrapped

    @pytest.mark.parametrize("wrapped", [-1, 8, 2**20])
    def test_out_of_range_still_rejected(self, wrapped):
        with pytest.raises(ValueError):
            IdSpace(7).unwrap_onto(wrapped, 100)
        with pytest.raises(ValueError):
            _unwrap_onto_three_candidates(7, wrapped, 100)
