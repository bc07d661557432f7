"""One measurement path per sharded experiment.

``scaling``, ``recovery`` and ``updates`` each run every trial through
``ShardRunner`` with one ``setup``; ``shards=1`` is the plain run.  The
digests below are the canonical-JSON sha256 of one cheap
``TrialResult.data`` per experiment and shard count, recorded while each
experiment still kept a separate single-process trial function — the
merge of the two paths must not move a byte at either shard count.
"""

import hashlib

import pytest

from repro.experiments import recovery, scaling, updates
from repro.faults import IndependentFaults
from repro.runtime import canonical_json, execute_spec
from repro.sim.engine import US


def _scaling(shards):
    return scaling.specs(scaling.ScalingConfig(
        arities=[4], snapshots=8, shards=shards))[0]


def _recovery(shards):
    config = recovery.RecoveryConfig(rounds=6, shards=shards)
    config.policies = config.policies[:1]
    return next(spec for spec in recovery.specs(config)
                if spec.label == "recovery/paper-default/iid-0.5")


def _updates(shards, strategy="timed", profile=None):
    return updates.specs(updates.UpdatesConfig(
        clock_error_ns=[0], strategies=[strategy], gap_ns=100 * US,
        audit=False, shards=shards, profile=profile))[0]


PINNED = {
    (_scaling, 1):
        "bcdc52a38af1d3488ea0abfcdf52a7d9298240494ce71e3e0af0033902bf6d67",
    (_scaling, 2):
        "e5005eccd7fe03db100820dd285138461290d3489c3ee5892faa1e22f7de62b6",
    # Re-recorded with the overlapping-fault-window fix: this profile
    # downs leaf1-spine0 twice around 31.56 ms and the link used to come
    # up when the inner window closed (median TTC 3 534 186 -> 4 321 558
    # ns; every other field, and the two-shard digest, unchanged).
    (_recovery, 1):
        "7027784d2a827f585927e46e93791af3de873c843650fafbd674bc61a63d865d",
    (_recovery, 2):
        "c8401216ddbca8c775d5f053817f3a2a06973248482137d2236562fb08ffedaf",
    (_updates, 1):
        "8960eaa564720a42e7f376643a0be03294d29247b7c9f29233df7fc08a24835e",
    (_updates, 2):
        "5f3a8ddd27820eec628d722e541a453e2f19b778889f00f89067a438139926d0",
}


@pytest.mark.parametrize("make_spec,shards", sorted(
    PINNED, key=lambda cell: (cell[0].__name__, cell[1])))
def test_trial_data_is_pinned_at_one_and_two_shards(make_spec, shards):
    data = execute_spec(make_spec(shards)).data
    digest = hashlib.sha256(canonical_json(data).encode()).hexdigest()
    assert digest == PINNED[(make_spec, shards)]


def test_updates_shard_count_is_in_the_config_and_the_fingerprint():
    spec = _updates(2)
    assert spec.config(updates.UpdatesConfig).shards == 2
    assert spec.fingerprint() != _updates(1).fingerprint()


def test_sharded_updates_arm_the_fault_schedule():
    """``updates --fault-profile ... --shards 2`` used to drop the fault
    schedule on the floor and report ``faults_applied: 0`` beside an
    unfaulted verdict row."""
    profile = IndependentFaults(
        intensity=0.25, kinds=("link_delay", "cp_slow")).to_jsonable()
    single = execute_spec(_updates(1, "twophase", profile)).data
    double = execute_spec(_updates(2, "twophase", profile)).data
    assert single["faults_applied"] > 0
    # Every shard applies its slice; a cut link is armed on both sides.
    assert double["faults_applied"] >= single["faults_applied"]
    assert double["loop_drops"] == 0 and double["blackhole_drops"] == 0
    assert double["conclusive_waves"] == double["total_waves"]
