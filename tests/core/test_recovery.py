"""Tests for RecoveryPolicy: the §6 liveness knobs as one spec."""

import pytest

from repro.core import (RECOVERY_PRESETS, AggregationConfig, RecoveryPolicy,
                        deploy)
from repro.core.control_plane import ControlPlaneConfig
from repro.core.observer import ObserverConfig
from repro.sim.engine import MS, US
from repro.sim.network import Network, NetworkConfig
from tests.conftest import linear


class TestRecoveryPolicy:
    def test_default_is_paper_neutral(self):
        """RecoveryPolicy() overlays must reproduce the stock configs —
        the policy layer is behaviourally invisible until tuned."""
        policy = RecoveryPolicy()
        assert policy.control_plane_config() == ControlPlaneConfig()
        assert policy.observer_config() == ObserverConfig()

    def test_json_round_trip(self):
        for policy in RECOVERY_PRESETS.values():
            assert RecoveryPolicy.from_jsonable(policy.to_jsonable()) == policy

    def test_validation(self):
        with pytest.raises(ValueError, match="probe_delay_ns"):
            RecoveryPolicy(probe_delay_ns=-1)
        with pytest.raises(ValueError, match="max_retries"):
            RecoveryPolicy(max_retries=-1)
        with pytest.raises(ValueError, match="retry_timeout_ns"):
            RecoveryPolicy(retry_timeout_ns=0)

    @pytest.mark.parametrize("config, field, value", [
        # Each of these once switched collection off silently, spent
        # every retry at the initiation instant, or failed late at the
        # first notification with no field named.
        (ObserverConfig, "retry_timeout_ns", 0),
        (ControlPlaneConfig, "notification_transport", "pigeon"),
        # The policy validates by building both configs.
        (RecoveryPolicy, "device_timeout_ns", -1),
        (AggregationConfig, "degree", -1),
    ])
    def test_each_config_names_its_bad_field(self, config, field, value):
        with pytest.raises(ValueError, match=field):
            config(**{field: value})

    def test_overlay_preserves_non_recovery_fields(self):
        policy = RECOVERY_PRESETS["eager"]
        base_cp = ControlPlaneConfig(notification_service_ns=99 * US,
                                     notification_transport="digest")
        cp = policy.control_plane_config(base_cp)
        assert cp.notification_service_ns == 99 * US
        assert cp.notification_transport == "digest"
        assert cp.reinitiation_timeout_ns == policy.reinitiation_timeout_ns
        assert cp.register_poll_interval_ns == policy.register_poll_interval_ns

        base_obs = ObserverConfig(lead_time_ns=9 * MS)
        obs = policy.observer_config(base_obs)
        assert obs.lead_time_ns == 9 * MS
        assert obs.retry_timeout_ns == policy.retry_timeout_ns
        assert obs.device_timeout_ns == policy.device_timeout_ns

    def test_presets_named_consistently(self):
        for name, policy in RECOVERY_PRESETS.items():
            assert policy.name == name


class TestDeploymentThreading:
    def _deploy(self, policy=None):
        """A policy is applied by passing the two configs it builds."""
        network = Network(linear(num_switches=2, hosts_per_switch=1),
                          NetworkConfig(seed=1))
        configs = {} if policy is None else {
            "control_plane": policy.control_plane_config(),
            "observer": policy.observer_config()}
        return network, deploy(network, metric="packet_count", **configs)

    def test_policy_threads_into_both_configs(self):
        policy = RECOVERY_PRESETS["eager"]
        _, deployment = self._deploy(policy)
        assert (deployment.config.control_plane
                == policy.control_plane_config(ControlPlaneConfig()))
        assert (deployment.config.observer
                == policy.observer_config(ObserverConfig()))
        for cp in deployment.control_planes.values():
            assert (cp.config.reinitiation_timeout_ns
                    == policy.reinitiation_timeout_ns)
        assert (deployment.observer.config.retry_timeout_ns
                == policy.retry_timeout_ns)

    def test_no_policy_leaves_configs_untouched(self):
        _, deployment = self._deploy()
        assert deployment.config.control_plane == ControlPlaneConfig()
        assert deployment.config.observer == ObserverConfig()

    def test_register_polls_only_when_enabled(self):
        rounds, interval = 2, 5 * MS
        horizon = rounds * interval + 120 * MS

        network, silent = self._deploy(RecoveryPolicy())
        silent.schedule_campaign(rounds, interval)
        network.run(until=horizon)
        assert all(cp.polls_performed == 0
                   for cp in silent.control_planes.values())

        network, polling = self._deploy(RECOVERY_PRESETS["polling"])
        polling.schedule_campaign(rounds, interval)
        network.run(until=horizon)
        assert any(cp.polls_performed > 0
                   for cp in polling.control_planes.values())

    def test_device_timeout_gates_exclusion(self):
        """A silent device is excluded only after the policy's device
        timeout — the grace period keeps slow devices in the epoch."""
        def run_with(policy, until_ns):
            network, deployment = self._deploy(policy)
            # sw1's CPU never hears from its ASIC: it will never ship.
            network.switch("sw1").notification_sink = lambda n: None
            epoch = deployment.take_snapshot()
            network.run(until=until_ns)
            return deployment.observer.snapshot(epoch)

        impatient = RecoveryPolicy(name="fast-exclude",
                                   retry_timeout_ns=10 * MS, max_retries=1,
                                   device_timeout_ns=30 * MS)
        assert "sw1" in run_with(impatient, 200 * MS).excluded_devices

        patient = RecoveryPolicy(name="slow-exclude",
                                 retry_timeout_ns=10 * MS, max_retries=1,
                                 device_timeout_ns=500 * MS)
        # Same wall-clock horizon: retries are long exhausted, but the
        # patient policy's grace period is still running.
        assert "sw1" not in run_with(patient, 200 * MS).excluded_devices
        # Once the grace elapses, the device is excluded after all.
        assert "sw1" in run_with(patient, 700 * MS).excluded_devices
