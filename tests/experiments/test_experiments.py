"""Tests of the experiment harness (reduced sizes; the benchmarks run
the full configurations)."""

import pytest

from repro.experiments import (fig9, fig10, fig11, fig12, fig13, motivation,
                               table1)
from repro.experiments.ablations import (IdealVsSpeedlightConfig,
                                         InitiationConfig,
                                         TransportConfig,
                                         run_ideal_vs_speedlight,
                                         run_initiation_strategies,
                                         run_notification_transports)
from repro.experiments.campaigns import build_network
from repro.experiments.harness import TextTable
from repro.workloads.graphx import GraphXPageRankWorkload


class TestHarness:
    def test_text_table_alignment(self):
        table = TextTable(["a", "bbbb"])
        table.add("x", 1.5)
        table.add("longer", 2)
        out = table.render()
        lines = out.splitlines()
        assert lines[0].startswith("a")
        assert "1.50" in out and "longer" in out

    def test_text_table_cell_count_enforced(self):
        table = TextTable(["a", "b"])
        with pytest.raises(ValueError):
            table.add("only-one")


class TestTable1:
    def test_matches_paper_exactly(self):
        result = table1.run()
        for variant, expected in table1.PAPER_TABLE1.items():
            report = result.reports[variant]
            for attr, value in expected.items():
                assert getattr(report, attr) == pytest.approx(value)
        assert result.report_14port.sram_kb == pytest.approx(638, abs=1)
        assert "Table 1" in result.report()


class TestFig9:
    def test_quickened_shape(self):
        config = fig9.Fig9Config(rounds=12, rate_pps=60_000.0)
        result = fig9.run(config)
        # Snapshots synchronize orders of magnitude tighter than polling.
        assert result.sync_no_cs.median < 50_000          # < 50 us
        assert result.sync_cs.median < 1_000_000          # < 1 ms
        assert result.polling.median > 1_000_000          # > 1 ms
        assert result.sync_no_cs.median <= result.sync_cs.median
        assert "Figure 9" in result.report()


class TestFig10:
    def test_rate_scales_inversely_with_ports(self):
        config = fig10.Fig10Config(port_counts=[4, 64], burst=15,
                                   search_iterations=5)
        result = fig10.run(config)
        assert result.max_rate_hz[4] > 8 * result.max_rate_hz[64]
        assert result.max_rate_hz[64] > 40  # paper: >70 at full search depth
        assert "Figure 10" in result.report()

    # The knees are simulated outputs of the serial control-plane model,
    # so they are pinned by equality, like bench/reference.json's exact
    # stats: any model change moves them and must re-record them.
    @pytest.mark.parametrize("ports, burst, search_iterations, knee_hz", [
        (16, 25, 7, 295.11407293450105),
        (8, 15, 6, 638.6321513022225),
    ])
    def test_knee_is_pinned(self, ports, burst, search_iterations, knee_hz):
        config = fig10.Fig10Config(port_counts=[ports], burst=burst,
                                   search_iterations=search_iterations)
        assert fig10.run(config).max_rate_hz == {ports: knee_hz}

    def test_aggregation_knee_is_pinned(self):
        config = fig10.AggKneeConfig(arities=[4], degrees=[0, 4], burst=6,
                                     search_iterations=6)
        assert fig10.run_agg(config).max_rate_hz == {
            (4, 0): 57.7390992344729, (4, 4): 1369.209817132181}

    # A floor above the ceiling made _knee answer with the ceiling, a
    # rate below the floor, or a search of an inverted interval.
    @pytest.mark.parametrize("cls", [fig10.Fig10Config, fig10.AggKneeConfig])
    def test_a_floor_above_the_ceiling_is_refused(self, cls):
        name = cls.__name__
        with pytest.raises(ValueError, match=(
                rf"^{name}\.rate_floor_hz must be <= {name}\.rate_ceiling_hz "
                r"\(40\.0\), got 50\.0$")):
            cls(rate_floor_hz=50.0, rate_ceiling_hz=40.0)
        cls(rate_floor_hz=40.0, rate_ceiling_hz=40.0)  # a one-rate search
        cls()
        cls.quick()


class TestFig11:
    def test_sync_grows_slowly_and_stays_bounded(self):
        config = fig11.Fig11Config(router_counts=[10, 1000, 10000], trials=8)
        result = fig11.run(config)
        sync = result.avg_sync_ns
        assert sync[10] < sync[1000] < sync[10000]
        assert sync[10000] < 100_000  # the paper's <100 us bound
        assert "Figure 11" in result.report()

    def test_deterministic_given_seed(self):
        config = fig11.Fig11Config(router_counts=[100], trials=5)
        assert fig11.run(config).avg_sync_ns == fig11.run(config).avg_sync_ns


class TestFig12:
    def test_memcache_shapes(self):
        config = fig12.Fig12Config(rounds=12, workloads=("memcache",))
        result = fig12.run(config)
        snap_ecmp = result.median("memcache", "ecmp", "snapshots")
        snap_flowlet = result.median("memcache", "flowlet", "snapshots")
        poll_flowlet = result.median("memcache", "flowlet", "polling")
        assert snap_flowlet < snap_ecmp           # flowlets balance better
        assert poll_flowlet > snap_flowlet        # polling overestimates
        assert "memcache" in result.report()


class TestFig13:
    def test_ground_truths(self):
        result = fig13.run(fig13.Fig13Config(rounds=40))
        assert result.significant_fraction("snapshots") > \
            result.significant_fraction("polling")
        # Master port: at most noise-level correlations under snapshots.
        assert result.master_significant("snapshots") <= 1
        assert result.ecmp_pair_status("snapshots").count("positive") >= 1
        assert "Figure 13" in result.report()

    def test_the_audited_master_is_the_workloads(self):
        """The master port whose correlations fig13 counts is the access
        port of the one host GraphX leaves out of its exchanges."""
        config = fig13.Fig13Config.quick()
        master_port, _pairs = fig13._context(config)
        network = build_network(fig13._campaign_spec(config))
        workload = GraphXPageRankWorkload(network)
        (master,) = set(workload.hosts) - set(workload.workers)
        (leaf,) = [name for name in network.switches
                   if master in network.port_map[name]]
        assert master_port == f"{leaf}:{network.port_map[leaf][master]}"


class TestMotivation:
    def test_snapshots_separate_regimes_polling_does_not(self):
        result = motivation.run(motivation.MotivationConfig.quick())
        assert result.separation("snapshots") > 5
        assert result.separation("polling") < 3
        assert "Figure 1" in result.report()


class TestScaling:
    def test_protocol_scales_with_complete_coverage(self):
        from repro.experiments import scaling
        result = scaling.run(scaling.ScalingConfig.quick())
        for point in result.points.values():
            assert point.completed == point.expected
            assert point.sync.max < 100_000
        assert "fat-trees" in result.report()


class TestScalingWithProfile:
    def test_faulted_run_reports_inconsistent_fraction(self):
        from repro.experiments import scaling
        from repro.faults import IndependentFaults
        profile = IndependentFaults(
            intensity=0.5,
            kinds=("link_down", "link_loss", "cp_crash")).to_jsonable()
        config = scaling.ScalingConfig(arities=[4], snapshots=6,
                                       profile=profile)
        result = scaling.run(config)
        point = result.points[4]
        assert point.inconsistent_fraction is not None
        assert 0.0 <= point.inconsistent_fraction <= 1.0
        assert point.faults_applied > 0
        report = result.report()
        assert "Inconsistent" in report and "Faults" in report

    def test_clean_run_keeps_the_protocol_only_report(self):
        from repro.experiments import scaling
        result = scaling.run(scaling.ScalingConfig(arities=[4], snapshots=6))
        assert result.points[4].inconsistent_fraction is None
        assert "Inconsistent" not in result.report()


class TestFaultsExperiment:
    def test_correlated_scenario_degrades_epochs_with_attribution(self):
        from repro.experiments import faults
        result = faults.run(faults.FaultsConfig.correlated())
        assert set(result.rows) == {"profile-compose"}
        row = result.rows["profile-compose"]
        assert result.all_audits_ok
        assert row["epochs_faulted"] > 0
        assert row["epochs_degraded"] > 0
        report = result.report()
        assert "per-epoch attribution" in report
        assert "link_down" in report or "cp_crash" in report


class TestPartialDeploymentInvariance:
    def test_spine_faults_leave_flagged_epoch_counts_unchanged(self):
        # §10: Speedlight on the leaves only, chaos at the spines.  The
        # neighbor-exclusion rule keeps non-participants out of every
        # gating set, so spine failures must not flag a single epoch.
        from repro.experiments import faults
        inv = faults.partial_invariance()
        assert inv.ok, inv.report()
        faulted = inv.result.rows["iid-1"]
        assert faulted["faults_applied"] > 0  # the chaos really ran
        assert faulted["flagged"] == inv.baseline_flagged
        assert "unchanged" in inv.report()

    def test_partial_deployment_rides_in_the_fingerprint(self):
        from repro.experiments import faults
        partial = faults.FaultsConfig.partial_spine()
        full = faults.FaultsConfig(intensities=partial.intensities,
                                   rounds=partial.rounds,
                                   kinds=partial.kinds)
        partial_specs = faults.specs(partial)
        assert all(s.config(faults.FaultsConfig).deploy_switches
                   == ["leaf0", "leaf1"] for s in partial_specs)
        full_fps = {s.fingerprint() for s in faults.specs(full)}
        assert not full_fps & {s.fingerprint() for s in partial_specs}

    def test_baseline_intensity_is_required(self):
        from repro.experiments import faults
        config = faults.FaultsConfig.partial_spine()
        config.intensities = [0.5]
        with pytest.raises(ValueError, match="baseline"):
            faults.partial_invariance(config)


class TestRecoveryExperiment:
    def test_quick_frontier_spans_policies_and_profiles(self):
        from repro.experiments import recovery
        config = recovery.RecoveryConfig.quick()
        result = recovery.run(config)
        policies = {p for (p, _prof) in result.rows}
        profiles = {prof for (_p, prof) in result.rows}
        assert len(policies) >= 3 and len(profiles) >= 3
        assert len(result.rows) == len(policies) * len(profiles)
        for profile in profiles:
            frontier = result.frontier(profile)
            assert frontier, f"every profile has a Pareto frontier: {profile}"
            assert frontier <= policies
        for row in result.rows.values():
            assert 0.0 <= row["usable_rate"] <= row["completion_rate"] <= 1.0
            assert row["overhead_per_epoch"] >= 0.0
        report = result.report()
        assert "Frontier" in report and "*" in report

    def test_clean_profile_is_cheap_and_complete(self):
        from repro.experiments import recovery
        config = recovery.RecoveryConfig.quick()
        result = recovery.run(config)
        for (policy, profile), row in result.rows.items():
            if profile == "clean":
                assert row["completion_rate"] == 1.0
                assert row["faults_applied"] == 0


class TestAblations:
    def test_ideal_absorbs_skips_speedlight_marks(self):
        result = run_ideal_vs_speedlight(IdealVsSpeedlightConfig.quick())
        speed = result.outcomes["speedlight"]
        ideal = result.outcomes["ideal"]
        assert ideal["complete"] > 0
        assert ideal["consistent"] == ideal["complete"]
        assert speed["consistent"] < speed["complete"]
        assert "Ablation" in result.report()

    def test_multi_initiator_beats_single(self):
        result = run_initiation_strategies(InitiationConfig(snapshots=8))
        assert result.sync_multi.median * 50 < result.sync_single.median
        assert "initiation" in result.report()

    def test_transport_tradeoff(self):
        result = run_notification_transports(TransportConfig.quick())
        assert result.max_rate_hz["digest"] >= result.max_rate_hz["socket"]
        assert result.completion_ns["digest"] > result.completion_ns["socket"]
        assert "transport" in result.report()
