"""Benchmark: regenerate Figure 10 (max snapshot rate vs. port count).

Paper targets: rate falls inversely with port count; >70 Hz sustained at
64 ports (a full linecard), ~1 kHz at 4 ports.
"""

from repro.experiments import fig10


def test_fig10(benchmark, report_sink, trial_runner):
    config = fig10.Fig10Config(port_counts=[4, 8, 16, 32, 64], burst=25,
                               search_iterations=8)
    result = benchmark.pedantic(fig10.run, args=(config,),
                                kwargs={"runner": trial_runner}, rounds=1,
                                iterations=1)
    report_sink(result.report())
    rates = result.max_rate_hz
    # Inverse scaling in port count (each doubling roughly halves rate).
    assert rates[4] > rates[8] > rates[16] > rates[32] > rates[64]
    assert rates[64] > 60          # paper: >70 Hz at a full linecard
    assert rates[4] > 900          # paper: ~1.1 kHz at 4 ports
    assert 6 < rates[4] / rates[32] < 12


def test_fig10_agg_tree_over_flat_floor(benchmark, report_sink, trial_runner):
    """The headline aggregation knee: fat-tree k=8 (1280 units), flat
    observer intake vs. the degree-4 tree (docs/AGGREGATION.md)."""
    config = fig10.AggKneeConfig(arities=[8], degrees=[0, 4], burst=10,
                                 search_iterations=6)
    result = benchmark.pedantic(fig10.run_agg, args=(config,),
                                kwargs={"runner": trial_runner}, rounds=1,
                                iterations=1)
    report_sink(result.report())
    # Recorded: 577.4 Hz through the tree vs. 5.8 Hz flat.
    assert result.speedup(8, 4) >= 3
