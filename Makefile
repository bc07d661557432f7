# Convenience targets for the Speedlight reproduction.

PYTHON ?= python
# Worker processes for the trial runner (make figures JOBS=4).
JOBS ?= 1
# Experiment profiled by `make profile` (any name from `experiments --list`).
PROFILE_EXP ?= fig10

.PHONY: install test lint statics typecheck static-checks \
        bench bench-smoke bench-experiments fused-diff-deep jobs-diff-deep \
        matrix-deep store-diff-deep draw-diff-deep intake-diff-deep \
        config-fuzz-deep route-diff-deep contracts \
        chaos-smoke profile figures experiments examples \
        quick-experiments clean

install:
	$(PYTHON) setup.py develop

test:
	$(PYTHON) -m pytest tests/

lint:
	ruff check src tests benchmarks examples

# Determinism & simulation-invariant static analysis (docs/DETERMINISM.md).
# Exits non-zero on any unsuppressed finding; CI gates on this.  The
# second line keeps the ordering rules pragma-free over what crosses a
# shard or service boundary (the sharded actor packages, the serial
# server the relay and the service share, the service, the update
# verifier, the spec kernel and the metric table) and over the modules
# that own unit order and resolution order (the analysis package, the
# unit name, snapshot assembly, the observer): there DET003/DET004 may
# not be relaxed at all, not even with a reasoned pragma.
statics:
	$(PYTHON) -m repro statics src tests
	$(PYTHON) -m repro statics --rules DET003,DET004 --forbid-pragmas \
	    src/repro/sim/shard.py src/repro/core/sharded.py \
	    src/repro/core/deployment.py src/repro/core/builder.py \
	    src/repro/core/aggregation.py src/repro/sim/server.py \
	    src/repro/service src/repro/updates src/repro/specs.py \
	    src/repro/counters src/repro/analysis src/repro/sim/switch.py \
	    src/repro/core/snapshot.py src/repro/core/observer.py

typecheck:
	mypy

# Everything the CI static-checks job runs (statics + types + lint).
static-checks: statics typecheck lint

# The repo benchmark (BENCHMARK.json, bench/README.md): every workload,
# each rep in a fresh subprocess, then one traced rep per workload for
# the per-layer ledger; exits non-zero on any output mismatch.
bench:
	$(PYTHON) bench/run.py

# The repo benchmark's own checks (bench/README.md), CI-sized: its
# harness tests, one short untraced service_ingest rep and one short
# traced rep each of service_query, sharded_fabric (the cross-shard
# deployment wiring is what the sharded ledger wraps), fabric_forward
# (the packet-path span points, on the fused path) and snapshot_storm
# (the only workload on which the aggregation span points — the relays,
# their queues, the observer's aggregate intake — are live).  Each rep exits
# non-zero on a wrong answer, an audit violation or a failed operation;
# the last line fails when a traced entry point no longer resolves
# (bench.spans_missing > 0), so a refactor that breaks the benchmark is
# caught before the pipeline runs it.
bench-smoke:
	$(PYTHON) -m pytest bench/tests -q
	$(PYTHON) bench/run.py --workload service_ingest --seconds 2 --trace 0
	$(PYTHON) bench/run.py --workload service_query --seconds 2 --trace 1
	$(PYTHON) bench/run.py --workload sharded_fabric --seconds 2 --trace 1
	$(PYTHON) bench/run.py --workload fabric_forward --seconds 2 --trace 1
	$(PYTHON) bench/run.py --workload snapshot_storm --seconds 2 --trace 1
	$(PYTHON) -c "import json, sys; \
	missing = {w: json.load(open('bench/out/trace-%s.json' % w)) \
	    ['metrics']['bench.spans_missing']['value'] \
	    for w in ('service_query', 'sharded_fabric', 'fabric_forward', \
	              'snapshot_storm')}; \
	print('bench.spans_missing =', missing); \
	sys.exit(1 if any(missing.values()) else 0)"

# The fused-vs-per-finish differential (tests/properties/
# test_fused_equivalence.py) at a few thousand examples instead of the
# tier-1 smoke's twenty, channel state drawn on or off (off, the units'
# quiet pass runs); a counterexample prints its FaultSchedule's repr.
fused-diff-deep:
	REPRO_FUSED_DIFF_EXAMPLES=3000 $(PYTHON) -m pytest -q \
	    tests/properties/test_fused_equivalence.py

# The equivalence matrix (tests/properties/test_equivalence_matrix.py;
# docs/SHARDING.md) at a thousand drawn deployments, faults drawn too,
# instead of the tier-1 smoke's twenty, fat-tree k=4 added at a reduced
# rate (~5.5 min); a counterexample prints as a dict that @example(...)
# pins.
matrix-deep:
	REPRO_MATRIX_EXAMPLES=1000 REPRO_MATRIX_DEEP=1 $(PYTHON) -m pytest -q \
	    tests/properties/test_equivalence_matrix.py

# The store's differentials (tests/service/test_store.py) at two
# thousand examples each: on the write side canonical_bytes against the
# sorted json.dumps length over drawn JSON values, the exact
# encoded_bytes sum over drawn document sequences, and snapshot_rows
# against the old key-lambda order (tier-1 runs forty); on the read
# side every read against the naive front-to-back decoder, and reads
# held across later evictions and promotions (tier-1 runs 150).
store-diff-deep:
	REPRO_STORE_DIFF_EXAMPLES=2000 $(PYTHON) -m pytest -q \
	    tests/service/test_store.py -k "TestWritePathDifferentials \
	    or TestSeekableStoreEqualsNaiveReference or TestHeldReadsStayPut"

# The control plane's jitter sampler against random.Random.randint
# (tests/core/test_control_plane.py: the same values and the same RNG
# state after the draws, over drawn seeds and jitters up to 2**20) at
# five thousand examples instead of the tier-1 smoke's hundred (~10 s).
draw-diff-deep:
	REPRO_DRAW_DIFF_EXAMPLES=5000 $(PYTHON) -m pytest -q \
	    tests/core/test_control_plane.py -k TestUniformJitter

# The observer's one-step relay-message intake against its per-record
# intake (tests/core/test_intake_differential.py: drawn message sequences
# with duplicate, stranger and late records over pending, complete,
# partial, abandoned and unknown epochs give the same records, statuses,
# counts and resolution order) at five thousand examples instead of the
# tier-1 smoke's sixty (~1 min).
intake-diff-deep:
	REPRO_INTAKE_DIFF_EXAMPLES=5000 $(PYTHON) -m pytest -q \
	    tests/core/test_intake_differential.py

# The config contract (tests/test_config_contract.py: every numeric
# field of every config and spec, found by introspection, set to 0, -1,
# 1, 2**62, 0.5, NaN or ±inf, a sweep's list to one such entry, is
# refused by name or runs a bounded smoke rig, an experiment config its
# first trial) at a thousand examples instead of the tier-1 smoke's
# three; each example draws a value for every field (~6 min).
config-fuzz-deep:
	REPRO_CONFIG_FUZZ_EXAMPLES=1000 $(PYTHON) -m pytest -q \
	    tests/test_config_contract.py

# The three source contracts (tests/test_config_contract.py), in a few
# seconds: every config field is read in src, every runtime field is set
# outside the tests, and every src function, method and class has a
# caller outside the tests.  Run it before the tier-1 suite.
contracts:
	$(PYTHON) -m pytest -q tests/test_config_contract.py -k \
	    "read_in_src or set_outside_tests or has_a_caller_outside_tests"

# The set-up path's differentials at two thousand drawn switch graphs
# (single- and multi-homed hosts) each instead of the tier-1 smoke's
# sixty: the gateway tables, the per-switch listing and the loaded FIB
# against the pairwise networkx oracles
# (tests/topology/test_route_table.py), and partition_topology against
# the re-sorting body it replaced at 1-4 shards (tests/sim/test_shard.py;
# ~25 s).
route-diff-deep:
	REPRO_ROUTE_DIFF_EXAMPLES=2000 $(PYTHON) -m pytest -q \
	    tests/topology/test_route_table.py tests/sim/test_shard.py \
	    -k "test_drawn_graphs_match"

# The --jobs 1 vs --jobs N comparison (tests/runtime/test_runner.py,
# tier-1: two tiny trials per experiment) over the whole quick suite:
# every trial serially, then across four workers, stdouts compared byte
# for byte (~1 min serial).  A difference leaves both outputs behind.
jobs-diff-deep:
	mkdir -p .repro-cache
	$(PYTHON) -m repro experiments --quick --no-cache --jobs 1 \
	    > .repro-cache/jobs-1.out
	$(PYTHON) -m repro experiments --quick --no-cache --jobs 4 \
	    > .repro-cache/jobs-4.out
	cmp .repro-cache/jobs-1.out .repro-cache/jobs-4.out

# The full experiment regeneration benchmarks (pytest-benchmark).
bench-experiments:
	$(PYTHON) -m pytest benchmarks/ --benchmark-only

# Snapshots-under-failure smoke (docs/FAULTS.md): the quick fault
# sweep, the correlated rack-loss scenario, the quick recovery sweep
# and the updates-under-chaos scenario (docs/UPDATES.md), all uncached;
# fails if any completed-and-consistent snapshot violates the link
# non-negativity or conservation audits, if the recovery sweep leaves
# any profile without a Pareto frontier, or if the update verdict
# ordering (timed monotone, twophase loop-free) breaks under faults.
# Ends with the service-under-faults check (docs/SERVICE.md): a control
# plane crashes and restarts mid-stream while the continuous snapshot
# pipeline keeps ingesting into its bounded delta store.
chaos-smoke:
	$(PYTHON) -m repro.service.smoke
	$(PYTHON) -c "import sys; \
	from repro.experiments import faults, recovery, updates; \
	from repro.runtime import TrialRunner; \
	runner = TrialRunner(jobs=$(JOBS)); \
	sweep = faults.run(faults.FaultsConfig.quick(), runner); \
	print(sweep.report()); \
	correlated = faults.run(faults.FaultsConfig.correlated(), runner); \
	print(); print(correlated.report()); \
	partial = faults.partial_invariance(runner=runner); \
	print(); print(partial.report()); \
	rec = recovery.run(recovery.RecoveryConfig.quick(), runner); \
	print(); print(rec.report()); \
	frontiers = all(rec.frontier(prof) \
	                for prof in {p for (_, p) in rec.rows}); \
	upd = updates.run(updates.UpdatesConfig.chaos(), runner); \
	print(); print(upd.report()); \
	sys.exit(0 if sweep.all_audits_ok and correlated.all_audits_ok \
	         and partial.ok and frontiers \
	         and upd.ordering_ok and upd.all_audits_ok else 1)"

# cProfile one experiment end-to-end (serial, uncached) into
# profiles/<name>.prof, then print its hottest functions.
profile:
	mkdir -p profiles
	$(PYTHON) -m cProfile -o profiles/$(PROFILE_EXP).prof \
	    -m repro run $(PROFILE_EXP) --quick --no-cache
	$(PYTHON) -c "import pstats; \
	pstats.Stats('profiles/$(PROFILE_EXP).prof').strip_dirs() \
	    .sort_stats('cumulative').print_stats(15)"

# Regenerate every table/figure through the shared trial runner: one
# combined batch (parallel across experiments with JOBS>1), cached under
# .repro-cache so a re-run recomputes only what changed.
figures:
	$(PYTHON) -m repro experiments --jobs $(JOBS)

experiments: figures

quick-experiments:
	$(PYTHON) -m repro experiments --quick --jobs $(JOBS)

examples:
	$(PYTHON) examples/quickstart.py
	$(PYTHON) examples/load_balancing_study.py
	$(PYTHON) examples/incast_detection.py
	$(PYTHON) examples/partial_deployment.py
	$(PYTHON) examples/forwarding_loop_detection.py
	$(PYTHON) examples/capacity_planning.py
	$(PYTHON) examples/loss_localization.py

clean:
	rm -rf .pytest_cache .hypothesis .repro-cache src/repro.egg-info \
	       profiles
	find . -name __pycache__ -type d -exec rm -rf {} +
