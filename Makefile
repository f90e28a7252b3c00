# Offline verification pipeline. The build environment has no network
# access; all dependencies are vendored (see vendor/README.md), so every
# target below must pass with `CARGO_NET_OFFLINE=true`.

CARGO := CARGO_NET_OFFLINE=true cargo

.PHONY: verify fmt fmt-check clippy codec-lint unsafe-lint obs-lint measure-lint exact-lint retired-lint arith-lint loc build test chaos service-smoke obs-smoke experiments-smoke plancache-smoke kernels-smoke approx-smoke soak-smoke fleet-obs-smoke benchmark-smoke

verify: fmt-check clippy codec-lint unsafe-lint obs-lint measure-lint exact-lint retired-lint arith-lint build test chaos service-smoke obs-smoke experiments-smoke plancache-smoke kernels-smoke approx-smoke soak-smoke fleet-obs-smoke benchmark-smoke
	@echo "verify: OK"

fmt:
	$(CARGO) fmt --all

fmt-check:
	$(CARGO) fmt --all --check

clippy:
	$(CARGO) clippy --workspace --all-targets -- -D warnings

# One byte layer: every binary format (SBGTSNAP, SBGTCKPT, SBGTPLAN, wire
# frames, ObsFrame) reads and writes through sbgt_lattice::bytes. Fails if
# a second `struct Reader` appears under crates/*/src, or if byte-order
# calls appear there outside that module and the engine's FxHasher.
codec-lint:
	@n=$$(grep -rn "struct Reader" crates/*/src | wc -l); \
	if [ "$$n" -ne 1 ]; then \
		echo "codec-lint: $$n definitions of struct Reader under crates/*/src (want 1)"; \
		grep -rn "struct Reader" crates/*/src; exit 1; \
	fi
	@bad=$$(grep -rnE "(to|from)_le_bytes" crates/*/src \
		| grep -v -e "^crates/lattice/src/bytes.rs:" -e "^crates/engine/src/partitioner.rs:"); \
	if [ -n "$$bad" ]; then \
		echo "codec-lint: byte-order calls outside sbgt_lattice::bytes and FxHasher:"; \
		echo "$$bad"; exit 1; \
	fi
	@echo "codec-lint: OK"

# One I/O idiom, no hand-rolled syscalls: `unsafe` lives only in the SIMD
# kernels (every other crate root carries `#![forbid(unsafe_code)]`, which
# the word match below does not count), and no inline assembly or epoll
# readiness loop may come back under crates/*/src.
unsafe-lint:
	@bad=$$(grep -rnE "\bunsafe\b|asm!|epoll" crates/*/src \
		| grep -v "^crates/lattice/src/simd.rs:"); \
	if [ -n "$$bad" ]; then \
		echo "unsafe-lint: unsafe, asm! or epoll outside crates/lattice/src/simd.rs:"; \
		echo "$$bad"; exit 1; \
	fi
	@echo "unsafe-lint: OK"

# One metrics read-out: exporters render from MetricsRegistry::scrape, so
# no library code re-parses a rendered page (parse_prometheus is the
# validator for tests and smoke binaries — the soak in crates/bench, which
# validates the fleet page it writes, is the one caller under
# crates/*/src), the histogram -> _bucket/_sum/_count rule lives only in
# obs::hist_series, and the ASCII timeline stays deleted.
obs-lint:
	@bad=$$(grep -rn "parse_prometheus(" crates/*/src \
		| grep -v -e "^crates/engine/src/obs/prom.rs:" -e "^crates/bench/src/"); \
	if [ -n "$$bad" ]; then \
		echo "obs-lint: parse_prometheus called from library code:"; \
		echo "$$bad"; exit 1; \
	fi
	@bad=$$(grep -rn "cumulative_buckets()" crates/*/src \
		| grep -v -e "^crates/engine/src/obs/hist.rs:" -e "^crates/engine/src/obs/prom.rs:"); \
	if [ -n "$$bad" ]; then \
		echo "obs-lint: cumulative_buckets() outside obs/hist.rs and obs/prom.rs:"; \
		echo "$$bad"; exit 1; \
	fi
	@bad=$$(grep -rnE "render_timeline|summary_line" crates examples tests); \
	if [ -n "$$bad" ]; then \
		echo "obs-lint: the timeline renderer is back:"; \
		echo "$$bad"; exit 1; \
	fi
	@echo "obs-lint: OK"

# One measurement system: performance numbers come from benchmark/
# (BENCHMARK.json) and the paper's rows from the `experiments` binary.
# Fails if the old bench harness, its smoke env vars or a hand-kept
# result file is named again in the build files, the sources or the
# documents that describe the tree. Each pattern carries a bracket so
# this recipe does not match itself; in *.rs the bare word is left alone,
# because two library modules use it in its English sense.
MEASURE_DOCS := Makefile vendor/README.md README.md DESIGN.md EXPERIMENTS.md .claude/skills/verify/SKILL.md
MEASURE_GONE := cargo[ ]bench|\[\[bench\]\]|BENCH_[a-z]*\.json|SBGT_BENCH[_]SMOKE|SBGT[_]QUICK|[c]riterion::|[c]riterion_(group|main)!
measure-lint:
	@files="$(MEASURE_DOCS) $$(find . -name Cargo.toml -not -path './target/*' -not -path './benchmark/*')"; \
	bad=$$(grep -nE "$(MEASURE_GONE)" $$files; \
		grep -rnE "$(MEASURE_GONE)" --include='*.rs' crates examples tests; \
		grep -nwi "[c]riterion" $$files); \
	if [ -n "$$bad" ]; then \
		echo "measure-lint: a second measurement system is named again:"; \
		echo "$$bad"; exit 1; \
	fi
	@echo "measure-lint: OK"

# One exact backend: the dense->sparse arm is written once, in
# crates/core/src/exact.rs. Fails if a sparse-arm kernel is named in more
# than one file under crates/core/src, if the subject-order check (the
# code, not its panic text) is written in more than one file under
# crates/*/src: it lives in sbgt_lattice::dense::order_tables, or if the
# bit renumbering a contraction runs on (`fn pext`, `fn pdep`) is defined
# in more than one file under crates/*/src: it lives in sbgt_lattice::dense.
EXACT_KERNELS := select_halving_prefix_sparse select_stage_lookahead_sparse update_sparse sparse_round_on
ORDER_CHECK := pos_of[subj] == u32::MAX
exact-lint:
	@for k in $(EXACT_KERNELS); do \
		files=$$(grep -rlw "$$k" crates/core/src); \
		if [ $$(echo "$$files" | grep -c .) -gt 1 ]; then \
			echo "exact-lint: $$k named in more than one file under crates/core/src:"; \
			echo "$$files"; exit 1; \
		fi; \
	done
	@files=$$(grep -rlF "$(ORDER_CHECK)" crates/*/src); \
	if [ $$(echo "$$files" | grep -c .) -gt 1 ]; then \
		echo "exact-lint: the order check is written in more than one file under crates/*/src:"; \
		echo "$$files"; exit 1; \
	fi
	@for f in pext pdep; do \
		files=$$(grep -rlw "fn $$f" crates/*/src); \
		if [ $$(echo "$$files" | grep -c .) -gt 1 ]; then \
			echo "exact-lint: fn $$f defined in more than one file under crates/*/src:"; \
			echo "$$files"; exit 1; \
		fi; \
	done
	@echo "exact-lint: OK"

# Retired names stay retired: the exact backend's old session/posterior
# types and the approx session newtypes; the pre-service multi-cohort
# harness (the sim surveillance/stream/reporting modules) and the engine
# surface only it used (the materializing stage, the per-thread partition
# knob, the retrying-job wrapper, the indexed pool helper); the session's
# uncalled selection entry points and the parallel twins only they
# reached; the calibration fit; and the lattice kernels that had no caller
# outside tests, plus the executor-private copies of the block kernels;
# and the engine's task retry, speculation, pristine-copy in-place path and
# second stage runner with their scrape families (the service's round
# rollback is the one recovery mechanism); the rayon chunk kernels, their
# knobs and the plan lineage they needed (one arithmetic: every in-memory
# pass runs through sbgt_lattice::blocks); five public functions nothing
# called; and the inference and selection extensions nothing reached (the
# posterior-predictive cost, credible sets, information-gain selection,
# the lattice order helpers and rank/superset/Gray-code iterators, and the
# episode's selection-rule enum, now a stage width); and sbgt-sim's private
# episode loop, its config and its scenario module (an episode is a session
# run against `Population::lab`; the E1 table lives in `experiments`), with
# the Dorfman helper only its own test called. Fails if one is named again
# in the sources or the documents that describe the tree.
# `\.map_partitions\(` does not match `map_partitions_in_place(`.
RETIRED_DOCS := README.md DESIGN.md .claude/skills/verify/SKILL.md
RETIRED_GONE := HybridPosterior|ShardedState|SparseBackend|SparseSession|struct BpSession|struct ParticleSession|run_surveillance|run_stream|SurveillanceConfig|StreamConfig|sim::reporting|try_map_partitions\(|\.map_partitions\(|partitions_per_thread|run_job_retrying|run_indexed|select_next_global|select_next_informative|select_halving_global_par|zeta_in_place_par|all_pool_negative_masses_par|fit_exponential_alpha|par_pool_negative_mass|par_from_fn|update_dense_sequence|mobius_of_zeta|fn positions_of|fn suffix_sum\(|fn mul_table_in_place|RetryPolicy|SpeculationConfig|with_retry|with_speculation|fault_tolerance_active|max_faulted_attempts|map_in_place_retry_safe|run_stage_with|run_job\(|sbgt_task_retries_total|sbgt_speculative_|lattice::kernels|par_mul_likelihood_fused|par_scale|par_total|par_marginals|par_prefix_negative_masses|par_lookahead_histograms|par_entropy|par_top_k|update_dense_par|analyze_par|always_parallel|par_config|DenseSerial|DenseParallel|default_local|busy_workers|bp_config|process_tags|is_draining|predictive_cost|PredictiveCost|RolloutConfig|credible_set|CredibleSet|select_information_gain|InfoSelection|SelectionMethod|in_pool_negative_set|states_of_rank|supersets_of|gray_code|run_episode|EpisodeConfig|sim::scenario|dorfman_is_beneficial
retired-lint:
	@bad=$$(grep -rnE "$(RETIRED_GONE)" crates src tests examples $(RETIRED_DOCS)); \
	if [ -n "$$bad" ]; then \
		echo "retired-lint: a retired name is named again:"; \
		echo "$$bad"; exit 1; \
	fi
	@echo "retired-lint: OK"

# One arithmetic for the in-memory posterior: every lattice pass runs its
# block kernel once per 2^16-state block and folds the partials in block
# order, inline or on rayon (sbgt_lattice::blocks). Fails if rayon or a
# parallel chunk iterator is named under crates/*/src outside that file,
# so no second combine order can come back; crates/bench/src (the E5
# scaling driver pins rayon thread counts) is exempt.
arith-lint:
	@bad=$$(grep -rnE "rayon::|par_chunks" crates/*/src \
		| grep -v -e "^crates/lattice/src/blocks.rs:" -e "^crates/bench/src/"); \
	if [ -n "$$bad" ]; then \
		echo "arith-lint: rayon or a parallel chunk iterator outside sbgt_lattice::blocks:"; \
		echo "$$bad"; exit 1; \
	fi
	@echo "arith-lint: OK"

# The benchmark's `repo.rust_loc`: lines of every *.rs under crates/ and
# src/, without a traced run.
loc:
	@find crates src -name '*.rs' -print0 | xargs -0 cat | wc -l

build:
	$(CARGO) build --release

test:
	$(CARGO) test --workspace -q

# Fault-injection suite: under seeded panics/stragglers/poisons every
# stage of the posterior hot loop returns the fault-free bits or fails
# naming itself, and every killed service round (sharded, sparse, BP) is
# rolled back and replayed to reports equal to the fault-free serial run
# (offline, in-process — no network or external chaos tooling involved).
chaos:
	$(CARGO) test -p sbgt --test chaos_equivalence -q
	$(CARGO) test -p sbgt-service --test chaos_service -q
	$(CARGO) test -p sbgt-engine -q -- stage:: chaos::

# Surveillance-service smoke: a short seeded load through the full service
# stack (bounded ingress -> batcher -> round-robin workers -> shared
# engine) must drain with every cohort classified and nothing shed.
service-smoke:
	$(CARGO) test -p sbgt-service --test smoke -q

# Telemetry smoke: a fully-traced service run must export a Chrome trace
# and a Prometheus scrape that both pass the in-repo validators (the
# example asserts this and exits nonzero otherwise), writing the
# artifacts to target/obs/ for inspection; then the disabled-telemetry
# overhead bound, which only measures in a release build.
obs-smoke:
	$(CARGO) run --release --example trace
	$(CARGO) test -p sbgt --release --test obs_overhead -q

# Paper-experiments smoke: the command EXPERIMENTS.md cites, in quick
# mode, must exit 0 and print exactly the twelve sections E1–E12. Its
# deterministic quality sections — E1, E6, E7, E8 and E11, each from its
# `## E` header to the next — must equal the committed golden byte for
# byte, so a change that moves a paper row shows the row in its own diff.
# The host-dependent `host parallelism` line sits outside every section.
# After an intended row change, regenerate the golden by piping
# `experiments --quick` through the GOLDEN_SECTIONS awk filter into it.
EXPERIMENTS_GOLDEN := crates/bench/golden/experiments_quick.md
GOLDEN_SECTIONS := /^\#\# E/ { keep = ($$2 ~ /^E(1|6|7|8|11)$$/) } keep
experiments-smoke:
	@out=$$($(CARGO) run --release -q -p sbgt-bench --bin experiments -- --quick) || exit 1; \
	n=$$(printf '%s\n' "$$out" | grep -c '^## E'); \
	if [ "$$n" -ne 12 ]; then \
		echo "experiments-smoke: $$n sections printed (want 12)"; exit 1; \
	fi; \
	if ! printf '%s\n' "$$out" | awk '$(GOLDEN_SECTIONS)' | diff -u $(EXPERIMENTS_GOLDEN) -; then \
		echo "experiments-smoke: E1/E6/E7/E8/E11 differ from $(EXPERIMENTS_GOLDEN)"; exit 1; \
	fi
	@echo "experiments-smoke: OK"

# Plan-cache smoke: the cached≡live equivalence harness (dense, sharded,
# hybrid-sparse, mid-session and width-8 eviction, quantization
# collisions), so the memoized decision trees stay bit-for-bit honest in
# `verify`; then the module's own tests (the SBGTPLAN codec and its
# tamper harness, the free-list arena's churn invariants).
plancache-smoke:
	$(CARGO) test -p sbgt-select --test plancache_equivalence -q
	$(CARGO) test -p sbgt-select --lib plancache -q

# Shard-fabric smoke: a short seeded soak through the real wire path —
# 3 shard processes behind the binary protocol, client-side cohort
# formation on the consistent-hash ring, one mid-run drain whose live
# cohorts relocate by checkpoint handoff. The binary itself asserts the
# specimen ledger balances (zero lost, including across the drain), that
# the fleet scrape stitches one validated Chrome trace across all three
# processes (artifacts under target/obs/), and bounds the shed rate,
# exiting nonzero otherwise.
soak-smoke:
	$(CARGO) run --release -p sbgt-bench --bin soak -- --smoke

# Fleet-observability smoke: the in-process loopback version of the same
# bar — trace contexts ride the wire trailers, a relocated cohort leaves
# spans on two trace processes under one deterministic trace id, the
# FleetScraper's histogram merge equals the sum of the shard scrapes, and
# the engine-side export/overhead contracts (SBGT_TRACE env gating,
# tracing-off wire equivalence) hold.
fleet-obs-smoke:
	$(CARGO) test -p sbgt-net --test fleet_obs -q
	$(CARGO) test -p sbgt-engine --test obs_export -q

# SIMD/sparse kernel smoke: replay the SIMD-vs-scalar, sparse-equivalence,
# selection and contraction suites with the dispatcher forced to the
# scalar path (SBGT_FORCE_SCALAR=1), so a CI machine without AVX2/AVX-512
# still validates both sides of the dispatch, the projected look-ahead's
# branch doubling and the contracted lattice's bits included.
kernels-smoke:
	SBGT_FORCE_SCALAR=1 $(CARGO) test -p sbgt-lattice --test properties -q
	SBGT_FORCE_SCALAR=1 $(CARGO) test -p sbgt --test sparse_equivalence -q
	SBGT_FORCE_SCALAR=1 $(CARGO) test -p sbgt-select --test properties -q
	SBGT_FORCE_SCALAR=1 $(CARGO) test -p sbgt --test contraction -q

# Approximate-backend smoke: the exact-vs-approx accuracy harness (>=99%
# per-specimen agreement with the dense reference, assay budget within 5%,
# BP marginals on top of the exact posterior, seeded particle
# reproducibility across snapshot/restore, a 256-specimen cohort on BP).
# The past-the-2^N-wall service path is an input of `-p sbgt-service
# --test equivalence`, which `test` runs.
approx-smoke:
	$(CARGO) test -p sbgt-approx --test accuracy -q

# Benchmark-package smoke: `benchmark/` is its own workspace, so the root
# `cargo test` never compiles it and a break in the session or service API
# it calls would surface only in the pipeline. Build it, then run its own
# gate (fmt, clippy, unit tests, and a short smoke pass of every workload).
benchmark-smoke:
	$(CARGO) build --offline --release --manifest-path benchmark/Cargo.toml
	benchmark/ci.sh
