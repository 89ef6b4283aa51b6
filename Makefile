.PHONY: build test bench bench-smoke bench-lp serve-smoke obs-smoke chaos-smoke \
  scenarios-smoke dist-smoke perfbench-smoke reproduce reproduce-certified goldens \
  trajectory clean

build:
	dune build

test:
	dune runtest

bench:
	dune exec bench/main.exe

# One tiny grid cell pushed through the fork-based worker pool end to end:
# generates a workload, runs two policies plus the LP bounds in 2 workers,
# and writes (then type-checks by parsing) the JSON artifact.  Also records
# a span trace (kept on disk for the CI artifact upload) and validates it.
bench-smoke:
	dune exec bin/main.exe -- sweep --kinds poisson -m 4 --rates 2 \
	  --rounds 4 --seeds 1 --policies maxcard,maxweight --lp --jobs 2 \
	  --trace SMOKE_trace.json --out _smoke_sweep.json
	@grep -q '"schema": "flowsched-sweep/1"' _smoke_sweep.json \
	  && echo "bench-smoke: OK (_smoke_sweep.json valid)" \
	  || (echo "bench-smoke: BAD artifact" && exit 1)
	dune exec bin/main.exe -- check-trace SMOKE_trace.json
	@rm -f _smoke_sweep.json

# Jobs-equivalence gate: the same LP-enabled sweep grid (a base kind, a
# parameterized base kind and a zoo kind among its workloads) inline
# (--jobs 1) and on 4 forked workers must produce (a) byte-identical
# artifacts after dropping the timing lines and the worker-count metadata
# line (the only field that records how the run was parallelized) and (b)
# byte-identical counter totals.  The artifacts come from runs without
# --metrics, whose block carries timing gauges; pool.* counters fire only
# in the forked parent, so (b) leaves them out — every algorithmic counter
# must match exactly.
OBS_GRID = --kinds poisson,uniform,skewed:1.2,pareto:1.5 -m 4 --rates 2 --rounds 4,5 \
  --seeds 1,2 --policies maxcard,minrtime --lp
OBS_FILTER = grep -v 'wall_clock_s\|phase1_seconds\|phase2_seconds\|"jobs":'

obs-smoke: build
	@rm -f _obs_*.json _obs_*.txt _obs_*.f
	_build/default/bin/main.exe sweep $(OBS_GRID) --jobs 4 --out _obs_sweep4.json 2>/dev/null
	_build/default/bin/main.exe sweep $(OBS_GRID) --jobs 1 --out _obs_sweep1.json 2>/dev/null
	@$(OBS_FILTER) _obs_sweep4.json > _obs_sweep4.f
	@$(OBS_FILTER) _obs_sweep1.json > _obs_sweep1.f
	@diff _obs_sweep1.f _obs_sweep4.f >/dev/null \
	  && echo "obs-smoke: artifact byte-identical (--jobs 4 vs --jobs 1)" \
	  || (echo "obs-smoke: artifact diverges between --jobs 4 and --jobs 1" && exit 1)
	_build/default/bin/main.exe sweep $(OBS_GRID) --jobs 4 \
	  --metrics --out _obs_m4.json 2>_obs_metrics4.txt
	_build/default/bin/main.exe sweep $(OBS_GRID) --jobs 1 \
	  --metrics --out _obs_m1.json 2>_obs_metrics1.txt
	@grep '^counter ' _obs_metrics4.txt | grep -v '^counter pool\.' > _obs_c4.txt
	@grep '^counter ' _obs_metrics1.txt | grep -v '^counter pool\.' > _obs_c1.txt
	@diff _obs_c1.txt _obs_c4.txt \
	  && echo "obs-smoke: OK (jobs=4 counter totals match jobs=1)" \
	  || (echo "obs-smoke: counter totals diverge between --jobs 1 and --jobs 4" && exit 1)
	@rm -f _obs_*.json _obs_*.txt _obs_*.f

# Resilience gate: the same sweep grid three ways — fault-free, under
# deterministic chaos injection (must converge to the same artifact given a
# retry budget), and SIGKILLed mid-run then resumed from its checkpoint
# (must also match).  Only the timing fields (wall_clock_s, phaseN_seconds)
# legitimately differ, so they are filtered before diffing.
CHAOS_GRID = --kinds poisson,uniform -m 4 --rates 2 --rounds 4,5 --seeds 1,2 \
  --policies maxcard,minrtime --lp --jobs 2
CHAOS_FILTER = grep -v 'wall_clock_s\|phase1_seconds\|phase2_seconds'

chaos-smoke: build
	@rm -f _chaos_ref.json _chaos_run.json _chaos_resume.json _chaos_ckpt.jsonl _chaos_*.f
	_build/default/bin/main.exe sweep $(CHAOS_GRID) --out _chaos_ref.json 2>/dev/null
	_build/default/bin/main.exe sweep $(CHAOS_GRID) --chaos 11 --retries 10 \
	  --timeout 5 --out _chaos_run.json 2>/dev/null
	@$(CHAOS_FILTER) _chaos_ref.json > _chaos_ref.f
	@$(CHAOS_FILTER) _chaos_run.json > _chaos_run.f
	@diff _chaos_ref.f _chaos_run.f >/dev/null \
	  && echo "chaos-smoke: chaos run converged to the fault-free artifact" \
	  || (echo "chaos-smoke: chaos artifact diverges from fault-free run" && exit 1)
	@_build/default/bin/main.exe sweep $(CHAOS_GRID) \
	  --checkpoint _chaos_ckpt.jsonl --out _chaos_resume.json 2>/dev/null & \
	pid=$$!; tries=0; \
	while [ ! -s _chaos_ckpt.jsonl ] && [ $$tries -lt 200 ]; do sleep 0.05; tries=$$((tries+1)); done; \
	kill -9 $$pid 2>/dev/null; wait $$pid 2>/dev/null; true
	_build/default/bin/main.exe sweep $(CHAOS_GRID) \
	  --checkpoint _chaos_ckpt.jsonl --resume --out _chaos_resume.json 2>/dev/null
	@$(CHAOS_FILTER) _chaos_resume.json > _chaos_resume.f
	@diff _chaos_ref.f _chaos_resume.f >/dev/null \
	  && echo "chaos-smoke: SIGKILL + resume reproduced the artifact" \
	  || (echo "chaos-smoke: resumed artifact diverges" && exit 1)
	@rm -f _chaos_ref.json _chaos_run.json _chaos_resume.json _chaos_ckpt.jsonl _chaos_*.f

# Large-instance LP gate.  First, bench/main.exe must reject an argument
# it does not read: `lp-large 10 --rows` (the bounds as rows, an encoding
# that now lives only in the tests) exits 2 instead of silently running
# the declared-bound LP.  Then single ART round-LPs at 240 and 600 flows
# (the sparse engine's target regime), each solved cold, re-solved warm
# from its own optimal basis, and bounded through Art_lp.lower_bound
# (greedy max-card's crash start, checked by its Lagrangian dual D(u)).  lp-large
# exits non-zero if the warm objective or the bound disagrees with the cold
# objective beyond 1e-6; its summary line records pivots, LU fill-in and
# wall time.  The warm = cold gate on the smaller offline pipelines lives in
# test_art/test_mrt/test_lp.
#
# Then Theorem 3 at paper scale: 2 939 flows on 150 ports (rho bracket
# [14, 16]).  The rho search and the rounding start LP (19)-(21) from
# FIFO's schedule; the solve must certify rho* = 14 and a valid schedule
# on the augmented capacities within 120 s (about 7 s on a 2-vCPU host;
# from the all-artificial start one probe ran for minutes).
MRT_PAPER = poisson -m 150 --rate 150 --rounds 20 --seed 1

bench-lp: build
	@_build/default/bench/main.exe lp-large 10 --rows > /dev/null 2>&1; rc=$$?; \
	  if [ $$rc -eq 2 ]; then echo "bench-lp: lp-large rejects an unknown argument (exit 2)"; \
	  else echo "bench-lp: lp-large 10 --rows exited $$rc, expected 2"; exit 1; fi
	dune exec bench/main.exe -- lp-large 240
	dune exec bench/main.exe -- lp-large 600
	@rm -f _mrt_paper.out
	_build/default/bin/main.exe generate $(MRT_PAPER) \
	  | timeout 120 _build/default/bin/main.exe solve-mrt - > _mrt_paper.out
	@grep -qx 'fractional rho:   14' _mrt_paper.out \
	  && grep -qx 'valid (augmented):true' _mrt_paper.out \
	  && echo "bench-lp: paper-scale Theorem 3 certified rho* = 14, valid (augmented)" \
	  || (cat _mrt_paper.out; echo "bench-lp: paper-scale Theorem 3 missed rho* = 14 or validity" && exit 1)
	@rm -f _mrt_paper.out

# Serve-loop gate: a 100k-slot bounded-memory run with the incremental
# matching core must be byte-stable across two invocations for a fixed
# seed (the outcome is all-integer, so wall-clock variance cannot leak in).
# The per-slot exactness gate (incremental cardinality = from-scratch
# Hopcroft-Karp) is the test_serve case "incremental = Hopcroft-Karp every
# slot".
serve-smoke:
	dune exec bin/main.exe -- serve --core incremental --workload uniform \
	  -m 8 --rate 6 --slots 100000 --seed 7 --status-every 0 --json \
	  > _serve_a.json 2>/dev/null
	dune exec bin/main.exe -- serve --core incremental --workload uniform \
	  -m 8 --rate 6 --slots 100000 --seed 7 --status-every 0 --json \
	  > _serve_b.json 2>/dev/null
	@diff _serve_a.json _serve_b.json >/dev/null \
	  && echo "serve-smoke: 100k-slot run byte-stable across invocations" \
	  || (echo "serve-smoke: outcome not reproducible for a fixed seed" && exit 1)
	@grep -q '"completed": 0' _serve_a.json \
	  && (echo "serve-smoke: no flows completed" && exit 1) \
	  || echo "serve-smoke: OK ($$(grep -o '"completed": [0-9]*' _serve_a.json | head -1 | grep -o '[0-9]*') flows completed)"
	@rm -f _serve_a.json _serve_b.json

# Scenario-matrix byte-identity gate: the same policy x workload x mode grid
# (8 zoo kinds x 3 problem modes x 2 seeds, LP bounds on) inline (--jobs 1)
# and on 4 forked workers must write byte-for-byte identical artifacts —
# matrix cells deliberately carry no wall-clock or worker-count metadata,
# so cmp(1) is the whole gate.
MATRIX_GRID = --kinds poisson,pareto:1.5,lognormal,bursty,diurnal,flash-crowd,bimodal,staircase \
  --modes flows,endpoint:2:2,coflow:3:4 -m 5 --rates 2.5 --rounds 6 --seeds 1,2 \
  --max-demand 3 --lp

scenarios-smoke: build
	@rm -f _matrix_j1.json _matrix_j4.json
	_build/default/bin/main.exe matrix $(MATRIX_GRID) --jobs 1 --out _matrix_j1.json
	_build/default/bin/main.exe matrix $(MATRIX_GRID) --jobs 4 --out _matrix_j4.json
	@cmp _matrix_j1.json _matrix_j4.json \
	  && echo "scenarios-smoke: matrix artifact byte-identical (--jobs 1 vs --jobs 4)" \
	  || (echo "scenarios-smoke: matrix artifact diverges between --jobs 1 and --jobs 4" && exit 1)
	@grep -q '"schema": "flowsched-matrix/1"' _matrix_j1.json \
	  && echo "scenarios-smoke: OK (_matrix_j1.json valid)" \
	  || (echo "scenarios-smoke: BAD artifact" && exit 1)
	@rm -f _matrix_j1.json _matrix_j4.json

# Distributed-sweep chaos gate: three shard workers over the chaos grid.
# Worker 0 is killed mid-shard (deterministic fault plan, no retries — the
# first injected fault is fatal), leaving its lease and a partial CRC-sealed
# checkpoint behind.  The merge must refuse the partial grid, a takeover
# worker must claim the stale lease (dead-pid fast path) and finish the
# shard from the crashed worker's prefix, and the final merged artifact —
# DIST_merged.json, kept on disk for the CI upload — must be byte-identical
# to the uninterrupted single-box --jobs 1 run modulo the timing lines.
DIST_GRID = --kinds poisson,uniform -m 4 --rates 2 --rounds 4,5 --seeds 1,2 \
  --policies maxcard,minrtime --lp
DIST_DIR = _dist_ckpt

dist-smoke: build
	@rm -rf $(DIST_DIR) _dist_*.json _dist_*.f _dist_takeover.log DIST_merged.json
	_build/default/bin/main.exe sweep $(DIST_GRID) --jobs 1 --out _dist_ref.json 2>/dev/null
	@_build/default/bin/main.exe sweep $(DIST_GRID) --jobs 1 --shard 0/3 \
	  --checkpoint-dir $(DIST_DIR) --chaos 1 --retries 0 >/dev/null 2>&1; \
	test $$? -ne 0 \
	  && echo "dist-smoke: worker 0 crashed mid-shard (as planned)" \
	  || (echo "dist-smoke: chaos worker unexpectedly survived" && exit 1)
	@test -f $(DIST_DIR)/shard-0-of-3.lease \
	  && test -s $(DIST_DIR)/shard-0-of-3.jsonl \
	  && echo "dist-smoke: crash left lease + partial checkpoint behind" \
	  || (echo "dist-smoke: expected a stale lease and a checkpoint prefix" && exit 1)
	_build/default/bin/main.exe sweep $(DIST_GRID) --jobs 1 --shard 1/3 \
	  --checkpoint-dir $(DIST_DIR) 2>/dev/null
	_build/default/bin/main.exe sweep $(DIST_GRID) --jobs 1 --shard 2/3 \
	  --checkpoint-dir $(DIST_DIR) 2>/dev/null
	@_build/default/bin/main.exe merge $(DIST_GRID) --dir $(DIST_DIR) \
	  --out _dist_partial.json >/dev/null 2>&1; \
	test $$? -ne 0 \
	  && echo "dist-smoke: merge refused the partial grid (missing cells)" \
	  || (echo "dist-smoke: merge accepted a partial grid without --allow-partial" && exit 1)
	_build/default/bin/main.exe sweep $(DIST_GRID) --jobs 1 --shard 0/3 \
	  --checkpoint-dir $(DIST_DIR) 2>_dist_takeover.log
	@grep -q 'takeover: claimed stale lease' _dist_takeover.log \
	  && grep -q 'resuming:' _dist_takeover.log \
	  && echo "dist-smoke: takeover claimed the stale lease and resumed the prefix" \
	  || (echo "dist-smoke: expected a lease takeover + checkpoint resume" && cat _dist_takeover.log && exit 1)
	_build/default/bin/main.exe merge $(DIST_GRID) --dir $(DIST_DIR) --out DIST_merged.json
	@$(CHAOS_FILTER) _dist_ref.json > _dist_ref.f
	@$(CHAOS_FILTER) DIST_merged.json > _dist_merged.f
	@diff _dist_ref.f _dist_merged.f >/dev/null \
	  && echo "dist-smoke: merged artifact byte-identical to single-box --jobs 1 run" \
	  || (echo "dist-smoke: merged artifact diverges from the clean run" && exit 1)
	@rm -rf $(DIST_DIR) _dist_*.json _dist_*.f _dist_takeover.log

# The benchmark's own test: every perfbench workload at a tiny size, traced
# and untraced, must pass its output checks and print exactly the metrics
# BENCHMARK.json names.  Builds perfbench/main.exe into .bench_build.
perfbench-smoke:
	python3 perfbench/test_bench.py

# The committed perf records: each bench/trajectory/*.jsonl holds one
# change's perfbench runs, parent and change side by side, with the host and
# rev of every run.  The compare fails on a line that lost a field or a run
# that failed its checks, and prints each workload, seed and end-to-end
# metric's parent and change medians and their ratio.
trajectory:
	python3 bench/trajectory/compare.py bench/trajectory/*.jsonl

# Artifact-evaluation harness, first slice: rerun the deterministic
# evaluation artifacts and diff them byte-for-byte against the committed
# goldens (goldens/).  The matrix artifact carries no timing metadata at
# all; the sweep artifact is compared after dropping its documented
# wall-clock lines; the serve outcome is all-integer; the figures artifact
# has no timing field.  Regenerate after an intentional change with
# `make goldens` and commit the diff.
REPRO_SERVE = serve --core incremental --workload uniform -m 8 --rate 6 \
  --slots 20000 --seed 7 --status-every 0 --json
# The Policy core (MaxWeight through Engine.run_slot) under backpressure:
# small queue and buffer caps stall the source in over half the slots, so
# admission and the stall path are pinned with the slot itself.  Its queue
# of about 64 flows fills the 64 port pairs, so MaxWeight's select takes
# one Hungarian edge per pair (its pair intake) in almost every slot.
REPRO_SERVE_POLICY = serve --core maxweight --workload hotspot:0.3 -m 8 --rate 6 \
  --slots 20000 --seed 7 --queue-cap 64 --buffer-cap 64 --status-every 0 --json
# MinRTime through the Policy core at a deep backlog: up to 511 flows
# pending on 8x8 ports, so MinRTime's select takes the pair intake in 8 409
# of the 8 554 slots, choosing among many flows per pair, and 2 764 slots
# stall the source.
REPRO_SERVE_MINRTIME = serve --core minrtime --workload hotspot:0.5 -m 8 --rate 3 \
  --slots 5000 --seed 7 --queue-cap 512 --buffer-cap 512 --status-every 0 --json
# The Incremental core under skew and backpressure: 16x16 ports, half the
# traffic to one hot output, caps of 256 that stall the source in 107 096 of
# 127 497 slots, so the queue sits near its cap and augmenting paths run
# through the hot output's long parallel lists.
REPRO_SERVE_HOTSPOT = serve --core incremental --workload hotspot:0.5 -m 16 --rate 12 \
  --slots 20000 --seed 7 --queue-cap 256 --buffer-cap 256 --status-every 0 --json
# Figures 6/7 at paper scale: the only leg wide enough (150 ports) to reach
# the sparse Hungarian; the grids above run on at most 8 ports.
WIDE_GRID = --kinds poisson -m 150 --rates 300 --rounds 10 --seeds 1,2 \
  --policies minrtime,maxweight --jobs 2
# LP bounds at the benchmark's offline size: the leg whose lp_counters pin
# the simplex's pivot path (the ART bound, the rho probes) at that size.
# Rate 12 gives cells of 539 and 586 pivots; rate 24 keeps a deep path, with
# cells of 3 330 and 2 148 pivots and 119 and 81 refactorizations, so a
# kernel change that only goes wrong far into a long eta chain still shows.
# The grids above stay small.
LP_GRID = --kinds poisson -m 6 --rates 12,24 --rounds 8 --seeds 1,2 --policies fifo --lp --jobs 2
# Figures 6/7 as `bench figures --json` writes them (default profile: 15
# rows of two tries each, LP bounds on T <= 10): the only leg that averages
# cells over tries.  It writes BENCH_figures.json into its working
# directory, so it runs in a directory of its own.
FIGURES = figures --json --jobs 2

reproduce: build
	@rm -f _repro_*.json _repro_*.f
	_build/default/bin/main.exe matrix $(MATRIX_GRID) --jobs 2 --out _repro_matrix.json 2>/dev/null
	@cmp goldens/matrix.json _repro_matrix.json \
	  && echo "reproduce: matrix artifact matches golden" \
	  || (echo "reproduce: matrix artifact diverges from goldens/matrix.json" && exit 1)
	_build/default/bin/main.exe sweep $(CHAOS_GRID) --out _repro_sweep.json 2>/dev/null
	@$(CHAOS_FILTER) _repro_sweep.json > _repro_sweep.f
	@diff goldens/sweep.filtered.json _repro_sweep.f >/dev/null \
	  && echo "reproduce: sweep artifact matches golden (timing lines excluded)" \
	  || (echo "reproduce: sweep artifact diverges from goldens/sweep.filtered.json" && exit 1)
	_build/default/bin/main.exe sweep $(WIDE_GRID) --out _repro_wide.json 2>/dev/null
	@$(CHAOS_FILTER) _repro_wide.json > _repro_wide.f
	@diff goldens/sweep-wide.filtered.json _repro_wide.f >/dev/null \
	  && echo "reproduce: wide sweep artifact matches golden (timing lines excluded)" \
	  || (echo "reproduce: wide sweep artifact diverges from goldens/sweep-wide.filtered.json" && exit 1)
	_build/default/bin/main.exe sweep $(LP_GRID) --out _repro_lp.json 2>/dev/null
	@$(CHAOS_FILTER) _repro_lp.json > _repro_lp.f
	@diff goldens/sweep-lp.filtered.json _repro_lp.f >/dev/null \
	  && echo "reproduce: LP sweep artifact matches golden (timing lines excluded)" \
	  || (echo "reproduce: LP sweep artifact diverges from goldens/sweep-lp.filtered.json" && exit 1)
	_build/default/bin/main.exe $(REPRO_SERVE) > _repro_serve.json 2>/dev/null
	@cmp goldens/serve.json _repro_serve.json \
	  && echo "reproduce: serve outcome matches golden" \
	  || (echo "reproduce: serve outcome diverges from goldens/serve.json" && exit 1)
	_build/default/bin/main.exe $(REPRO_SERVE_POLICY) > _repro_serve_policy.json 2>/dev/null
	@cmp goldens/serve-policy.json _repro_serve_policy.json \
	  && echo "reproduce: Policy-core serve outcome matches golden" \
	  || (echo "reproduce: Policy-core serve outcome diverges from goldens/serve-policy.json" && exit 1)
	_build/default/bin/main.exe $(REPRO_SERVE_MINRTIME) > _repro_serve_minrtime.json 2>/dev/null
	@cmp goldens/serve-minrtime.json _repro_serve_minrtime.json \
	  && echo "reproduce: MinRTime deep-backlog serve outcome matches golden" \
	  || (echo "reproduce: MinRTime deep-backlog serve outcome diverges from goldens/serve-minrtime.json" && exit 1)
	_build/default/bin/main.exe $(REPRO_SERVE_HOTSPOT) > _repro_serve_hotspot.json 2>/dev/null
	@cmp goldens/serve-incremental-hotspot.json _repro_serve_hotspot.json \
	  && echo "reproduce: Incremental hotspot serve outcome matches golden" \
	  || (echo "reproduce: Incremental hotspot serve outcome diverges from goldens/serve-incremental-hotspot.json" && exit 1)
	@rm -rf _repro_figures && mkdir _repro_figures
	cd _repro_figures && ../_build/default/bench/main.exe $(FIGURES) >/dev/null
	@cmp goldens/figures.json _repro_figures/BENCH_figures.json \
	  && echo "reproduce: figures artifact matches golden" \
	  || (echo "reproduce: figures artifact diverges from goldens/figures.json" && exit 1)
	@rm -rf _repro_*.json _repro_*.f _repro_figures
	@echo "reproduce: OK (all artifacts match the committed goldens)"

# The certified comparison: rerun reproduce's grids and compare each
# artifact with its golden line by line (bench/certify_goldens.py).  Only
# lp_counters fields and the LP bound values may differ, the bounds within
# 1e-9 relative; every bound is checked against its Lagrangian dual D(u) as
# it is solved.  A change that moves pivots runs this against the old
# goldens before `make goldens`.
reproduce-certified: build
	@rm -rf _cert_goldens
	@$(MAKE) --no-print-directory goldens GOLDENS=_cert_goldens >/dev/null
	@python3 bench/certify_goldens.py $(foreach f,$(GOLDEN_FILES),goldens/$(f) _cert_goldens/$(f))
	@rm -rf _cert_goldens

# Regenerate the committed goldens (after an intentional behavior change).
# GOLDENS names the directory written; reproduce-certified points it at a
# temporary directory.
GOLDENS = goldens
GOLDEN_FILES = matrix.json sweep.filtered.json sweep-wide.filtered.json \
  sweep-lp.filtered.json serve.json serve-policy.json serve-minrtime.json \
  serve-incremental-hotspot.json figures.json

goldens: build
	@mkdir -p $(GOLDENS)
	_build/default/bin/main.exe matrix $(MATRIX_GRID) --jobs 2 --out $(GOLDENS)/matrix.json 2>/dev/null
	_build/default/bin/main.exe sweep $(CHAOS_GRID) --out _golden_sweep.json 2>/dev/null
	@$(CHAOS_FILTER) _golden_sweep.json > $(GOLDENS)/sweep.filtered.json
	_build/default/bin/main.exe sweep $(WIDE_GRID) --out _golden_wide.json 2>/dev/null
	@$(CHAOS_FILTER) _golden_wide.json > $(GOLDENS)/sweep-wide.filtered.json
	_build/default/bin/main.exe sweep $(LP_GRID) --out _golden_lp.json 2>/dev/null
	@$(CHAOS_FILTER) _golden_lp.json > $(GOLDENS)/sweep-lp.filtered.json
	@rm -f _golden_sweep.json _golden_wide.json _golden_lp.json
	_build/default/bin/main.exe $(REPRO_SERVE) > $(GOLDENS)/serve.json 2>/dev/null
	_build/default/bin/main.exe $(REPRO_SERVE_POLICY) > $(GOLDENS)/serve-policy.json 2>/dev/null
	_build/default/bin/main.exe $(REPRO_SERVE_MINRTIME) > $(GOLDENS)/serve-minrtime.json 2>/dev/null
	_build/default/bin/main.exe $(REPRO_SERVE_HOTSPOT) > $(GOLDENS)/serve-incremental-hotspot.json 2>/dev/null
	@rm -rf _golden_figures && mkdir _golden_figures
	cd _golden_figures && ../_build/default/bench/main.exe $(FIGURES) >/dev/null
	@mv _golden_figures/BENCH_figures.json $(GOLDENS)/figures.json && rm -rf _golden_figures
	@echo "goldens regenerated — review and commit $(GOLDENS)/"

clean:
	dune clean
