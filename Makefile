GO ?= go

.PHONY: check ci build test vet fmt race determinism bench cover allocgate \
	bench-save bench-compare matrix-smoke fuzz-smoke \
	paperscale-smoke paperscale paperscale-coord distributed-smoke reach \
	benchmark

# check is the CI gate: static checks, a full build, the package reach
# check, the race-enabled test suite, the engine determinism test at
# several GOMAXPROCS, the coverage floors, and the hot-path allocation
# gate.
check: fmt vet build reach race determinism cover allocgate

# ci is what .github/workflows/ci.yml runs: the full gate plus the
# benchmark diffs against the tracked baselines, a tiny scenario-matrix
# smoke, short fuzz runs over the trace decoders, the paper-scale
# pipeline smoke, and the multi-process coordinator smoke. The live
# server's ingest path is proven by cmd/odrserver's own test, inside the
# gate. The workflow fans these out as parallel jobs; this aggregate
# target is the one-command local equivalent.
ci: check bench-compare matrix-smoke fuzz-smoke paperscale-smoke \
	distributed-smoke

# The gates below name the tests they run, and `go test` exits 0 when a
# -run or -fuzz pattern matches nothing, so a renamed test would drop out
# of its gate unseen. listed PKG,NAMES,FLAGS,GREP therefore fails, naming
# the target and the name, unless every name matches a test, benchmark,
# fuzz target or example that `go test FLAGS -list .` finds in PKG: GREP
# is -qF for a match anywhere in the name, as -run matches, and -qxF for
# the whole name.
listed = names="$$($(GO) test $(3) -list . $(1))" || exit 1; \
	for n in $(2); do \
		printf '%s\n' "$$names" | grep $(4) -- "$$n" || \
			{ echo "$@: $$n matches nothing in $(1)"; exit 1; }; \
	done
empty :=
space := $(empty) $(empty)

# tests PKG,NAMES,FLAGS runs the named tests of PKG with FLAGS: the -run
# pattern is the names as alternatives, each matching anywhere in a test's
# name.
define tests
@$(call listed,$(1),$(2),$(3),-qF)
$(GO) test -run '$(subst $(space),|,$(strip $(2)))' $(3) $(1)
endef

# fuzz NAME,PKG fuzzes PKG's fuzz target NAME for FUZZ_TIME.
define fuzz
@$(call listed,$(2),$(1),,-qxF)
$(GO) test -run '^$$' -fuzz '^$(1)$$' -fuzztime $(FUZZ_TIME) -fuzzminimizetime 100x $(2)
endef

# fuzz-smoke runs each fuzzer briefly from its seeds: the trace decoders
# (committed corpora in testdata/fuzz, so every past counterexample
# replays on plain `go test` as well), the CSV codec against the
# encoding/csv reference (reader and writer), the two decoders of the
# shared checkpoint frame — ODRP partials and ODRS state files, each
# seeded with the other kind's file — the cloud's observation-state
# restore (static and band), the checkpoint manifest loader, the live
# server's two decide endpoints, the serve path's wire codec against
# encoding/json (decoder and encoder), and the lazily seeded RNG source
# against math/rand. Long enough to shake out decode panics and stream
# divergence, short enough for CI. Each new-coverage input is minimized
# for at most 100 runs: by default the fuzzer spends up to 60 s on each,
# uncounted, which can take a whole 5 s run. A target that names no fuzz
# target of its package fails the smoke (see listed).
FUZZ_TIME ?= 5s
fuzz-smoke:
	$(call fuzz,FuzzCSVDecode,./internal/trace)
	$(call fuzz,FuzzCSVDecodeMatchesReference,./internal/trace)
	$(call fuzz,FuzzCSVEncodeMatchesReference,./internal/trace)
	$(call fuzz,FuzzJSONLDecode,./internal/trace)
	$(call fuzz,FuzzBinDecode,./internal/trace)
	$(call fuzz,FuzzDecodePartial,./internal/distrib)
	$(call fuzz,FuzzDecodeState,./internal/distrib)
	$(call fuzz,FuzzRestoreState,./internal/backend)
	$(call fuzz,FuzzLoadManifest,./internal/distrib)
	$(call fuzz,FuzzDecideBodies,./internal/odrweb)
	$(call fuzz,FuzzWireDecode,./internal/odrweb)
	$(call fuzz,FuzzWireEncode,./internal/odrweb)
	$(call fuzz,FuzzSourceMatchesMathRand,./internal/dist)

# paperscale-smoke runs EXP-W at ~200k tasks: parallel generation must
# hash byte-identical to sequential, the bin trace file must hash back
# to the generated digest, and the three replay input paths must agree.
# The experiment prints "EXPW verdict: PASS" only when every check holds.
# The report is captured and re-printed rather than piped through
# `tee /dev/stderr`, which reopens stderr with O_TRUNC and so cuts off a
# log file the caller redirected it to.
paperscale-smoke:
	@out="$$($(GO) run ./cmd/experiments -exp expw -files 27500 -sample 1000)"; rc="$$?"; \
	printf '%s\n' "$$out"; \
	[ "$$rc" -eq 0 ] || { echo "paperscale-smoke: experiments exited $$rc"; exit 1; }; \
	printf '%s\n' "$$out" | grep -q '^EXPW verdict: PASS$$' || \
		{ echo "paperscale-smoke: no PASS verdict"; exit 1; }

# paperscale is the full calibrated week — 563,517 files, 4,084,417
# tasks — through the same pipeline. Takes minutes; not part of ci.
paperscale:
	$(GO) run ./cmd/experiments -exp expw -files 563517 -sample 1000

# paperscale-coord runs the same week through the coordinator: the bin
# trace of `wgen -files 563517 -seed 1` (≈4M records, ≈100 MB) replayed by
# `odrcoord -verify -workers 2 -windows 8` three times: static; under the
# band cache policy, whose serial observation pass is the coordinated
# run's floor; and band again on a pool of a twelfth of the week's
# population bytes (16,936,750,686,699 B), the ratio the bench's band runs
# use, because the scale-default pool never fills on the week and so
# never evicts. Each run prints its worker processes line (with each
# process's GOMAXPROCS), its coordinator line (trace hash, state pass,
# merge+digest, peak RSS), its workers' stage medians and peak RSS, its
# reference line (the single-process replay's wall and the process peak
# RSS after it), the bytes its checkpoint directory holds in state files
# and in partials, and its DISTRIB verdict. The trace and the checkpoints land in a mktemp
# dir removed on exit. About 45 s on 2 vCPUs; not part of ci.
paperscale-coord:
	@dir="$$(mktemp -d)" || exit 1; trap 'rm -rf "$$dir"' EXIT; \
	$(GO) build -o "$$dir" ./cmd/odrcoord ./cmd/wgen || exit 1; \
	"$$dir/wgen" -files 563517 -seed 1 -format bin -out "$$dir/week.bin" || exit 1; \
	for policy in static band band-pool; do \
		case "$$policy" in \
		static) pol="" ;; \
		band) pol="-cache-policy band" ;; \
		band-pool) pol="-cache-policy band -pool-bytes 16936750686699" ;; \
		esac; \
		"$$dir/odrcoord" -trace "$$dir/week.bin" -checkpoint "$$dir/ckpt" \
			-workers 2 -windows 8 -verify $$pol >"$$dir/run.log" 2>&1; \
		rc="$$?"; \
		echo "paperscale-coord ($$policy):"; \
		grep -E '^(worker processes:|coordinator:|worker windows:|reference:)' "$$dir/run.log"; \
		echo "checkpoint: $$(ls "$$dir"/ckpt/state-*.odrs 2>/dev/null | wc -l) state files" \
			"$$(cat "$$dir"/ckpt/state-*.odrs 2>/dev/null | wc -c) B," \
			"$$(ls "$$dir"/ckpt/window-*.odrp 2>/dev/null | wc -l) partials" \
			"$$(cat "$$dir"/ckpt/window-*.odrp 2>/dev/null | wc -c) B"; \
		grep -E '^DISTRIB verdict:' "$$dir/run.log"; \
		[ "$$rc" -eq 0 ] || { cat "$$dir/run.log"; echo "paperscale-coord: $$policy run exited $$rc"; exit 1; }; \
		rm -rf "$$dir/ckpt"; \
	done

# distributed-smoke proves the multi-process replay coordinator end to
# end at ~200k tasks: generate a bin trace, run a 3-worker coordinated
# replay under the prewarm policy on a pool small enough to evict (so a
# dynamic pool, ghost ring and all, crosses a process boundary in every
# state file) that crashes one worker mid-window — its process must be
# replaced by a fresh one, which the "worker processes:" summary counts as
# a respawn — and halts after two checkpointed windows (exit code 3), tear one of the checkpointed
# partials and one of the window state files in half as a crash mid-write
# would, then rerun the same command to resume from the manifest with
# -verify — the torn partial must be detected and its window recomputed,
# the state files recomputed rather than trusted, and the merged digest
# must be byte-identical to a single-process replay of the same trace,
# crash, torn writes and all. A 2-worker run on the same trace with no
# policy moves static state (the census prefix's count) between
# processes: it halts after two windows, and a -verify rerun must resume
# and verify too, and print its reference's wall and peak RSS. Last, a
# coordinator crash: a 2-worker run over 200 windows (so the run outlasts
# its first window by seconds) starts in its own session, and once the
# manifest shows a done window the whole process group — coordinator and
# workers — is killed with SIGKILL, as a host crash would; the
# coordinator must still have been running, and a rerun with -verify
# must resume and verify. Then a corrupt census: one byte flipped inside
# the file table of a copy of the trace (the table ends where the 20-byte
# trailer begins) must fail the coordinator with exit code 1 and an error
# naming the table, before any worker process starts or writes a partial.
# Set DISTRIB_SMOKE_DIR to keep the trace, checkpoint, and logs (CI points it at a workspace path and uploads
# them as artifacts on failure); by default everything lands in a mktemp
# dir removed on exit.
DISTRIB_SMOKE_POOL := -cache-policy prewarm -pool-bytes 500000000000
distributed-smoke:
	@dir="$(DISTRIB_SMOKE_DIR)"; \
	if [ -z "$$dir" ]; then \
		dir="$$(mktemp -d)" || exit 1; trap 'rm -rf "$$dir"' EXIT; \
	fi; \
	mkdir -p "$$dir"; \
	$(GO) build -o "$$dir" ./cmd/odrcoord ./cmd/wgen || exit 1; \
	"$$dir/wgen" -files 27500 -seed 7 -format bin -out "$$dir/trace.bin" || exit 1; \
	"$$dir/odrcoord" -trace "$$dir/trace.bin" -checkpoint "$$dir/ckpt" $(DISTRIB_SMOKE_POOL) \
		-workers 3 -crash-window 1 -halt-after 2 >"$$dir/run1.log" 2>&1; \
	rc="$$?"; cat "$$dir/run1.log"; \
	[ "$$rc" -eq 3 ] || { echo "distributed-smoke: first run exited $$rc, want 3 (halted)"; exit 1; }; \
	grep -Eq '^worker processes: +[0-9]+ spawned, [0-9]+ windows, [1-9][0-9]* respawned, GOMAXPROCS [0-9]+ each$$' "$$dir/run1.log" || \
		{ echo "distributed-smoke: the crashed worker process was not replaced by a fresh one"; exit 1; }; \
	for pattern in '*.odrp' 'state-*.odrs'; do \
		torn="$$(ls "$$dir"/ckpt/$$pattern | head -n 1)"; \
		[ -n "$$torn" ] || { echo "distributed-smoke: halted run left no $$pattern file to tear"; exit 1; }; \
		size="$$(wc -c <"$$torn")"; \
		head -c "$$((size / 2))" "$$torn" >"$$torn.half" && mv "$$torn.half" "$$torn" || exit 1; \
	done; \
	"$$dir/odrcoord" -trace "$$dir/trace.bin" -checkpoint "$$dir/ckpt" $(DISTRIB_SMOKE_POOL) \
		-workers 3 -verify >"$$dir/run2.log" 2>&1; \
	rc="$$?"; cat "$$dir/run2.log"; \
	[ "$$rc" -eq 0 ] || { echo "distributed-smoke: resume run exited $$rc"; exit 1; }; \
	grep -q 'resumed:' "$$dir/run2.log" || \
		{ echo "distributed-smoke: resume never picked up the checkpoint"; exit 1; }; \
	grep -q 'checkpointed partial invalid .* recomputing' "$$dir/run2.log" || \
		{ echo "distributed-smoke: resume trusted the torn partial $$torn"; exit 1; }; \
	grep -q '^DISTRIB verdict: PASS' "$$dir/run2.log" || \
		{ echo "distributed-smoke: merged digest did not verify"; exit 1; }; \
	"$$dir/odrcoord" -trace "$$dir/trace.bin" -checkpoint "$$dir/ckpt-static" \
		-workers 2 -halt-after 2 >"$$dir/run3.log" 2>&1; \
	rc="$$?"; cat "$$dir/run3.log"; \
	[ "$$rc" -eq 3 ] || { echo "distributed-smoke: static run exited $$rc, want 3 (halted)"; exit 1; }; \
	"$$dir/odrcoord" -trace "$$dir/trace.bin" -checkpoint "$$dir/ckpt-static" \
		-workers 2 -verify >"$$dir/run3b.log" 2>&1; \
	rc="$$?"; cat "$$dir/run3b.log"; \
	[ "$$rc" -eq 0 ] || { echo "distributed-smoke: static resume run exited $$rc"; exit 1; }; \
	grep -q 'resumed:' "$$dir/run3b.log" || \
		{ echo "distributed-smoke: static resume never picked up the checkpoint"; exit 1; }; \
	grep -q '^DISTRIB verdict: PASS' "$$dir/run3b.log" || \
		{ echo "distributed-smoke: static merged digest did not verify"; exit 1; }; \
	grep -Eq '^reference: +base-0 window of [0-9]+ tasks, [0-9.]+s wall, process peak RSS [0-9.]+ MB$$' "$$dir/run3b.log" || \
		{ echo "distributed-smoke: -verify did not report its reference's wall and peak RSS"; exit 1; }; \
	setsid "$$dir/odrcoord" -trace "$$dir/trace.bin" -checkpoint "$$dir/ckpt-kill" \
		-workers 2 -windows 200 >"$$dir/run4.log" 2>&1 & pid="$$!"; \
	for i in $$(seq 3000); do \
		grep -q '"state": "done"' "$$dir/ckpt-kill/manifest.json" 2>/dev/null && break; \
		kill -0 "$$pid" 2>/dev/null || break; \
		sleep 0.01; \
	done; \
	kill -KILL "-$$pid"; killed="$$?"; \
	wait "$$pid"; rc="$$?"; cat "$$dir/run4.log"; \
	[ "$$killed" -eq 0 ] && [ "$$rc" -eq 137 ] || \
		{ echo "distributed-smoke: coordinator exited $$rc before the kill, want 137 (killed mid-run)"; exit 1; }; \
	grep -q '"state": "done"' "$$dir/ckpt-kill/manifest.json" || \
		{ echo "distributed-smoke: coordinator killed before any window was done"; exit 1; }; \
	"$$dir/odrcoord" -trace "$$dir/trace.bin" -checkpoint "$$dir/ckpt-kill" \
		-workers 2 -windows 200 -verify >"$$dir/run5.log" 2>&1; \
	rc="$$?"; grep 'resumed:' "$$dir/run5.log"; tail -n 5 "$$dir/run5.log"; \
	[ "$$rc" -eq 0 ] || { echo "distributed-smoke: run after the coordinator kill exited $$rc"; exit 1; }; \
	grep -q 'resumed:' "$$dir/run5.log" || \
		{ echo "distributed-smoke: run after the coordinator kill did not resume"; exit 1; }; \
	grep -q '^DISTRIB verdict: PASS' "$$dir/run5.log" || \
		{ echo "distributed-smoke: merged digest after the coordinator kill did not verify"; exit 1; }; \
	cp "$$dir/trace.bin" "$$dir/bad-table.bin" || exit 1; \
	off="$$(( $$(wc -c <"$$dir/bad-table.bin") - 21 ))"; \
	byte="$$(od -An -tu1 -j "$$off" -N1 "$$dir/bad-table.bin" | tr -d ' ')"; \
	printf "$$(printf '\\%03o' "$$((byte ^ 255))")" | \
		dd of="$$dir/bad-table.bin" bs=1 seek="$$off" conv=notrunc 2>/dev/null || exit 1; \
	"$$dir/odrcoord" -trace "$$dir/bad-table.bin" -checkpoint "$$dir/ckpt-table" \
		-workers 2 >"$$dir/run6.log" 2>&1; \
	rc="$$?"; cat "$$dir/run6.log"; \
	[ "$$rc" -eq 1 ] || { echo "distributed-smoke: run over a corrupt file table exited $$rc, want 1"; exit 1; }; \
	grep -q 'file table' "$$dir/run6.log" || \
		{ echo "distributed-smoke: the corrupt file table's error does not name the table"; exit 1; }; \
	grep -Eq '^worker processes: +0 spawned,' "$$dir/run6.log" || \
		{ echo "distributed-smoke: a run over a corrupt file table started worker processes"; exit 1; }; \
	if ls "$$dir"/ckpt-table/*.odrp >/dev/null 2>&1; then \
		echo "distributed-smoke: a run over a corrupt file table wrote a partial"; exit 1; \
	fi

# matrix-smoke drives the declarative path end to end from one command: a
# 2×2 {profile × fault intensity} grid over a small 10-day trace, with a
# pressured pool and daily timeline windows, exactly as a user would run
# it. It proves the scenario layer, the matrix runner, the long-horizon
# workload schedules, and the timeline report all still compose.
matrix-smoke:
	$(GO) run ./cmd/scenario -files 2000 -sample 200 -days 10 \
		-profiles baseline,flash-crowd -fault-grid '0;0.25' \
		-policies lru -window 24 -pool-divisor 12

build:
	$(GO) build ./...

vet:
	$(GO) vet ./...

# The tree must be gofmt-clean; list the offenders and fail otherwise.
fmt:
	@files="$$(gofmt -l .)"; \
	if [ -n "$$files" ]; then \
		echo "gofmt needed on:"; echo "$$files"; exit 1; \
	fi

test:
	$(GO) test ./...

race:
	$(GO) test -race ./...

# Every internal package must be imported — transitively, test files
# aside — by something that runs: a command, the repo benchmark, an
# example, or the root facade. The exceptions are listed here with the
# reason each is kept; an unlisted unreached package fails the check, and
# so does a listed one that gained a caller or went away, so the list can
# only shrink.
# floor-tested library, no caller: the smart-AP job daemon and its TCP protocol (TestFigure1EndToEnd drives it)
REACH_ALLOW += internal/apctl
# floor-tested library, no caller: the HTTP/LEDBAT fetcher only apctl drives
REACH_ALLOW += internal/fetch
# floor-tested library, no caller: the packet-level simulator no experiment imports
REACH_ALLOW += internal/netsim
# test support: the backend conformance suite, imported by _test files only
REACH_ALLOW += internal/backend/backendtest
reach:
	@mod="$$($(GO) list -m)" || exit 1; \
	all="$$($(GO) list ./internal/...)" || exit 1; \
	reached="$$($(GO) list -deps . ./cmd/... ./bench ./examples/...)" || exit 1; \
	fail=0; \
	for pkg in $$all; do \
		short="$${pkg#$$mod/}"; \
		case " $(REACH_ALLOW) " in *" $$short "*) listed=1 ;; *) listed=0 ;; esac; \
		if printf '%s\n' "$$reached" | grep -qxF "$$pkg"; then \
			[ "$$listed" -eq 0 ] || { echo "reach: $$short is on REACH_ALLOW but is reached now; take it off the list"; fail=1; }; \
		else \
			[ "$$listed" -eq 1 ] || { echo "reach: $$short is imported by no command, benchmark, example or the facade"; fail=1; }; \
		fi; \
	done; \
	for short in $(REACH_ALLOW); do \
		printf '%s\n' "$$all" | grep -qxF "$$mod/$$short" || \
			{ echo "reach: $$short is on REACH_ALLOW but is not a package"; fail=1; }; \
	done; \
	[ "$$fail" -eq 0 ] && echo "reach: every internal package is reached or listed ($(words $(REACH_ALLOW)) listed)"; \
	exit "$$fail"

# The sharded replay engine must produce byte-identical results at any
# parallelism, and the bytes it has always produced; run its invariance
# and golden-digest tests single- and multi-threaded. So must the trace
# writers and the workload hash, which format on GOMAXPROCS lanes, the
# CSV reader, which parses on GOMAXPROCS lanes (held to the serial reader
# it replaced, and to leaving no goroutine behind), the ordered lanes
# themselves, and the generator, whose plan counts on GOMAXPROCS
# goroutines. The replay's Population must give every record the ordinals
# its maps would, whether it takes the bin decoder's trace ordinal or
# falls back to the maps.
DETERMINISM_FLAGS := -race -cpu 1,4
determinism:
	$(call tests,./internal/replay,TestReplayDeterminism TestReplayGolden TestReplayPopulationEdges,$(DETERMINISM_FLAGS))
	$(call tests,./internal/backend,TestPopulationOrdinalsMatchMaps,$(DETERMINISM_FLAGS))
	$(call tests,./internal/trace,TestWriteRecordsBatchBoundaries TestWriteRecordsErrors TestCSVLaneReaderMatchesSerial TestCSVReaderGoroutines,$(DETERMINISM_FLAGS))
	$(call tests,./internal/lanes,TestReadOrder TestReadRestAndClose,$(DETERMINISM_FLAGS))
	$(call tests,./internal/workload,TestGenerateStreamMatchesGenerate TestRequestsWorkersMatchesSequential TestStreamTimeThenIndexOrder,$(DETERMINISM_FLAGS))

# Coverage floors. The metrics subsystem is the measurement instrument
# and the fault layer decides what fails and when — neither may rot
# unexercised. Profiles go to a fresh mktemp path removed on exit, so
# concurrent builds on one machine never clobber each other's files.
COVER_FLOORS := internal/obs:85 internal/faults:85 internal/cloud:85 \
	internal/scenario:85 internal/ratelimit:85 internal/ingest:85 \
	internal/trace:85 internal/distrib:85
cover:
	@prof="$$(mktemp)" || exit 1; \
	trap 'rm -f "$$prof"' EXIT; \
	for spec in $(COVER_FLOORS); do \
		pkg="$${spec%%:*}"; floor="$${spec##*:}"; \
		$(GO) test -coverprofile="$$prof" "./$$pkg" >/dev/null || exit 1; \
		total="$$($(GO) tool cover -func="$$prof" | awk '/^total:/ {sub(/%/, "", $$3); print $$3}')"; \
		echo "$$pkg coverage: $$total% (floor $$floor%)"; \
		awk -v t="$$total" -v floor="$$floor" \
			'BEGIN { exit (t+0 < floor+0) ? 1 : 0 }' || \
			{ echo "$$pkg coverage below $$floor%"; exit 1; }; \
	done

# Steady-state per-request allocations on the replay hot path must stay at
# or below one object; TestStreamSteadyStateAllocs measures the marginal
# malloc slope between two stream lengths. A 256-item decide batch through
# the server must cost at most three objects per item
# (TestBatchHandlerAllocs). The CSV trace codec allocates nothing per
# encoded record and, decoding, only on a record's first sighting of its
# user or file (TestCSVSteadyStateAllocs). The streamed digest allocates
# per goroutine, never per task: 20k and 200k records cost the same
# (TestDigestAllocs), and so does the workload hash: 100 and 2,800
# records cost the same (TestHashAllocs). All five tests carry a !race
# build tag (race instrumentation allocates per tracked access), so they
# run here rather than inside the race target.
allocgate:
	$(call tests,./internal/replay,TestStreamSteadyStateAllocs TestDigestAllocs,-count 1)
	$(call tests,./internal/odrweb,TestBatchHandlerAllocs,-count 1)
	$(call tests,./internal/trace,TestCSVSteadyStateAllocs TestHashAllocs,-count 1)

# Replay benchmarks: the shard-count throughput sweep plus the streaming
# pipeline's allocation profile, the metrics hot path, the windowed
# timeline on/off pair, the storage pool's per-policy demand loop, and one
# worker serving a coordinated band run's 8 windows (ns/record).
# -count 5 repeated runs with -benchmem give the aggregator enough
# samples.
bench:
	$(GO) test -run '^$$' \
		-bench 'BenchmarkStreamReplay|BenchmarkReplayParallel|BenchmarkReplayTimeline' \
		-benchmem -benchtime 3x -count 5 ./internal/replay
	$(GO) test -run '^$$' -bench BenchmarkRegistryHotPath \
		-benchmem -count 5 ./internal/obs
	$(GO) test -run '^$$' -bench BenchmarkStoragePool \
		-benchmem -benchtime 200000x -count 5 ./internal/cloud
	$(GO) test -run '^$$' -bench BenchmarkTraceCodec \
		-benchmem -benchtime 20x -count 5 ./internal/trace
	$(GO) test -run '^$$' -bench BenchmarkGenerateStream \
		-benchmem -benchtime 1x -count 5 ./internal/workload
	$(GO) test -run '^$$' -bench BenchmarkWorkerWindows \
		-benchmem -benchtime 5x -count 5 ./internal/distrib

# The tracked benchmark baseline. bench-save reruns the suite and rewrites
# it; bench-compare reruns the suite and diffs median metrics against it,
# failing on an allocs/op regression (throughput deltas are informational
# — wall-clock noise on shared hardware is not a CI signal, allocation
# counts are exact). cmd/benchjson is the repo-local benchstat stand-in.
BENCH_BASELINE := BENCH_replay.json
bench-save:
	$(MAKE) bench | $(GO) run ./cmd/benchjson -save $(BENCH_BASELINE)
bench-compare:
	$(MAKE) bench | $(GO) run ./cmd/benchjson -compare $(BENCH_BASELINE)

# benchmark runs the repo benchmark (BENCHMARK.json): all five workloads
# at the pinned seed, digests checked against bench/pinned.json. One
# workload at a time is `bash bench/run.sh --workload NAME --seed 7`.
benchmark:
	bash bench/run.sh --seed 7
