#!/usr/bin/env bash
# check.sh — the CI gate: sanitizer build, full test suite, differential
# fuzz smoke, a repeated run of the timing-sensitive suites, and a live
# run-control proof.
#
# Configures a Debug build with AddressSanitizer + UndefinedBehaviorSanitizer,
# builds everything, runs ctest, repeats the timing-sensitive suites 20
# times alone and under -j$(nproc), runs a pmbe_selfcheck smoke (which includes
# a budget-truncation check every round), and drives the CLI against a
# worst-case graph with --timeout_s 1 to prove that cooperative
# cancellation terminates promptly and cleanly under the sanitizers. Then
# the configuration matrices: the kernel-dispatch legs (scalar pin via
# PMBE_FORCE_SCALAR=1, AVX2 TU left out by presetting the compiler check
# -DPMBE_COMPILER_HAS_AVX2=OFF), the
# tuner legs (default / --tune) and the engine legs (mbet/imbea/bbk), all
# required to enumerate identical
# bicliques; the fault-injection matrix
# (-DPMBE_FAULT_INJECTION=ON + ASan: countdown sweep over every fault
# point, chaos rounds, CLI/env arming, graph_io/frontier/wire fuzz
# smokes); the serve leg (daemon + concurrent digest-verified sessions,
# injected worker/sink faults, SIGTERM drain) and the serve-chaos leg
# (network fault injection absorbed by the fault-tolerant client, plus a
# mid-traffic hot graph reload); a memory-budget proof; the
# durable-frontier leg (fault- and SIGKILL-interrupted checkpointing runs
# resumed, plus a 4-process shard merge, all digest-identical to
# uninterrupted runs); and the TSan leg.
#
#   scripts/check.sh [build-dir]        # default build dir: build-asan

set -euo pipefail

cd "$(dirname "$0")/.."
BUILD_DIR="${1:-build-asan}"

SAN_FLAGS="-fsanitize=address,undefined -fno-sanitize-recover=all"

echo "=== bench baseline hygiene: no debug-build BENCH_*.json committed ==="
# Every harness refuses --json from a non-release build (bench/harness.cc
# JsonRecordingAllowed) unless --allow_debug is passed; this backstop
# catches an --allow_debug artifact that was committed anyway.
if grep -l '"library_build_type": "debug"' bench/BENCH_*.json 2>/dev/null; then
  echo "FAIL: committed bench baseline(s) above were recorded from a debug" \
       "build; re-record with a -DCMAKE_BUILD_TYPE=Release binary" >&2
  exit 1
fi
echo "bench baselines OK"

echo "=== configure ($BUILD_DIR: Debug + ASan/UBSan) ==="
cmake -B "$BUILD_DIR" -S . \
  -DCMAKE_BUILD_TYPE=Debug \
  -DCMAKE_CXX_FLAGS="$SAN_FLAGS" \
  -DCMAKE_EXE_LINKER_FLAGS="$SAN_FLAGS"

echo "=== build ==="
cmake --build "$BUILD_DIR" -j "$(nproc)"

echo "=== ctest ==="
ctest --test-dir "$BUILD_DIR" --output-on-failure -j "$(nproc)"

echo "=== timing leg: speed-dependent suites, 20 repeats solo and loaded ==="
# No test result may depend on wall-clock speed. The deadline, cancel,
# watchdog, admission and checkpoint suites run 20 times back to back,
# first alone and then competing with each other for every core; any run
# that turns red stops the leg. Every `ctest -R` leg in this script passes
# --no-tests=error, so a regex that matches nothing fails instead of
# passing silently.
TIMING_SUITES='RunControlTest|WatchdogTest|ControlTimesBudgetTest|ServeTest|ClientTest|CheckpointResumeTest'
timing_start_ms=$(date +%s%3N)
ctest --test-dir "$BUILD_DIR" --output-on-failure --no-tests=error \
  -R "$TIMING_SUITES" --repeat until-fail:20
ctest --test-dir "$BUILD_DIR" --output-on-failure --no-tests=error \
  -R "$TIMING_SUITES" --repeat until-fail:20 -j "$(nproc)"
echo "timing leg OK in $(( $(date +%s%3N) - timing_start_ms ))ms"

echo "=== selfcheck smoke (differential fuzz + budget truncation) ==="
"$BUILD_DIR/tools/pmbe_selfcheck" --rounds 25 --seed 1

echo "=== run-control proof: 1s deadline on a worst-case graph ==="
# The crown graph K_{40,40} minus a perfect matching (gen::Crown(40)) has
# 2^40 - 2 maximal bicliques, so no host finishes it before the deadline,
# sanitized or not; the run must stop on the deadline, report it, and exit
# 0 with the valid prefix counted. The dataset registry has no crown
# graph, so the leg writes one as an edge list and loads it with --input.
CROWN_FILE=$(mktemp /tmp/pmbe_crown_XXXXXX)
{
  echo "# pmbe 40 40"
  for ((i = 0; i < 40; ++i)); do
    for ((j = 0; j < 40; ++j)); do
      if (( i != j )); then echo "$i $j"; fi
    done
  done
} > "$CROWN_FILE"
for threads in 1 4; do
  start_ms=$(date +%s%3N)
  out=$("$BUILD_DIR/tools/pmbe" --input "$CROWN_FILE" --timeout_s 1 \
        --threads "$threads" --stats=false)
  elapsed_ms=$(( $(date +%s%3N) - start_ms ))
  echo "$out" | sed "s/^/  [threads=$threads] /"
  echo "$out" | grep -q "stopped early: deadline" || {
    echo "FAIL: deadline termination not reported (threads=$threads)" >&2
    exit 1
  }
  # Generous sanitizer headroom; the unsanitized bound is ~1.2s.
  if (( elapsed_ms > 3000 )); then
    echo "FAIL: deadline overshoot: ${elapsed_ms}ms (threads=$threads)" >&2
    exit 1
  fi
  echo "  [threads=$threads] stopped in ${elapsed_ms}ms"
done
rm -f "$CROWN_FILE"

echo "=== kernel-dispatch matrix: scalar pin + AVX2 compiled out ==="
# The vectorized kernel layer (util/simd.h) must be behaviorally invisible:
# the same bicliques whether kernels dispatch to AVX2, are pinned to the
# scalar table via the environment, or have the AVX2 TU left out of the
# build entirely. Leg 1 re-runs the kernel-heavy suites of the sanitizer
# build with the scalar pin (the SIMD differential fuzzer already ran under
# ASan/UBSan in the ctest pass above, on both tables the host has). The
# reference count is one selfcheck run of the sanitized build on its
# default dispatch, with the --rounds/--seed both legs use.
ref_out=$("$BUILD_DIR/tools/pmbe_selfcheck" --rounds 25 --seed 7)
echo "$ref_out" | sed 's/^/  [reference] /'
ref_count=$(echo "$ref_out" | grep -o '[0-9]* bicliques' | grep -o '[0-9]*')

echo "--- leg PMBE_FORCE_SCALAR=1 ($BUILD_DIR) ---"
PMBE_FORCE_SCALAR=1 ctest --test-dir "$BUILD_DIR" --output-on-failure \
  --no-tests=error -j "$(nproc)" \
  -R 'Simd|SetOps|SetKernels|MembershipMask|NeighborhoodTrie'
scalar_out=$(PMBE_FORCE_SCALAR=1 "$BUILD_DIR/tools/pmbe_selfcheck" \
             --rounds 25 --seed 7)
echo "$scalar_out" | sed 's/^/  /'
echo "$scalar_out" | grep -q 'kernel dispatch: scalar' || {
  echo "FAIL: PMBE_FORCE_SCALAR=1 leg did not run on the scalar table" >&2
  exit 1
}
scalar_count=$(echo "$scalar_out" | grep -o '[0-9]* bicliques' | grep -o '[0-9]*')

echo "--- leg -DPMBE_COMPILER_HAS_AVX2=OFF ($BUILD_DIR-noavx2) ---"
# A preset cache entry skips check_cxx_compiler_flag(-mavx2), so the AVX2
# TU drops out and only the scalar table is linked.
NOAVX2_DIR="$BUILD_DIR-noavx2"
cmake -B "$NOAVX2_DIR" -S . \
  -DCMAKE_BUILD_TYPE=Release \
  -DPMBE_COMPILER_HAS_AVX2=OFF
cmake --build "$NOAVX2_DIR" -j "$(nproc)"
ctest --test-dir "$NOAVX2_DIR" --output-on-failure -j "$(nproc)"
noavx2_out=$("$NOAVX2_DIR/tools/pmbe_selfcheck" --rounds 25 --seed 7)
echo "$noavx2_out" | sed 's/^/  /'
echo "$noavx2_out" | grep -q 'kernel dispatch: scalar' || {
  echo "FAIL: the noavx2 build still dispatched to an AVX2 table" >&2
  exit 1
}
noavx2_count=$(echo "$noavx2_out" | grep -o '[0-9]* bicliques' | grep -o '[0-9]*')

# Same --rounds/--seed as the reference run, so all three counts must
# agree exactly.
if [[ -z "$ref_count" || "$scalar_count" != "$ref_count" || \
      "$noavx2_count" != "$ref_count" ]]; then
  echo "FAIL: selfcheck biclique counts diverge across dispatch legs:" \
       "scalar=$scalar_count noavx2=$noavx2_count reference=$ref_count" >&2
  exit 1
fi
echo "kernel-dispatch matrix OK: $scalar_count bicliques in every leg"

echo "=== tuner matrix: default + --tune, every leg count-identical ==="
# The workload-adaptive tuner (docs/TUNING.md) must be behaviorally
# invisible: the same bicliques with the default knobs and with the tuner
# choosing the engine (--tune) — under
# the sanitizers, on the scalar-pinned table, and in the AVX2-compiled-out
# build. Reuses the builds from the legs above. The two sanitized legs run
# on the session pool at 4 threads, the Release noavx2 leg serially, so
# every row also checks count identity across thread counts.
tune_ref=""
for cfg in "" "--tune"; do
  for leg in asan scalar noavx2; do
    leg_start=$SECONDS
    case "$leg" in
      asan)   out=$("$BUILD_DIR/tools/pmbe" --dataset DBT --scale 0.2 \
                    --threads 4 --stats=false $cfg) ;;
      scalar) out=$(PMBE_FORCE_SCALAR=1 "$BUILD_DIR/tools/pmbe" --dataset DBT \
                    --scale 0.2 --threads 4 --stats=false $cfg) ;;
      noavx2) out=$("$NOAVX2_DIR/tools/pmbe" --dataset DBT --scale 0.2 \
                    --stats=false $cfg) ;;
    esac
    count=$(echo "$out" | grep -o '[0-9]* maximal bicliques' | grep -o '[0-9]*')
    [[ -n "$count" ]] || {
      echo "FAIL: no biclique count from leg $leg (${cfg:-(default)})" >&2
      exit 1
    }
    if [[ -z "$tune_ref" ]]; then
      tune_ref="$count"
    elif [[ "$count" != "$tune_ref" ]]; then
      echo "FAIL: tuner matrix diverges: leg $leg (${cfg:-(default)}) found" \
           "$count bicliques, reference found $tune_ref" >&2
      exit 1
    fi
    echo "  [$leg, ${cfg:-(default)}] $count bicliques" \
         "($((SECONDS - leg_start)) s)"
  done
done
echo "tuner matrix OK: $tune_ref bicliques in every leg"

echo "=== engine matrix: mbet / imbea / bbk count-identical on every leg ==="
# The interchangeable engines (docs/ALGORITHM.md) must enumerate the same
# set whatever the build: sanitized adaptive dispatch, the scalar-pinned
# table, and the AVX2-compiled-out build. BBK's fixed candidate order and
# witness-ordered Q scans change the traversal, never the output. As in the
# tuner matrix, the sanitized legs run at 4 threads and noavx2 serially.
engine_ref=""
for algo in mbet imbea bbk; do
  for leg in asan scalar noavx2; do
    leg_start=$SECONDS
    case "$leg" in
      asan)   out=$("$BUILD_DIR/tools/pmbe" --dataset DBT --scale 0.2 \
                    --threads 4 --algorithm "$algo" --stats=false) ;;
      scalar) out=$(PMBE_FORCE_SCALAR=1 "$BUILD_DIR/tools/pmbe" --dataset DBT \
                    --scale 0.2 --threads 4 --algorithm "$algo" \
                    --stats=false) ;;
      noavx2) out=$("$NOAVX2_DIR/tools/pmbe" --dataset DBT --scale 0.2 \
                    --algorithm "$algo" --stats=false) ;;
    esac
    count=$(echo "$out" | grep -o '[0-9]* maximal bicliques' | grep -o '[0-9]*')
    [[ -n "$count" ]] || {
      echo "FAIL: no biclique count from engine leg $leg ($algo)" >&2
      exit 1
    }
    if [[ -z "$engine_ref" ]]; then
      engine_ref="$count"
    elif [[ "$count" != "$engine_ref" ]]; then
      echo "FAIL: engine matrix diverges: leg $leg ($algo) found $count" \
           "bicliques, reference found $engine_ref" >&2
      exit 1
    fi
    echo "  [$leg, $algo] $count bicliques ($((SECONDS - leg_start)) s)"
  done
done
echo "engine matrix OK: $engine_ref bicliques in every leg"

echo "=== fault-injection matrix: -DPMBE_FAULT_INJECTION=ON + ASan ==="
# Compile the named fault points in (util/fault.h) and prove, under ASan,
# that every injected failure ends in a typed termination with a valid
# result prefix — never a crash or a leak. The countdown sweep
# (pmbe_selfcheck --fault_sweep) fires every registered point at depths
# 1..N; the chaos rounds layer probabilistic faults, memory caps, and
# watchdogs over the differential graphs; the CLI legs prove the
# programmatic (--fault) and environment (PMBE_FAULT_INJECT) arming paths.
FAULT_DIR="$BUILD_DIR-fault"
cmake -B "$FAULT_DIR" -S . \
  -DCMAKE_BUILD_TYPE=RelWithDebInfo \
  -DPMBE_FAULT_INJECTION=ON \
  -DPMBE_BUILD_FUZZERS=ON \
  -DCMAKE_CXX_FLAGS="$SAN_FLAGS" \
  -DCMAKE_EXE_LINKER_FLAGS="$SAN_FLAGS"
cmake --build "$FAULT_DIR" -j "$(nproc)"
ctest --test-dir "$FAULT_DIR" --output-on-failure --no-tests=error \
  -j "$(nproc)" -R 'Fault|MemoryBudget|MemoryLimit|Containment|Watchdog|ControlTimesBudget|GraphIo'
"$FAULT_DIR/tools/pmbe_selfcheck" --fault_sweep
"$FAULT_DIR/tools/pmbe_selfcheck" --rounds 10 --seed 3 --chaos
fault_out=$("$FAULT_DIR/tools/pmbe" --dataset GH --fault 'arena.grow:1' \
            --max_memory_mb 64 --stats=false)
echo "$fault_out" | sed 's/^/  [--fault] /'
echo "$fault_out" | grep -q "stopped early: memory-limit" || {
  echo "FAIL: --fault arena.grow:1 did not stop with memory-limit" >&2
  exit 1
}
env_out=$(PMBE_FAULT_INJECT='worker.task:1' "$FAULT_DIR/tools/pmbe" \
          --dataset GH --threads 4 --watchdog_s 10 --stats=false)
echo "$env_out" | sed 's/^/  [env] /'
echo "$env_out" | grep -q "stopped early: internal" || {
  echo "FAIL: PMBE_FAULT_INJECT worker.task:1 did not stop with internal" >&2
  exit 1
}
echo "fault matrix OK"

echo "=== durable-frontier leg: fault + SIGKILL interrupts, resume, shard merge ==="
# The restart-correctness contract of docs/CHECKPOINT.md, proven live
# under ASan: the frontier digest of an interrupted-then-resumed run — or
# of four merged per-process shards — is bit-identical to the digest of an
# uninterrupted single-process checkpointed run of the same graph and
# algorithm, for every parallel algorithm family at 1 and 8 threads.
CKPT_DIR=$(mktemp -d /tmp/pmbe_ckpt_XXXXXX)
digest_of() { grep -o 'frontier digest: 0x[0-9a-f]*' | head -1 | awk '{print $3}'; }
declare -A durable_ref
for algo in mbet mbea imbea bbk; do
  for threads in 1 8; do
    tag="$algo t=$threads"
    # Fresh durable runs refuse to overwrite an existing snapshot, so
    # clear the previous iteration's file first.
    rm -f "$CKPT_DIR/ref.snap"
    ref=$("$FAULT_DIR/tools/pmbe" --dataset DBT --scale 0.1 \
          --algorithm "$algo" --threads "$threads" \
          --checkpoint_path "$CKPT_DIR/ref.snap" --stats=false | digest_of)
    [[ -n "$ref" ]] || { echo "FAIL: [$tag] no reference digest" >&2; exit 1; }
    echo "  [$tag] reference digest $ref"
    # The digest is thread-count-independent, so both thread counts of an
    # algorithm must already agree before any interruption happens.
    if [[ -n "${durable_ref[$algo]:-}" && "${durable_ref[$algo]}" != "$ref" ]]; then
      echo "FAIL: [$tag] digest differs across thread counts" >&2
      exit 1
    fi
    durable_ref[$algo]="$ref"

    # Round 1: an injected worker failure interrupts the run mid-frontier;
    # the final crash snapshot must resume to the reference digest.
    rm -f "$CKPT_DIR/fault.snap"
    fault_out=$(PMBE_FAULT_INJECT='worker.task:5' "$FAULT_DIR/tools/pmbe" \
                --dataset DBT --scale 0.1 --algorithm "$algo" \
                --threads "$threads" --checkpoint_path "$CKPT_DIR/fault.snap" \
                --stats=false)
    echo "$fault_out" | grep -q "stopped early: internal" || {
      echo "FAIL: [$tag] worker.task fault did not interrupt the run" >&2
      exit 1
    }
    echo "$fault_out" | grep -q " 0 pending)" && {
      echo "FAIL: [$tag] fault-interrupted snapshot has no pending tasks" >&2
      exit 1
    }
    resumed=$("$FAULT_DIR/tools/pmbe" --dataset DBT --scale 0.1 \
              --algorithm "$algo" --threads "$threads" \
              --checkpoint_path "$CKPT_DIR/fault.snap" --resume \
              --stats=false | digest_of)
    [[ "$resumed" == "$ref" ]] || {
      echo "FAIL: [$tag] fault-resume digest $resumed != reference $ref" >&2
      exit 1
    }
    echo "  [$tag] fault interrupt + resume OK"

    # Round 2: SIGKILL — no cleanup path at all. The sanitizer build takes
    # seconds on this graph while snapshots land every 0.1s, so killing as
    # soon as the first snapshot appears lands mid-enumeration (tmp+rename
    # keeps the file complete no matter when the kill hits); the crash
    # file must resume to the reference digest.
    rm -f "$CKPT_DIR/kill.snap"
    "$FAULT_DIR/tools/pmbe" \
      --dataset DBT --scale 0.1 --algorithm "$algo" --threads "$threads" \
      --checkpoint_path "$CKPT_DIR/kill.snap" --checkpoint_every_s 0.1 \
      --stats=false >/dev/null 2>&1 &
    KILL_PID=$!
    for _ in $(seq 150); do
      [[ -s "$CKPT_DIR/kill.snap" ]] && break
      sleep 0.1
    done
    kill -9 "$KILL_PID" 2>/dev/null && killed=yes || killed="no (run finished first)"
    wait "$KILL_PID" 2>/dev/null || true
    [[ -s "$CKPT_DIR/kill.snap" ]] || {
      echo "FAIL: [$tag] no snapshot on disk before the kill" >&2
      exit 1
    }
    resumed=$("$FAULT_DIR/tools/pmbe" --dataset DBT --scale 0.1 \
              --algorithm "$algo" --threads "$threads" \
              --checkpoint_path "$CKPT_DIR/kill.snap" --resume \
              --stats=false | digest_of)
    [[ "$resumed" == "$ref" ]] || {
      echo "FAIL: [$tag] SIGKILL-resume digest $resumed != reference $ref" >&2
      exit 1
    }
    echo "  [$tag] SIGKILL + resume OK (killed: $killed)"
  done

  # Round 3: four hash-sharded processes, each enumerating a quarter of
  # the seed space into its own snapshot; the offline merge must
  # reproduce the single-process digest exactly.
  for i in 0 1 2 3; do
    rm -f "$CKPT_DIR/shard$i.snap"
    "$FAULT_DIR/tools/pmbe" --dataset DBT --scale 0.1 --algorithm "$algo" \
      --threads 8 --process_shard "$i/4" \
      --checkpoint_path "$CKPT_DIR/shard$i.snap" --stats=false >/dev/null
  done
  merged=$("$FAULT_DIR/tools/pmbe" --merge_checkpoints \
           "$CKPT_DIR/shard0.snap,$CKPT_DIR/shard1.snap,$CKPT_DIR/shard2.snap,$CKPT_DIR/shard3.snap" \
           | digest_of)
  [[ "$merged" == "${durable_ref[$algo]}" ]] || {
    echo "FAIL: [$algo] 4-shard merged digest $merged != reference" \
         "${durable_ref[$algo]}" >&2
    exit 1
  }
  echo "  [$algo] 4-process shard merge OK ($merged)"
done
rm -rf "$CKPT_DIR"
echo "durable-frontier leg OK"

echo "=== serve leg: daemon + concurrent sessions under ASan + faults ==="
# The serving stack (docs/SERVICE.md) under the sanitizer/fault build:
# pmbe_serve on a Unix socket, pmbe_load running a mixed concurrent
# workload with per-session digest verification against a local reference
# run. Three rounds: clean; one injected worker-task failure; one injected
# sink-flush failure. The fault rounds must interrupt exactly one session
# (Termination::kInternal) while every neighbor completes bit-identically
# — per-session containment on shared pool workers. Finally SIGTERM
# mid-workload must drain: in-flight sessions finish, the daemon reports
# the drain and exits 0.
SERVE_SOCK="/tmp/pmbe_check_$$.sock"
SERVE_LOG="/tmp/pmbe_check_serve_$$.log"
start_daemon() {  # start_daemon [ENV=VAL ...]
  env "$@" "$FAULT_DIR/tools/pmbe_serve" --unix="$SERVE_SOCK" \
    --max-active=8 >"$SERVE_LOG" 2>&1 &
  SERVE_PID=$!
  for _ in $(seq 100); do
    [[ -S "$SERVE_SOCK" ]] && grep -q "listening" "$SERVE_LOG" && return 0
    sleep 0.1
  done
  echo "FAIL: pmbe_serve did not come up" >&2
  cat "$SERVE_LOG" >&2
  exit 1
}
stop_daemon() {
  kill -TERM "$SERVE_PID" 2>/dev/null || true
  wait "$SERVE_PID"
}
for fault in none worker.task sink.flush; do
  if [[ "$fault" == none ]]; then
    echo "--- serve round: clean ---"
    start_daemon
  else
    echo "--- serve round: PMBE_FAULT_INJECT=$fault:1 ---"
    start_daemon PMBE_FAULT_INJECT="$fault:1"
  fi
  load_out=$("$FAULT_DIR/tools/pmbe_load" --unix="$SERVE_SOCK" \
             --graph=Mti --scale=0.3 --sessions=16 --concurrent=8)
  echo "$load_out" | sed 's/^/  /'
  echo "$load_out" | grep -q " 0 digest mismatches" || {
    echo "FAIL: serve round '$fault' corrupted a session" >&2
    exit 1
  }
  if [[ "$fault" == none ]]; then
    echo "$load_out" | grep -q "16 complete, 0 interrupted" || {
      echo "FAIL: clean serve round did not complete every session" >&2
      exit 1
    }
  else
    # The injected failure hits exactly one session; 15 neighbors finish.
    echo "$load_out" | grep -q "15 complete, 1 interrupted" || {
      echo "FAIL: fault '$fault' was not contained to one session" >&2
      exit 1
    }
  fi
  stop_daemon
done
echo "--- serve round: SIGTERM drain mid-workload ---"
start_daemon
"$FAULT_DIR/tools/pmbe_load" --unix="$SERVE_SOCK" --graph=Mti --scale=0.3 \
  --sessions=16 --concurrent=8 >/tmp/pmbe_check_drain_$$.log 2>&1 &
LOAD_PID=$!
sleep 1
kill -TERM "$SERVE_PID"
wait "$SERVE_PID" || {
  echo "FAIL: daemon exited nonzero on SIGTERM" >&2
  exit 1
}
wait "$LOAD_PID" || true  # late sessions may be rejected (draining); no corruption allowed
grep -q " 0 digest mismatches" /tmp/pmbe_check_drain_$$.log || {
  echo "FAIL: drain corrupted an in-flight session" >&2
  cat /tmp/pmbe_check_drain_$$.log >&2
  exit 1
}
grep -q "pmbe_serve draining" "$SERVE_LOG" && grep -q "pmbe_serve stopped" "$SERVE_LOG" || {
  echo "FAIL: daemon did not report a clean drain" >&2
  cat "$SERVE_LOG" >&2
  exit 1
}
rm -f "$SERVE_SOCK" "$SERVE_LOG" /tmp/pmbe_check_drain_$$.log
echo "serve leg OK"

echo "=== serve-chaos leg: network faults vs the fault-tolerant client ==="
# The resilience contract (docs/SERVICE.md, client library): with the
# daemon's socket layer sabotaged — connection resets, torn frames, read
# stalls, dropped accepts, delays (the serve/net.h fault points) — a
# pmbe_load workload driven through mbe::client::Client must still
# deliver every session exactly once, digest-identical to the fault-free
# local reference. Three rounds: deterministic countdowns (one of each
# fault at a fixed op index), a probabilistic storm (every net point at
# p=0.005, seeded), and a mid-traffic kReloadGraph swap riding a one-shot
# reset. Every round must end 16 complete / 0 interrupted / 0 rejected /
# 0 digest mismatches: faults absorbed by retry + reconnect + verified
# re-issue, never surfaced to the workload.
chaos_round() {  # chaos_round <tag> <fault-spec> [extra pmbe_load flags...]
  local tag="$1" spec="$2"; shift 2
  echo "--- chaos round: $tag ---"
  start_daemon PMBE_FAULT_INJECT="$spec"
  load_out=$("$FAULT_DIR/tools/pmbe_load" --unix="$SERVE_SOCK" \
             --graph=Mti --scale=0.3 --sessions=16 --concurrent=8 \
             --reload-upload "$@")
  echo "$load_out" | sed 's/^/  /'
  echo "$load_out" | \
    grep -q "16 complete, 0 interrupted, 0 rejected, 0 digest mismatches" || {
    echo "FAIL: chaos round '$tag' lost or corrupted a session" >&2
    exit 1
  }
  stop_daemon
}
chaos_round "countdown one-of-each" \
  "net.reset:40;net.write_truncate:25;net.read_stall:10;net.accept:1" \
  --retries=8
# The countdown offsets land mid-workload by construction, so a clean
# summary without any client-side retry would mean the faults never hit
# the wire path at all — require the absorption to be visible.
echo "$load_out" | grep -Eq "client: [0-9]+ attempts, [1-9][0-9]* retries" || {
  echo "FAIL: countdown chaos round absorbed no faults (leg is inert)" >&2
  exit 1
}
chaos_round "probabilistic storm" "net.*:p=0.005:seed=9" --retries=12
chaos_round "mid-traffic reload + reset" "net.reset:60" --retries=8 \
  --reload-after=4
echo "$load_out" | grep -q "reloaded 'Mti' mid-traffic (epoch 2)" || {
  echo "FAIL: kReloadGraph did not swap the live graph mid-traffic" >&2
  exit 1
}
rm -f "$SERVE_SOCK" "$SERVE_LOG"
echo "serve-chaos leg OK"

echo "=== memory-budget proof: capped run on a worst-case graph ==="
# DBT at 8 threads charges megabytes at peak (per-worker sink buffers +
# subtree states), so a 1 MiB cap must terminate the run (memory-limit)
# even after degradation sheds what it can; the fault_test suite pins the
# complementary properties (peak <= cap, no-cap digest identity).
cap_out=$("$BUILD_DIR/tools/pmbe" --dataset DBT --threads 8 \
          --max_memory_mb 1 --timeout_s 30 --stats=false)
echo "$cap_out" | sed 's/^/  [capped] /'
echo "$cap_out" | grep -q "stopped early: memory-limit" || {
  echo "FAIL: --max_memory_mb 1 did not stop with memory-limit" >&2
  exit 1
}
echo "memory-budget proof OK"

echo "=== graph_io fuzz smoke (bad-input corpus + mutation loop) ==="
"$FAULT_DIR/tools/fuzz_graph_io" -runs=20000 tests/data/bad/*.txt

echo "=== frontier-snapshot fuzz smoke (codec canonicity + typed errors) ==="
"$FAULT_DIR/tools/fuzz_frontier" -runs=20000

echo "=== wire-protocol fuzz smoke (total decoding + canonical encoding) ==="
"$FAULT_DIR/tools/fuzz_wire" -runs=20000

echo "=== ThreadSanitizer leg: session pool + serve + run control + sinks ==="
# Build the concurrency-relevant tests with -fsanitize=thread (mutually
# exclusive with ASan, hence a separate tree) and run the session-pool
# suites (standalone private pools, shared pools, digests across thread
# counts and durability), the serving daemon (session starts run on the
# connection readers and on the pool workers that free admission slots),
# and the run-control and sink suites under it.
TSAN_DIR="$BUILD_DIR-tsan"
TSAN_FLAGS="-fsanitize=thread -fno-sanitize-recover=all"
cmake -B "$TSAN_DIR" -S . \
  -DCMAKE_BUILD_TYPE=RelWithDebInfo \
  -DCMAKE_CXX_FLAGS="$TSAN_FLAGS" \
  -DCMAKE_EXE_LINKER_FLAGS="$TSAN_FLAGS"
cmake --build "$TSAN_DIR" -j "$(nproc)" --target \
  session_pool_test engine_session_test run_control_test sink_test serve_test
ctest --test-dir "$TSAN_DIR" --output-on-failure --no-tests=error \
  -j "$(nproc)" \
  -R 'SessionPool|ServeTest|RunControl|ControlledSink|BufferedSink|CountSink|FingerprintSink'
echo "tsan leg OK"

echo "=== all checks passed ==="
