#!/usr/bin/env bash
# Tier-1 verify gate: release build, root test suite, and a warning-free
# clippy pass across the workspace — all targets, so tests/benches/examples
# are linted too and any use of the deprecated `AllHands::analyze*` /
# `resume` facade inside the workspace fails the gate (deprecation warnings
# are denied like every other warning). The resilience and agent crates
# additionally deny clippy::unwrap_used via crate-level attributes, so the
# single clippy invocation enforces that too.
#
# Optional flags (combinable, order-free):
#   --bench-smoke   smoke-run the pipeline benchmark and schema-validate
#                   BENCH_pipeline.json. The measured speedup is recorded in
#                   the JSON, not asserted against a threshold (CI hosts may
#                   have 1 core).
#   --crash-smoke   run the crash-chaos suite on its own (kill at every
#                   journal crash point, resume, compare transcripts
#                   byte-for-byte). Also runs as part of `cargo test`; the
#                   flag exists for a focused signal after touching the
#                   journal or resilience layers.
#   --obs-smoke     run the observability suite on its own, then smoke-run
#                   the pipeline bench and schema-validate the emitted
#                   BENCH_pipeline_obs.json run report.
#   --ingest-smoke  run the incremental-ingestion suite on its own (batch
#                   byte-identity across thread counts and chaos, crash at
#                   every ingest seam + resume, span/counter shape, the
#                   search/retract facade).
#   --checkpoint-smoke
#                   run the checkpoint/compaction/recovery suite on its own
#                   (checkpoint -> compact -> kill -> recover cycle at every
#                   seam, point-in-time recover_at, corruption fuzz, journal
#                   locking), the torn-tail truncation property test, the
#                   apply-path convergence suite (resume, recover_latest
#                   and an apply_tail follower reach the leader's state on
#                   every journal prefix), and the vectordb and core unit
#                   tests — the checkpoint format spans both crates (the
#                   document index is stored as a vector-free layout and
#                   rebuilt from row embeddings on restore).
#   --scaling-smoke run the scaling + search stages of the pipeline bench on
#                   a reduced matrix (threads sweep, smoke corpus sizes) and
#                   schema-validate the emitted JSON. Curves are recorded,
#                   never asserted monotone (1-core hosts give ~1.0).
#   --iofault-smoke run the storage-fault suite (every IoFaultKind at every
#                   Vfs op index, sustained-ENOSPC read-only trip, proptest
#                   fault fuzz) and the follower-bootstrap suite at threads
#                   {1,8}.
#   --query-smoke   run the engine-differential suite (90 reference
#                   programs, join keys straddling 2^53 and ±0.0, proptest
#                   random chains — both engines byte-identical), then the
#                   query stage of the pipeline bench (row-wise vs
#                   vectorized; warm plan-cache hit rate asserted 100%,
#                   speedup recorded, not asserted).
#   --serve-smoke   run the serving/replication suite (kill-at-every-entry
#                   reconnect sweep, lag reporting, replica write refusal)
#                   and the apply-path convergence suite,
#                   then the allhands-serve end-to-end smoke — leader + 2
#                   followers on a Unix socket, reads served during an
#                   ingest, chains and fingerprints asserted converged —
#                   and the serve stage of the pipeline bench (qps at 1 vs
#                   3 replicas; recorded, not asserted).
set -euo pipefail
cd "$(dirname "$0")/.."

# Scratch dirs created by smoke stages, removed on exit.
tmp_dirs=()
cleanup() {
  for d in ${tmp_dirs[@]+"${tmp_dirs[@]}"}; do
    rm -rf "$d"
  done
}
trap cleanup EXIT

bench_smoke=0
crash_smoke=0
obs_smoke=0
ingest_smoke=0
checkpoint_smoke=0
scaling_smoke=0
iofault_smoke=0
query_smoke=0
serve_smoke=0
for arg in "$@"; do
  case "$arg" in
    --bench-smoke) bench_smoke=1 ;;
    --crash-smoke) crash_smoke=1 ;;
    --obs-smoke) obs_smoke=1 ;;
    --ingest-smoke) ingest_smoke=1 ;;
    --checkpoint-smoke) checkpoint_smoke=1 ;;
    --scaling-smoke) scaling_smoke=1 ;;
    --iofault-smoke) iofault_smoke=1 ;;
    --query-smoke) query_smoke=1 ;;
    --serve-smoke) serve_smoke=1 ;;
    *)
      echo "verify: unknown flag $arg" >&2
      exit 2
      ;;
  esac
done

echo "==> cargo build --release"
cargo build --release

echo "==> cargo test -q"
cargo test -q

echo "==> cargo clippy --workspace --all-targets -- -D warnings"
cargo clippy --workspace --all-targets -- -D warnings

if [[ "$bench_smoke" == 1 ]]; then
  echo "==> bench smoke (speedup recorded, not asserted)"
  scripts/bench.sh --smoke
fi

if [[ "$crash_smoke" == 1 ]]; then
  echo "==> crash smoke (journal resume byte-identity + poison quarantine)"
  cargo test -q --test crash_chaos
fi

if [[ "$obs_smoke" == 1 ]]; then
  echo "==> obs smoke (metric determinism, span shape, report schema)"
  cargo test -q --test observability
  out_dir="$(mktemp -d)"
  tmp_dirs+=("$out_dir")
  cargo run --release -p allhands-bench --bin pipeline_bench -- \
    --smoke --out "$out_dir/BENCH_pipeline.json"
  cargo run --release -p allhands-bench --bin pipeline_bench -- \
    --validate "$out_dir/BENCH_pipeline.json"
  for f in BENCH_pipeline.json BENCH_pipeline_obs.json; do
    [[ -s "$out_dir/$f" ]] || { echo "verify: $f missing" >&2; exit 1; }
  done
fi

if [[ "$ingest_smoke" == 1 ]]; then
  echo "==> ingest smoke (batch determinism, crash resume, index maintenance)"
  cargo test -q --test ingest_determinism
fi

if [[ "$checkpoint_smoke" == 1 ]]; then
  echo "==> checkpoint smoke (checkpoint/compact/kill/recover, corruption fuzz, apply convergence)"
  cargo test -q --test checkpoint_recovery --test journal_truncation --test apply_convergence
  cargo test -q -p allhands-vectordb
  cargo test -q -p allhands-core --lib
fi

if [[ "$scaling_smoke" == 1 ]]; then
  echo "==> scaling smoke (threads sweep on reduced corpus; curves recorded)"
  scaling_dir="$(mktemp -d)"
  tmp_dirs+=("$scaling_dir")
  cargo run --release -p allhands-bench --bin pipeline_bench -- \
    --smoke --only scaling,search --out "$scaling_dir/BENCH_scaling.json"
  cargo run --release -p allhands-bench --bin pipeline_bench -- \
    --validate "$scaling_dir/BENCH_scaling.json"
fi

if [[ "$iofault_smoke" == 1 ]]; then
  echo "==> iofault smoke (fault-at-every-seam, read-only trip, bootstrap)"
  # The suites pin thread counts internally via par::with_threads; running
  # them under both ambient settings also covers the pool-spawn paths.
  for threads in 1 8; do
    echo "==> iofault smoke: ALLHANDS_THREADS=$threads"
    ALLHANDS_THREADS=$threads cargo test -q --test storage_faults --test bootstrap_follower
  done
fi

if [[ "$query_smoke" == 1 ]]; then
  echo "==> query smoke (engine differential + plan-cache hit rate)"
  cargo test -q --test query_differential
  query_dir="$(mktemp -d)"
  tmp_dirs+=("$query_dir")
  cargo run --release -p allhands-bench --bin pipeline_bench -- \
    --smoke --only query --out "$query_dir/BENCH_query.json"
  cargo run --release -p allhands-bench --bin pipeline_bench -- \
    --validate "$query_dir/BENCH_query.json"
fi

if [[ "$serve_smoke" == 1 ]]; then
  echo "==> serve smoke (replication sweep + apply convergence, then leader + 2 followers end-to-end)"
  cargo test -q --test serve_replication --test apply_convergence
  cargo run --release -p allhands-serve --bin allhands-serve -- --smoke --followers 2
  serve_dir="$(mktemp -d)"
  tmp_dirs+=("$serve_dir")
  cargo run --release -p allhands-bench --bin pipeline_bench -- \
    --smoke --only serve --out "$serve_dir/BENCH_serve.json"
  cargo run --release -p allhands-bench --bin pipeline_bench -- \
    --validate "$serve_dir/BENCH_serve.json"
fi

echo "verify: OK"
