#!/usr/bin/env bash
# Tier-1 verify gate: release build, the whole workspace's test suite (the
# root integration tests plus every member crate's unit and integration
# tests, the allhands-perf benchmark's smoke test among them), and a
# warning-free clippy pass across the workspace — all targets, so tests and
# examples are linted too. The resilience, agent and journal crates
# additionally deny clippy::unwrap_used via crate-level attributes, and the
# journal crate warns on missing docs, so the single clippy invocation
# enforces both too.
#
# Optional flags (combinable, order-free) rerun one suite on its own for a
# focused signal after touching its layers; each suite also runs in the
# workspace test pass above.
#   --crash-smoke   the crash-chaos suite (kill at every journal crash
#                   point, resume, compare transcripts byte-for-byte).
#   --obs-smoke     the observability suite (deterministic metrics across
#                   thread counts, span-tree shape, and the schema of every
#                   run report it produces).
#   --ingest-smoke  the incremental-ingestion suite (batch byte-identity
#                   across thread counts and chaos, crash at every ingest
#                   seam + resume, span/counter shape, the search/retract
#                   facade), the golden-output suite (analyze and ingest
#                   frames equal the fingerprints pinned from an earlier
#                   build), the vectordb crate's own tests (the
#                   reference-scan oracle for the index behind
#                   demonstration retrieval and the session's document
#                   index) and the embed crate's own tests (the embedder
#                   and its direction table against a string-per-feature
#                   reference embed, bit for bit: cold, warm, past the
#                   table's bound, from racing threads and through a
#                   clone).
#   --checkpoint-smoke
#                   the checkpoint/compaction/recovery suite (checkpoint ->
#                   compact -> kill -> recover cycle at every seam,
#                   point-in-time recover_at, corruption fuzz, journal
#                   locking), the torn-tail truncation property test, and
#                   the apply-path convergence suite (resume, recover_latest
#                   and an apply_tail follower reach the leader's state on
#                   every journal prefix).
#   --iofault-smoke the storage-fault suite (every IoFaultKind at every Vfs
#                   op index, sustained-ENOSPC read-only trip, proptest
#                   fault fuzz) and the follower-bootstrap suite, under
#                   ALLHANDS_THREADS 1 and 8.
#   --query-smoke   the engine-differential suite (90 reference programs and
#                   a numeric chain over a generated frame, join keys
#                   straddling 2^53 and ±0.0, proptest random chains — both
#                   engines byte-identical), the golden-answer suite (the
#                   paper conversation's answers of four corpora equal the
#                   fingerprints pinned from an earlier build), and the
#                   dataframe and query crates' own tests (the shared column
#                   storage both engines run on, clone sharing included).
#   --serve-smoke   the serving/replication suite (kill-at-every-entry
#                   reconnect sweep, lag reporting, replica write refusal,
#                   restart over the same data directory), the apply-path
#                   convergence suite and the serve crate's own tests
#                   (framing, oversized frames, value accessors), then the
#                   allhands-serve end-to-end smoke — leader + 2 followers
#                   on a Unix socket, reads served during an ingest, chains
#                   and fingerprints asserted converged.
#   --bench-smoke   the benchmark's own command exactly as BENCHMARK.json
#                   declares it (a standalone release build of allhands-perf
#                   into .bench_build/, offline), run with --smoke: every
#                   workload once at reduced size, exiting non-zero on a
#                   failed gate.
set -euo pipefail
cd "$(dirname "$0")/.."

crash_smoke=0
obs_smoke=0
ingest_smoke=0
checkpoint_smoke=0
iofault_smoke=0
query_smoke=0
serve_smoke=0
bench_smoke=0
for arg in "$@"; do
  case "$arg" in
    --crash-smoke) crash_smoke=1 ;;
    --obs-smoke) obs_smoke=1 ;;
    --ingest-smoke) ingest_smoke=1 ;;
    --checkpoint-smoke) checkpoint_smoke=1 ;;
    --iofault-smoke) iofault_smoke=1 ;;
    --query-smoke) query_smoke=1 ;;
    --serve-smoke) serve_smoke=1 ;;
    --bench-smoke) bench_smoke=1 ;;
    *)
      echo "verify: unknown flag $arg" >&2
      exit 2
      ;;
  esac
done

echo "==> cargo build --release"
cargo build --release

echo "==> cargo test -q --workspace"
cargo test -q --workspace

echo "==> cargo clippy --workspace --all-targets -- -D warnings"
cargo clippy --workspace --all-targets -- -D warnings

if [[ "$crash_smoke" == 1 ]]; then
  echo "==> crash smoke (journal resume byte-identity + poison quarantine)"
  cargo test -q --test crash_chaos
fi

if [[ "$obs_smoke" == 1 ]]; then
  echo "==> obs smoke (metric determinism, span shape, report schema)"
  cargo test -q --test observability
fi

if [[ "$ingest_smoke" == 1 ]]; then
  echo "==> ingest smoke (batch determinism, crash resume, golden outputs, vectordb and embed crates)"
  cargo test -q --test ingest_determinism --test golden_outputs
  cargo test -q -p allhands-vectordb -p allhands-embed
fi

if [[ "$checkpoint_smoke" == 1 ]]; then
  echo "==> checkpoint smoke (checkpoint/compact/kill/recover, corruption fuzz, apply convergence)"
  cargo test -q --test checkpoint_recovery --test journal_truncation --test apply_convergence
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
  echo "==> query smoke (engine differential + golden answers + dataframe/query crates)"
  cargo test -q --test query_differential --test golden_answers
  cargo test -q -p allhands-dataframe -p allhands-query
fi

if [[ "$serve_smoke" == 1 ]]; then
  echo "==> serve smoke (replication sweep + apply convergence + serve crate, then leader + 2 followers end-to-end)"
  cargo test -q --test serve_replication --test apply_convergence
  cargo test -q -p allhands-serve
  cargo run --release -p allhands-serve --bin allhands-serve -- --smoke --followers 2
fi

if [[ "$bench_smoke" == 1 ]]; then
  echo "==> bench smoke (the BENCHMARK.json command, --smoke)"
  CARGO_TARGET_DIR=.bench_build cargo run --release --quiet --offline \
    --manifest-path crates/bench/src/bin/allhands-perf/Cargo.toml -- --smoke
fi

echo "verify: OK"
