#!/usr/bin/env bash
# Tier-1 verification (ROADMAP.md): release build + root test suite,
# plus smoke passes of both benchmark binaries. The smoke passes run the
# full staged-vs-reference and instrumented-vs-plain bit-identity asserts
# but (--quick) never rewrite the committed BENCH_*.json files.
set -euo pipefail
cd "$(dirname "$0")/.."

cargo build --release
cargo test -q

# `cargo test -q` covers the root package only. These crates hold the
# candidate-scan proptest (NeighborhoodScan ≡ Ekg::neighborhood), the
# optimized ≡ reference relax tests, the snapshot, coalescer and
# socket-level HTTP tests, and the suites that pin every sharded stage
# to its sequential answer: the fork/join helper's own test (types),
# parallel mention counting and corpus determinism (corpus), SGNS
# training at 2/4/8 threads (embed), the per-method evaluation runs
# (eval), and the store's round-trip, corruption, pinned-bytes and
# checksum-valid graph-defect tests (store), plus the generator's
# determinism and world tests (snomed), the tokenizer's properties (text),
# the KB, ontology and NLI suites, and the shared JSON codec's
# accept/reject corpus that the wire parser relies on (obs).
cargo test -q -p medkb-ekg -p medkb-core -p medkb-serve -p medkb-types -p medkb-corpus \
    -p medkb-embed -p medkb-eval -p medkb-store -p medkb-snomed -p medkb-text -p medkb-kb \
    -p medkb-ontology -p medkb-nli -p medkb-obs

# The benchmark worlds pinned bit for bit: digests of
# `scaled_world_and_corpus` at 4k and 20k concepts against recorded
# constants, so a generator change that alters the world fails here
# (~5 s in the dev profile).
cargo test -q -p medkb-bench --test world_digest

# The conformance suites are part of the root test run above, but name them
# explicitly so a filtered/partial invocation can't silently skip them.
cargo test -q --test golden_traces --test obs_conformance

# Lint wall: warnings are errors across every target in the workspace.
cargo clippy --workspace --all-targets -- -D warnings

# The wire benchmark (perfbench/, gated by BENCHMARK.json) is a Cargo
# workspace of its own that builds against the crates by path. Build it
# and run its helper tests, so a crate API change that breaks the
# benchmark fails here instead of in the benchmark run.
cargo build --release --offline --locked --manifest-path perfbench/Cargo.toml
cargo test --release --offline --locked --manifest-path perfbench/Cargo.toml

# Fuzz smoke: one adversarial world per DAG shape through the full
# differential oracle stack (~seconds). The exhaustive 240-world sweep
# lives in `cargo test -p medkb-fuzz --test differential` and runs out of
# band — this keeps tier-1 fast while still catching gross divergence.
cargo test -q -p medkb-fuzz smoke

# The two tests where a delta's output meets the store: apply commutes
# with a save/open round trip, and a version-bumped image is a typed
# validation error (~0.01 s in the dev profile).
cargo test -q -p medkb-fuzz --test delta_differential -- --exact \
    store_round_trip_commutes_with_delta_apply mismatched_store_version_is_a_validation_error

# No test may be #[ignore]d without a tracking comment on the same line
# (e.g. `#[ignore] // tracked: <reason/issue>`). Silent skips rot.
if grep -rn '#\[ignore\]' --include='*.rs' tests/ crates/ src/ 2>/dev/null \
    | grep -v 'tracked:'; then
  echo "tier-1 FAIL: #[ignore] without a 'tracked:' comment (see above)" >&2
  exit 1
fi

# Ingest smoke: staged pipeline bit-identical to the reference, metrics
# snapshot valid JSON with every stage timer recorded exactly once.
cargo run --release -p medkb-bench --bin bench_json -- --ingest --quick >/dev/null

# The committed ingest baseline must gate on recorded *shape*, not speedup:
# thread counts are clamped to the bench box's cores, so the file has to say
# what was actually measured (threads_effective per row, the unclamped
# oversubscription sweep, and the core count it ran on).
for key in '"threads_effective"' '"oversubscribed"' '"machine_cores"' \
    '"world_concepts"'; do
  if ! grep -qF "$key" BENCH_ingest.json; then
    echo "tier-1 FAIL: BENCH_ingest.json missing $key" >&2
    exit 1
  fi
done

# Relax smoke: instrumented engine bit-identical to the plain engine, and
# the emitted document (including the embedded metrics snapshot) parses.
out=$(cargo run --release -p medkb-bench --bin bench_json -- --quick)
for key in '"metrics"' '"obs_overhead_pct"' 'relax.latency_us' 'relax.queries' \
    '"p99_us_per_query"' '"lcs_evals_saved_pct"' 'relax.lcs.bound_skips' \
    'relax.rings.terminated'; do
  if ! grep -qF "$key" <<<"$out"; then
    echo "tier-1 FAIL: bench_json --quick output missing $key" >&2
    exit 1
  fi
done
# Score-bounded pruning must actually save LCS evaluations on the default
# workload (DESIGN.md §13) — a silent fall-back to the exhaustive scan
# would keep every bit-identity assert green while losing the perf win.
saved=$(grep -o '"lcs_evals_saved_pct": [0-9.]*' <<<"$out" | grep -o '[0-9.]*$')
if ! awk -v s="${saved:-0}" 'BEGIN { exit !(s > 0) }'; then
  echo "tier-1 FAIL: lcs_evals_saved_pct is ${saved:-missing}, expected > 0" >&2
  exit 1
fi

# Serve smoke: snapshot-swapped serving layer over the same world. The
# binary itself asserts cached answers are bit-identical to uncached ones,
# that a snapshot swap retires the old epoch, and that load-shedding
# returns Overloaded (not NotFound); here we additionally require the
# emitted document to show real cache traffic (nonzero hits).
out=$(cargo run --release -p medkb-bench --bin bench_json -- --serve --quick)
for key in '"cold_p50_us"' '"warm_p50_us"' '"hit_ratio"' 'serve.cache.hits' \
    'serve.snapshot.swaps' '"uniform_loop_hit_ratio"' '"workloads"' \
    '"workload": "uniform"' '"workload": "zipf"'; do
  if ! grep -qF "$key" <<<"$out"; then
    echo "tier-1 FAIL: bench_json --serve --quick output missing $key" >&2
    exit 1
  fi
done
if grep -qF '"cache_hits": 0,' <<<"$out"; then
  echo "tier-1 FAIL: serve smoke saw zero cache hits" >&2
  exit 1
fi
# Hit-ratio honesty (the PR 5 caveat, now measured): the committed file
# must carry both contended-cache workload rows, not just the uniform
# replay loop whose ratio is an artifact of the pass count.
for key in '"workload": "uniform"' '"workload": "zipf"' \
    '"uniform_loop_hit_ratio"'; do
  if ! grep -qF "$key" BENCH_serve.json; then
    echo "tier-1 FAIL: BENCH_serve.json missing $key" >&2
    exit 1
  fi
done

# Store smoke: save the ingested world, reopen it, and (inside the binary)
# assert the reopened world is bit-identical — parts-level equality plus
# 8 relaxation queries — and that a flipped byte is rejected with a
# ValidationReport, not a panic or a silently-wrong world.
out=$(cargo run --release -p medkb-bench --bin bench_json -- --store --quick)
for key in '"cold_open_p50_s"' '"re_ingest_p50_s"' '"file_bytes"' \
    '"reach_memory_bytes"' '"reach_dense_over_hybrid"' '"queries_checked"'; do
  if ! grep -qF "$key" <<<"$out"; then
    echo "tier-1 FAIL: bench_json --store --quick output missing $key" >&2
    exit 1
  fi
done

# The committed SNOMED-scale store baseline must carry the recorded shape:
# cold-open speedup and the hybrid reachability footprint ratio. A refactor
# that regresses either shows up as a re-baseline in review, not silently.
for key in '"cold_open_speedup"' '"reach_dense_over_hybrid"' '"world_concepts"' \
    '"file_bytes"'; do
  if ! grep -qF "$key" BENCH_store.json; then
    echo "tier-1 FAIL: BENCH_store.json missing $key" >&2
    exit 1
  fi
done

# Delta smoke: incremental ingestion over document deltas. The binary
# itself asserts the delta-applied output is bit-identical to a full
# re-ingest of the same mutated inputs and that a publish invalidates the
# result cache exactly once per distinct query of the zipf stream. The
# differential sweep's fast pass already ran above (the fuzz smoke filter
# matches smoke_delta_one_world_per_shape).
out=$(cargo run --release -p medkb-bench --bin bench_json -- --delta --quick)
for key in '"full_reingest_p50_s"' '"deltas"' '"apply_p50_s"' \
    '"speedup_vs_full_reingest"' '"single_doc_speedup"' '"zipf_invalidation"' \
    'delta.apply_us' 'delta.docs.recounted'; do
  if ! grep -qF "$key" <<<"$out"; then
    echo "tier-1 FAIL: bench_json --delta --quick output missing $key" >&2
    exit 1
  fi
done
# Document-only deltas must stay on the incremental path: the smoke run
# gates zero reach-repair fallbacks and zero full recounts. A refactor
# that quietly turns every delta into a rebuild keeps bit-identity green
# while losing the entire point of ROADMAP item 3.
if ! grep -qF '"fallback_full_rebuilds": 0' <<<"$out"; then
  echo "tier-1 FAIL: delta smoke fell back to a full reach rebuild" >&2
  exit 1
fi
if ! grep -qF '"full_recounts": 0' <<<"$out"; then
  echo "tier-1 FAIL: delta smoke fell back to a full mention recount" >&2
  exit 1
fi

# The committed SNOMED-scale delta baseline must carry the recorded shape:
# per-size latencies, the asserted single-doc speedup, and the fallback
# counter (which must have recorded zero on the committed run too).
for key in '"single_doc_speedup"' '"speedup_vs_full_reingest"' \
    '"zipf_invalidation"' '"world_concepts"' '"fallback_full_rebuilds": 0'; do
  if ! grep -qF "$key" BENCH_delta.json; then
    echo "tier-1 FAIL: BENCH_delta.json missing $key" >&2
    exit 1
  fi
done

# HTTP smoke: the wire front end (DESIGN.md §16) as a process on an
# ephemeral port, driven over a real socket by the std TcpStream client
# (`medkb-cli http`), killed cleanly. Wire ≡ in-process answers,
# coalescing and rate limiting are pinned by the socket tests in
# crates/serve/tests/http_server.rs; throughput at 350k concepts is
# perfbench's `wire_hot` workload.
addr_file=$(mktemp)
rm -f "$addr_file"
target/release/medkb-cli serve --addr 127.0.0.1:0 --addr-file "$addr_file" \
    </dev/null >/dev/null 2>&1 &
serve_pid=$!
trap 'kill "$serve_pid" 2>/dev/null || true' EXIT
for _ in $(seq 1 100); do
  [ -s "$addr_file" ] && break
  sleep 0.1
done
addr=$(head -1 "$addr_file")
term=$(sed -n 2p "$addr_file")
if [ -z "$addr" ] || [ -z "$term" ]; then
  echo "tier-1 FAIL: medkb-cli serve did not report an address" >&2
  exit 1
fi
target/release/medkb-cli http "$addr" GET /health | grep -qF '"status":"ok"' \
  || { echo "tier-1 FAIL: /health not ok" >&2; exit 1; }
target/release/medkb-cli http "$addr" POST /relax "{\"term\":\"$term\"}" \
    | grep -qF '"answers"' \
  || { echo "tier-1 FAIL: /relax returned no answers for \"$term\"" >&2; exit 1; }
target/release/medkb-cli http "$addr" GET /metrics | grep -qF 'http.requests' \
  || { echo "tier-1 FAIL: /metrics missing the http.* family" >&2; exit 1; }
kill "$serve_pid"
wait "$serve_pid" 2>/dev/null || true
trap - EXIT
rm -f "$addr_file"

# Chunked transfer-coding property suite (DESIGN.md §16): split-read
# equivalence, never-panic on hostile streams, and the TE+Content-Length
# smuggling rejection. Part of the root run above; named so a filtered
# invocation can't skip it.
cargo test -q -p medkb-serve --test http_parser_prop

# Federated differential smoke (DESIGN.md §17): a one-source registry
# bit-identical to the plain relaxer, plus the two-source merge-determinism
# oracle (same answers across thread counts and registration order). The
# exhaustive 240-world sweep lives in the out-of-band differential test.
cargo test -q -p medkb-fuzz smoke_federated

# Federated smoke: two-source scatter/gather over one shared KB. The
# binary asserts in-run that primary-only queries return bit-identical
# answers from the one-source and two-source registries, and that the GO
# source answers GO-vocabulary queries the single source cannot.
out=$(cargo run --release -p medkb-bench --bin bench_json -- --federated --quick)
for key in '"single_source_p50_us"' '"federated_p50_us"' \
    '"bit_identical_queries"' '"sources"' '"scatter_p50_us"' '"coverage"' \
    '"secondary_share_pct"' '"go_answered_federated"' '"merged_topk_sample"'; do
  if ! grep -qF "$key" <<<"$out"; then
    echo "tier-1 FAIL: bench_json --federated --quick output missing $key" >&2
    exit 1
  fi
done
pinned=$(grep -o '"bit_identical_queries": [0-9]*' <<<"$out" | grep -o '[0-9]*$')
if ! awk -v p="${pinned:-0}" 'BEGIN { exit !(p > 0) }'; then
  echo "tier-1 FAIL: federated smoke pinned ${pinned:-no} single≡multi queries" >&2
  exit 1
fi

# The committed federated baseline must carry the recorded shape:
# per-source scatter latency, merged top-k provenance, the coverage
# comparison, and the in-run bit-identity pin, at SNOMED-concept scale.
for key in '"single_source_p50_us"' '"scatter_p50_us"' '"merged_topk_sample"' \
    '"secondary_share_pct"' '"bit_identical_queries"' \
    '"world_concepts": 350000'; do
  if ! grep -qF "$key" BENCH_federated.json; then
    echo "tier-1 FAIL: BENCH_federated.json missing $key" >&2
    exit 1
  fi
done

echo "tier-1 OK"
