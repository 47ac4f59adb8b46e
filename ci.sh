#!/usr/bin/env bash
# Tier-1 gate: formatting, lints, release build, full test suite.
# Run from the repository root. Any failure aborts with a non-zero exit.
set -euo pipefail
cd "$(dirname "$0")"

echo "==> cargo fmt --check"
cargo fmt --check

echo "==> cargo clippy --workspace --all-targets -- -D warnings"
cargo clippy --workspace --all-targets -- -D warnings

echo "==> cargo build --release"
cargo build --release

echo "==> cargo test -q"
cargo test -q

echo "==> cargo bench -p rotary-bench --no-run"
cargo bench -p rotary-bench --no-run

# Smoke-run the experiment battery on the two small suites from a scratch
# directory (the binary writes BENCH_flow.json to its cwd; the checked-in
# copy must only change when results are intentionally re-measured).
echo "==> tables --small table2 (smoke)"
tables_bin="$(pwd)/target/release/tables"
scratch="$(mktemp -d)"
trap 'rm -rf "$scratch"' EXIT
(cd "$scratch" && "$tables_bin" --small table2 > tables_small_ci.log)

# Large-suite tractability smoke: Table I on s38417 (LP relaxation +
# rounding at ~13k columns, B&B capped at 2 s) must finish within a
# hard wall-clock budget — regressions in the priced simplex or the
# incremental rounding show up here as a timeout.
echo "==> tables --suite s38417 table1 (smoke, 120s budget)"
(cd "$scratch" && timeout 120 "$tables_bin" --suite s38417 table1 2 > tables_s38417_ci.log)

# Stage-4 tractability smoke: the full Fig. 3 loop on s15850 runs the
# network-simplex circulation through every re-wrap round and flow
# iteration — a regression in the pivot loop shows up as a timeout. The
# checks pin backend attribution (every stage-4 row reads
# network-simplex) and a live warm path: re-wrap rounds resume from the
# carried basis, so the `reused` column (basis arcs carried into warm
# solves) must be nonzero on every row.
echo "==> tables --suite s15850 table4 (smoke, 60s budget + backend/reuse check)"
(cd "$scratch" && timeout 60 "$tables_bin" --suite s15850 table4 > tables_s15850_ci.log)
ns_rows="$(grep 'cost_driven_skew' "$scratch/tables_s15850_ci.log")"
[ -n "$ns_rows" ] || { echo "no stage-4 telemetry rows:"; cat "$scratch/tables_s15850_ci.log"; exit 1; }
awk '$NF != "network-simplex" || $(NF-8) == 0 { bad = 1 }
     END { exit bad }' <<< "$ns_rows" \
  || { echo "stage-4 rows must read network-simplex with nonzero warm reuse:"; echo "$ns_rows"; exit 1; }

# Largest-suite stage-4 smoke: the s35932 Fig. 3 loop drives the
# network simplex through its cold solves and warm re-wrap rounds. The
# time budget catches pivot-loop regressions; the greps catch a dead warm
# path — every cost_driven_skew telemetry row must report nonzero
# `reused` (basis arcs carried into warm re-wrap solves) and `Δarcs`
# (pairs whose cap or cost changed between solves).
echo "==> tables --suite s35932 table4 (smoke, 150s budget + reuse check)"
(cd "$scratch" && timeout 150 "$tables_bin" --suite s35932 table4 > tables_s35932_ci.log)
stage4_rows="$(grep 'cost_driven_skew' "$scratch/tables_s35932_ci.log")"
[ "$(wc -l <<< "$stage4_rows")" -eq 2 ] \
  || { echo "expected 2 stage-4 telemetry rows (nf + ilp):"; echo "$stage4_rows"; exit 1; }
awk '$(NF-8) == 0 || $(NF-6) == 0 { bad = 1 }
     END { exit bad }' <<< "$stage4_rows" \
  || { echo "stage-4 reuse columns must be nonzero on the warm route:"; echo "$stage4_rows"; exit 1; }

# Stage-2 scheduling smoke: period search + max-slack, cold then warm
# over drifted placements. The binary itself asserts the delta-rebind
# engine reused state, so a dead warm path fails even well under budget.
echo "==> tables --suite s15850 stage2 (smoke, 60s budget)"
(cd "$scratch" && timeout 60 "$tables_bin" --suite s15850 stage2 > tables_stage2_ci.log)

# Stage-3 assignment warm-start smoke: interleaved warm/cold full flows on
# both routes. The binary asserts bit-identical schedules/assignments/taps
# and nonzero assignment reuse, so a dead LP basis carry or a warm/cold
# divergence fails here even well under budget. The greps double-check
# both routes' engines actually served a warm pass: the ilp route must
# report a carried LP basis (lp-warm / lp-dual-repair) and the
# network-flow route must report the carried transportation engine
# (tp-warm) with nonzero arc reuse on its A/B row.
echo "==> tables --suite s15850 assign (smoke, 120s budget + reuse check)"
(cd "$scratch" && timeout 120 "$tables_bin" --suite s15850 assign > tables_assign_ci.log)
grep -q 'backend lp-warm\|backend lp-dual-repair' "$scratch/tables_assign_ci.log" \
  || { echo "assignment smoke must serve a pass from a carried LP basis:"; \
       cat "$scratch/tables_assign_ci.log"; exit 1; }
grep -q 'backend tp-warm' "$scratch/tables_assign_ci.log" \
  || { echo "assignment smoke must serve a pass from the carried transportation engine:"; \
       cat "$scratch/tables_assign_ci.log"; exit 1; }
grep '\[network-flow' "$scratch/tables_assign_ci.log" | grep -q '([1-9][0-9]* reused' \
  || { echo "network-flow A/B row must report nonzero transportation arc reuse:"; \
       cat "$scratch/tables_assign_ci.log"; exit 1; }

# Staleness guard: the committed small-suite battery must match a fresh
# run byte-for-byte. --redact-cpu blanks every wall-clock column, so the
# regenerated file depends only on the deterministic computation; any
# drift means someone changed results without re-measuring the artifacts.
echo "==> tables --redact-cpu --small (staleness guard vs tables_small_output.txt)"
(cd "$scratch" && "$tables_bin" --redact-cpu --small table3 table4 table5 table6 table7 variation \
  > tables_small_output.txt 2>&1)
diff -u tables_small_output.txt "$scratch/tables_small_output.txt"

# Thread invariance: the same battery at one and at two worker threads
# must reproduce the committed artifact byte-for-byte. The thread cap is
# read once per process (ROTARY_THREADS), so only separate runs can vary
# it; any drift means some result depends on the thread count.
for threads in 1 2; do
  echo "==> ROTARY_THREADS=$threads tables --redact-cpu --small (thread invariance vs tables_small_output.txt)"
  (cd "$scratch" && ROTARY_THREADS=$threads "$tables_bin" --redact-cpu --small \
    table3 table4 table5 table6 table7 variation > "tables_small_t$threads.txt" 2>&1)
  diff -u tables_small_output.txt "$scratch/tables_small_t$threads.txt"
done

echo "ci.sh: all checks passed"
