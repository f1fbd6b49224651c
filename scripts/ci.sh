#!/bin/sh
# CI gate: tier-1 verification plus the quick smoke tier of the experiment
# suite (tiny inputs, 1-4 processors; covers every default experiment's
# sections, the scheduler, and the JSON emitters).
set -eu
cd "$(dirname "$0")/.."

echo "== tier-1: build + tests =="
cargo build --release
cargo test -q

echo "== warnings: every target of the workspace builds warning-free =="
# Its own target dir, so the changed RUSTFLAGS do not invalidate the
# release build above.
RUSTFLAGS=-Dwarnings cargo check --workspace --all-targets --target-dir target/check

echo "== smoke: quick-tier suite =="
mkdir -p target/smoke
./target/release/suite --quick --jobs "${JOBS:-$(nproc 2>/dev/null || echo 1)}" \
    --json --out target/smoke --bench-json target/smoke/BENCH_results.json \
    > target/smoke/suite.txt

echo "== chaos: fault-injection smoke (bounded by a host timeout) =="
# The watchdog aborts a hung simulation from inside, but a regression in the
# watchdog itself would hang CI; the host-side timeout is the backstop.
timeout "${CHAOS_TIMEOUT:-600}" \
    ./target/release/suite --experiment chaos --quick \
    --json --out target/smoke > target/smoke/chaos.txt

echo "== recovery: node-crash smoke (byte-identity asserted by the renderer) =="
# The experiment's renderer fails (nonzero exit) unless every crashed run
# reproduces the crash-free checksums, permanent crashes roll back, and
# transient outages are masked by retransmission alone; the grep below
# additionally pins that the quick tier actually exercised a rollback.
timeout "${CHAOS_TIMEOUT:-600}" \
    ./target/release/suite --experiment recovery --quick \
    --json --out target/smoke > target/smoke/recovery.txt
grep -q "rollbacks=1" target/smoke/recovery.txt \
    || { echo "recovery smoke saw no rollback"; exit 1; }

echo "== service: multi-tenant DSM service on the real-thread runtime =="
# The renderer fails unless every tenant stays byte-identical to its
# fault-free solo baseline under drops, delays and a scheduled node crash,
# and unless overload sheds loudly. The greps pin that the quick tier
# exercised a *real* runtime rollback and that baseline offered load was
# never shed.
timeout "${CHAOS_TIMEOUT:-600}" \
    ./target/release/suite --experiment service --quick \
    --json --out target/smoke > target/smoke/service.txt
grep -q "rollbacks=1" target/smoke/service.txt \
    || { echo "service smoke saw no live-cluster rollback"; exit 1; }
grep -q "shed=0" target/smoke/service.txt \
    || { echo "service smoke lost the zero-shed baseline"; exit 1; }

echo "== scaling: barrier-time GC memory bound =="
# The experiment's renderer fails (nonzero exit) unless GC-on runs stay
# result-identical to GC-free and hold the diff-cache and interval-store
# high-water marks strictly below the uncollected baseline.
timeout "${CHAOS_TIMEOUT:-600}" \
    ./target/release/suite --experiment scaling --quick \
    --json --out target/smoke > target/smoke/scaling.txt

echo "== coro fallback: thread-backed switcher must match the assembly one =="
# The engine runs every simulated processor as a coroutine on vendor/coro's
# hand-written x86-64 context switch. Its portable fallback
# (--cfg tmk_coro_threads) runs the same engine on parked OS threads and is
# the switcher's oracle: built into its own target dir, it must pass the
# engine and switcher tests and reproduce the quick tier's text, simulated
# JSON (host-side fields aside) and breakdown traces byte for byte.
fb_target=target/coro-threads
RUSTFLAGS="--cfg tmk_coro_threads" \
    cargo build --release -p tmk-bench --bin suite --target-dir "$fb_target"
RUSTFLAGS="--cfg tmk_coro_threads" \
    cargo test -q -p tmk-sim -p coro --target-dir "$fb_target"
for v in asm threads; do
    if [ "$v" = asm ]; then bin=./target/release/suite; else bin="$fb_target/release/suite"; fi
    rm -rf "target/smoke/coro-$v"
    timeout "${CHAOS_TIMEOUT:-600}" \
        "$bin" --quick --jobs 1 --json --out "target/smoke/coro-$v" \
        --bench-json "target/smoke/coro-$v/BENCH_results.json" \
        > "target/smoke/coro-$v.txt"
    timeout "${CHAOS_TIMEOUT:-600}" \
        "$bin" --experiment breakdown --quick \
        --trace "target/smoke/coro-$v/trace" > /dev/null
done
diff target/smoke/coro-asm.txt target/smoke/coro-threads.txt
# Strip the deliberately host-dependent fields before comparing records.
strip='"host_ms"\|"wall_ms"\|"total_host_ms"'
for f in target/smoke/coro-asm/*.json; do
    base="$(basename "$f")"
    grep -v "$strip" "$f" > target/smoke/coro-a.stripped
    grep -v "$strip" "target/smoke/coro-threads/$base" > target/smoke/coro-b.stripped
    diff target/smoke/coro-a.stripped target/smoke/coro-b.stripped \
        || { echo "coro fallback diverges in $base"; exit 1; }
done
for f in target/smoke/coro-asm/trace/*.trace.json; do
    ./target/release/suite trace-diff "$f" \
        "target/smoke/coro-threads/trace/$(basename "$f")" | grep -q "no divergence"
done

echo "== trace: breakdown decomposition + trace determinism =="
# Two traced quick-tier runs must record byte-identical Chrome traces; the
# suite validates each document against its JSON parser before writing.
rm -rf target/smoke/trace-a target/smoke/trace-b
timeout "${CHAOS_TIMEOUT:-600}" \
    ./target/release/suite --experiment breakdown --quick \
    --trace target/smoke/trace-a \
    --json --out target/smoke > target/smoke/breakdown.txt
timeout "${CHAOS_TIMEOUT:-600}" \
    ./target/release/suite --experiment breakdown --quick \
    --trace target/smoke/trace-b > /dev/null
for f in target/smoke/trace-a/*.trace.json; do
    [ -s "$f" ] || { echo "empty trace: $f"; exit 1; }
    ./target/release/suite trace-diff "$f" \
        "target/smoke/trace-b/$(basename "$f")" | grep -q "no divergence"
done

echo "ci: all checks passed"
