#!/usr/bin/env bash
# Tier-1 verification: the gate every change must pass.
#
# Runs fully offline — the workspace has zero external dependencies, so a
# cold cargo cache and no network must still produce a green build. Any
# `cargo` invocation here reaching for a registry is itself a regression.
#
# Usage: scripts/tier1.sh
set -euo pipefail
cd "$(dirname "$0")/.."

echo "== tier1: release build (all targets, offline) =="
cargo build --workspace --release --offline --all-targets

echo "== tier1: tests (offline, single-threaded pool) =="
TP_THREADS=1 cargo test -q --workspace --offline

echo "== tier1: tests (offline, 4-thread pool) =="
# Same suite again with the tp-par pool active: every test asserting exact
# bits must pass at both thread counts — that is the determinism contract.
TP_THREADS=4 cargo test -q --workspace --offline

echo "== tier1: fault-tolerance suite (release) =="
cargo test -q --offline --release --test fault_tolerance
cargo test -q --offline --release --test determinism
cargo test -q -p tp-io --offline --release --test parser_fuzz

echo "== tier1: observability suite (release) =="
cargo test -q -p tp-obs --offline --release
cargo test -q -p tp-obs --offline --release --test golden
cargo test -q --offline --release --test observability

echo "== tier1: scenario sweep suite (release) =="
cargo test -q -p tp-scenarios --offline --release
cargo test -q --offline --release --test scenarios

echo "== tier1: partitioned-execution suite (release) =="
cargo test -q -p tp-partition --offline --release
# Bit-identity under a partition budget vs monolithic execution — the
# tp-partition contract — across chunk budgets and thread counts: streamed
# GNN inference, training and STA.
cargo test -q --offline --release --test partition

echo "== tier1: serving suite (release) =="
cargo test -q -p tp-serve --offline --release
cargo test -q -p tp-serve --offline --release --test fuzz_codec
cargo test -q -p tp-serve --offline --release --test robustness
cargo test -q --offline --release --test serve

echo "== tier1: concurrency equivalence suite (release, both pool widths) =="
# Replies to concurrent clients must be bit-identical to serial ones at
# every thread count — the serving determinism contract.
TP_THREADS=1 cargo test -q -p tp-serve --offline --release --test concurrency
TP_THREADS=4 cargo test -q -p tp-serve --offline --release --test concurrency

echo "== tier1: serve loopback smoke (example, scratch dir) =="
# Boot a real server on an ephemeral port and drive the full lifecycle —
# ping, predict, slack, checkpoint hot-swap, ECO move, stats, drain. The
# example exits nonzero on any protocol violation.
SERVE_SCRATCH="$(mktemp -d)"
if ! cargo run -q --offline --release --example serve_demo "$SERVE_SCRATCH/demo" >/dev/null; then
    rm -rf "$SERVE_SCRATCH"
    echo "tier1: FAIL — serve loopback smoke broke the serving contract" >&2
    exit 1
fi
rm -rf "$SERVE_SCRATCH"

echo "== tier1: sweep kill/resume smoke (example, scratch dir) =="
# The example runs an uninterrupted sweep, a killed one, and a resumed
# one, and exits nonzero unless journal and report come back
# byte-identical — the crash-safety contract, exercised end to end.
SWEEP_SCRATCH="$(mktemp -d)"
if ! TP_SWEEP_OUT="$SWEEP_SCRATCH/demo" \
    cargo run -q --offline --release --example sweep_resume >/dev/null; then
    rm -rf "$SWEEP_SCRATCH"
    echo "tier1: FAIL — sweep kill/resume smoke broke the resume contract" >&2
    exit 1
fi
rm -rf "$SWEEP_SCRATCH"

echo "== tier1: sweep-through-serve smoke (example, scratch dir) =="
# The same grid evaluated in-process and streamed through a live server
# over JSONL; exits nonzero unless journal and report come back
# byte-identical — the serve-streaming contract, exercised end to end.
SERVE_SWEEP_SCRATCH="$(mktemp -d)"
if ! TP_SWEEP_OUT="$SERVE_SWEEP_SCRATCH/demo" \
    cargo run -q --offline --release --example sweep_serve >/dev/null; then
    rm -rf "$SERVE_SWEEP_SCRATCH"
    echo "tier1: FAIL — sweep-through-serve smoke broke the streaming contract" >&2
    exit 1
fi
rm -rf "$SERVE_SWEEP_SCRATCH"

echo "== tier1: clippy (warnings are errors) =="
cargo clippy --workspace --offline --all-targets -- -D warnings

echo "== tier1: hermeticity (no external crates in any manifest) =="
if grep -rn 'rand\|proptest\|criterion' Cargo.toml crates/*/Cargo.toml; then
    echo "tier1: FAIL — external dependency reference found above" >&2
    exit 1
fi

echo "== tier1: hermeticity (no external crates in any source tree) =="
if grep -rEn 'extern crate|use (rand|proptest|criterion|tempfile|serde)\b|(^|[^_[:alnum:]])(rand|proptest|criterion|tempfile|serde)::' \
    src tests crates/*/src crates/*/tests 2>/dev/null; then
    echo "tier1: FAIL — external crate usage found in sources above" >&2
    exit 1
fi

echo "== tier1: hermeticity (tp-obs stays dependency-free) =="
if grep -n '^\[dependencies\]' crates/obs/Cargo.toml; then
    echo "tier1: FAIL — tp-obs must not grow a [dependencies] section" >&2
    exit 1
fi

echo "== tier1: hermeticity (tp-par stays dependency-free) =="
if grep -n '^\[dependencies\]' crates/par/Cargo.toml; then
    echo "tier1: FAIL — tp-par must not grow a [dependencies] section" >&2
    exit 1
fi

echo "== tier1: hermeticity (tp-partition depends on workspace crates only) =="
if sed -n '/^\[dependencies\]/,$p' crates/partition/Cargo.toml \
    | grep -E '^[a-z0-9_-]+ *=' | grep -v '^tp-[a-z-]* *= *{ *workspace = true' \
    | grep -v '^tp-[a-z-]*\.workspace *= *true'; then
    echo "tier1: FAIL — non-workspace dependency in tp-partition above" >&2
    exit 1
fi

echo "== tier1: deleted knobs stay deleted =="
# Request batching and the gemm tile overrides were removed for want of a
# measured win; their knobs must not creep back into code, scripts or docs.
# The filter skips the guard's own pattern line (the only `if grep -rnE`).
if grep -rnE 'TP_BATCH_WINDOW_US|TP_BATCH_MAX|TP_GEMM_TILE_K|TP_GEMM_TILE_J' \
    crates src examples tests scripts README.md \
    | grep -v '^scripts/tier1\.sh:[0-9]*:if grep -rnE '; then
    echo "tier1: FAIL — a deleted knob is referenced above" >&2
    exit 1
fi

echo "== tier1: autograd tape stays Arc-based (no Rc in the tape) =="
# The tape must remain Send + Sync so per-design gradients can evaluate on
# pool workers. An Rc sneaking back into the tensor core would compile fine
# single-threaded and then poison every parallel training path.
if grep -n 'Rc<' crates/tensor/src/tensor.rs crates/tensor/src/autograd.rs; then
    echo "tier1: FAIL — Rc found in the autograd tape; it must stay Arc" >&2
    exit 1
fi

echo "== tier1: bench harness smoke (scratch dir, fast samples) =="
scripts/bench.sh --smoke

echo "== tier1: NaN-safe ordering (no Ordering::Equal fallbacks) =="
# partial_cmp(..).unwrap_or(Equal) silently makes NaN compare equal to
# everything, which turns sorts nondeterministic. total_cmp is the fix;
# this grep keeps the pattern from coming back.
if grep -rEn 'unwrap_or\((std::cmp::)?Ordering::Equal\)' \
    src tests examples crates/*/src crates/*/tests 2>/dev/null; then
    echo "tier1: FAIL — NaN-unsafe comparator found above; use f32::total_cmp" >&2
    exit 1
fi

echo "== tier1: observability artifacts (none by default, all under TP_OBS) =="
OBS_SCRATCH="$(mktemp -d)"
trap 'rm -rf "$OBS_SCRATCH"' EXIT
PROFILE_RUN="$PWD/target/release/examples/profile_run"
( cd "$OBS_SCRATCH" && "$PROFILE_RUN" 0.001 1 >/dev/null 2>&1 )
if [ -n "$(ls -A "$OBS_SCRATCH")" ]; then
    echo "tier1: FAIL — uninstrumented run wrote files: $(ls -A "$OBS_SCRATCH")" >&2
    exit 1
fi
( cd "$OBS_SCRATCH" && TP_OBS=trace "$PROFILE_RUN" 0.001 1 >/dev/null 2>&1 )
for artifact in trace.json events.jsonl run_report.json; do
    if [ ! -s "$OBS_SCRATCH/$artifact" ]; then
        echo "tier1: FAIL — TP_OBS=trace run did not write $artifact" >&2
        exit 1
    fi
done

echo "tier1: OK"
