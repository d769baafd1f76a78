#!/bin/sh
# serve-check: end-to-end crash-recovery gate for ssvc-serve.
#
# Three runs of the same scripted scenario (scripts/serve_check.script,
# with a mid-run fail-stop) must produce byte-identical delivery traces
# and final summaries:
#
#   A  uninterrupted reference run
#   B  paced run SIGKILLed mid-simulation, then resumed from its journal
#      with the same arguments (with -trace, recovery re-executes the
#      journal from genesis, so the resumed trace covers the whole run)
#   C  offline replay of run B's journal alone
#
# and a fourth, B', repeats B without -trace: that daemon recovers as
# daemons do, from the newest snapshot in its journal, re-executing only
# the cycles behind it, and must still print run A's summary.
#
# Any divergence — a lease that re-expired differently, a fault applied
# twice, a torn journal record silently accepted — shows up as a cmp/diff
# failure. See DESIGN.md "Control plane".
set -eu

cd "$(dirname "$0")/.."
work=$(mktemp -d)
trap 'rm -rf "$work"' EXIT

go build -o "$work/ssvc-serve" ./cmd/ssvc-serve
bin="$work/ssvc-serve"
common="-script scripts/serve_check.script -total 60000 -snap-every 5000 -fail in4@30000 -seed 42"

echo "serve-check: run A (uninterrupted reference)"
"$bin" -journal "$work/a.jsonl" -trace "$work/a.trace" $common > "$work/a.out"

echo "serve-check: run B (paced, SIGKILL mid-run, resume)"
"$bin" -journal "$work/b.jsonl" -trace "$work/b.trace" -pace 10 $common > "$work/b1.out" &
pid=$!
sleep 2
kill -KILL "$pid" 2>/dev/null || {
    echo "serve-check: FAIL: paced run finished before the kill landed (pace too fast for this host?)" >&2
    exit 1
}
wait "$pid" 2>/dev/null || true

"$bin" -journal "$work/b.jsonl" -trace "$work/b.trace" $common > "$work/b2.out"
grep -q "^recovered journal" "$work/b2.out" || {
    echo "serve-check: FAIL: resumed run did not recover from the journal" >&2
    cat "$work/b2.out" >&2
    exit 1
}

cmp "$work/a.trace" "$work/b.trace" || {
    echo "serve-check: FAIL: resumed trace differs from the uninterrupted reference" >&2
    exit 1
}
# Rejected commands are deliberately never journaled (they do not disturb
# the simulation), so the rejected= counter is local observability, not
# recovered state: mask it. Everything else — trace hash, deliveries,
# admitted/expired/revoked, live reservations — must match exactly.
summary() { tail -n 2 "$1" | sed 's/rejected=[0-9]*/rejected=-/'; }
summary "$work/a.out" > "$work/a.sum"
summary "$work/b2.out" > "$work/b.sum"
diff "$work/a.sum" "$work/b.sum" || {
    echo "serve-check: FAIL: resumed summary differs from the uninterrupted reference" >&2
    exit 1
}

echo "serve-check: run B' (paced, SIGKILL mid-run, resume from the last snapshot: no trace)"
"$bin" -journal "$work/bp.jsonl" -pace 10 $common > "$work/bp1.out" &
pid=$!
sleep 2
kill -KILL "$pid" 2>/dev/null || {
    echo "serve-check: FAIL: paced run finished before the kill landed (pace too fast for this host?)" >&2
    exit 1
}
wait "$pid" 2>/dev/null || true

"$bin" -journal "$work/bp.jsonl" $common > "$work/bp2.out"
grep -q "^recovered journal .* snapshot at cycle [1-9][0-9]*, [0-9]* cycles re-executed" "$work/bp2.out" || {
    echo "serve-check: FAIL: run B' did not recover from a snapshot" >&2
    cat "$work/bp2.out" >&2
    exit 1
}
summary "$work/bp2.out" > "$work/bp.sum"
diff "$work/a.sum" "$work/bp.sum" || {
    echo "serve-check: FAIL: summary of the run resumed from a snapshot differs from the uninterrupted reference" >&2
    exit 1
}

echo "serve-check: run C (offline replay of run B's journal)"
"$bin" -replay "$work/b.jsonl" -trace "$work/c.trace" > "$work/c.out"
cmp "$work/a.trace" "$work/c.trace" || {
    echo "serve-check: FAIL: replayed trace differs from the uninterrupted reference" >&2
    exit 1
}
summary "$work/c.out" > "$work/c.sum"
diff "$work/a.sum" "$work/c.sum" || {
    echo "serve-check: FAIL: replayed summary differs from the uninterrupted reference" >&2
    exit 1
}

echo "serve-check: PASS ($(wc -l < "$work/a.trace") deliveries; killed at $(sed -n 's/^recovered journal [^ ]* at cycle \([0-9]*\).*/cycle \1/p' "$work/b2.out"); B' $(sed -n 's/^recovered journal .*; \(snapshot at cycle [0-9]*, [0-9]* cycles re-executed\)).*/\1/p' "$work/bp2.out"))"
