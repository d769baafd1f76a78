#!/bin/sh
# suite-check: the ssvc-bench binary, as a user runs it.
#
# The whole -quick suite must print the same bytes when its tables run
# one after another (-workers 1) and when they overlap on a shared budget
# of four processors (-workers 4, GOMAXPROCS=4): which sweep points ran
# beside which must show nowhere in standard output (DESIGN.md "Sweep
# parallelism"). And one unknown -exp name must refuse the whole
# selection with exit 2, not print the names it does know.
set -eu

cd "$(dirname "$0")/.."
work=$(mktemp -d)
trap 'rm -rf "$work"' EXIT

go build -o "$work/ssvc-bench" ./cmd/ssvc-bench
bin="$work/ssvc-bench"

echo "suite-check: -quick at -workers 1"
"$bin" -quick -workers 1 > "$work/serial.out"
echo "suite-check: -quick at -workers 4, GOMAXPROCS=4"
GOMAXPROCS=4 "$bin" -quick -workers 4 > "$work/shared.out"
serial=$(sha256sum < "$work/serial.out")
shared=$(sha256sum < "$work/shared.out")
if [ "$serial" != "$shared" ]; then
    echo "suite-check: FAIL: standard output depends on the worker count" >&2
    diff "$work/serial.out" "$work/shared.out" >&2 || true
    exit 1
fi

echo "suite-check: -exp table1,nonsense"
code=0
"$bin" -exp table1,nonsense > "$work/unknown.out" 2> "$work/unknown.err" || code=$?
if [ "$code" -ne 2 ] || [ -s "$work/unknown.out" ] || ! grep -q '"nonsense"' "$work/unknown.err"; then
    echo "suite-check: FAIL: exit $code (want 2), stdout $(wc -c < "$work/unknown.out") bytes (want 0), stderr:" >&2
    cat "$work/unknown.err" >&2
    exit 1
fi
echo "suite-check: OK (${serial%% *})"
