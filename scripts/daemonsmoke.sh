#!/bin/sh
# End-to-end wire smoke: build the daemon and the load generator, start
# numaplaced on an ephemeral loopback port at reduced training fidelity,
# drive it with `loadgen -quick -json`, and assert the run was clean —
# zero request errors, zero dropped event frames — and that SIGTERM
# produces a graceful, zero-status shutdown. CI runs this on every push.
#
# Usage: scripts/daemonsmoke.sh
set -eu

dir="$(mktemp -d)"
daemon_pid=""
cleanup() {
    if [ -n "$daemon_pid" ] && kill -0 "$daemon_pid" 2>/dev/null; then
        kill "$daemon_pid" 2>/dev/null || true
        wait "$daemon_pid" 2>/dev/null || true
    fi
    rm -rf "$dir"
}
trap cleanup EXIT

echo "building numaplaced and loadgen..."
go build -o "$dir/numaplaced" ./cmd/numaplaced
go build -o "$dir/loadgen" ./cmd/loadgen

# -listen 127.0.0.1:0 picks a free port; the daemon prints the resolved
# address in its readiness line once the engines finish training.
: > "$dir/daemon.log" # the poll below may run before the child opens it
"$dir/numaplaced" -listen 127.0.0.1:0 -quick > "$dir/daemon.log" 2>&1 &
daemon_pid=$!

addr=""
i=0
while [ $i -lt 600 ]; do
    addr="$(sed -n 's|^numaplaced: serving on \(http://[^ ]*\)$|\1|p' "$dir/daemon.log")"
    [ -n "$addr" ] && break
    if ! kill -0 "$daemon_pid" 2>/dev/null; then
        echo "FAIL: daemon exited before becoming ready:"
        cat "$dir/daemon.log"
        exit 1
    fi
    sleep 0.1
    i=$((i + 1))
done
if [ -z "$addr" ]; then
    echo "FAIL: daemon not ready after 60s:"
    cat "$dir/daemon.log"
    exit 1
fi
echo "daemon ready at $addr"

"$dir/loadgen" -addr "$addr" -quick -json > "$dir/loadgen.json"
cat "$dir/loadgen.json"

# The -json schema is one flat object; grep the two cleanliness fields.
if ! grep -q '"errors":0,' "$dir/loadgen.json"; then
    echo "FAIL: loadgen reported request errors"
    exit 1
fi
if ! grep -q '"events_dropped":0,' "$dir/loadgen.json"; then
    echo "FAIL: the daemon dropped event frames for the loadgen subscriber"
    exit 1
fi

# Graceful shutdown: SIGTERM must drain and exit 0.
kill -TERM "$daemon_pid"
if ! wait "$daemon_pid"; then
    echo "FAIL: daemon exited non-zero on SIGTERM:"
    cat "$dir/daemon.log"
    exit 1
fi
daemon_pid=""
if ! grep -q '^numaplaced: bye$' "$dir/daemon.log"; then
    echo "FAIL: daemon log missing clean-shutdown marker:"
    cat "$dir/daemon.log"
    exit 1
fi
echo "daemon smoke passed: clean run, zero dropped events, graceful shutdown"
