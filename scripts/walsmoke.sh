#!/bin/sh
# Crash-recovery smoke: the durability property, end to end, against a
# live daemon. Start numaplaced with a write-ahead log (-data-dir, -fsync
# always), pin a handful of tenants that are never released, churn the
# wire with `loadgen -quick`, capture /v1/assignments, then kill -9 the
# daemon — no drain, no final snapshot, the log tail is all there is.
# A successor daemon on the same -data-dir must replay the log into
# freshly retrained engines and serve the byte-identical assignment set
# (same IDs, same backends, same NUMA nodes, same predictions), prove the
# recovered state is live by releasing one recovered tenant over the
# wire, and still shut down gracefully. Beside that, the two surfaces of
# the one commit stream must agree: the last seq a /v1/events watcher saw
# is /v1/log/head's, and the successor's first frame carries the recovered
# seq plus one. Then the successor's SIGTERM checkpoint is reopened: a third
# daemon on the same -data-dir must recover from the snapshot alone (0
# records replayed) and serve the successor's assignments byte for byte.
# Last, the third daemon pins a new tenant, churns, releases the pinned
# tenant the snapshot holds and is killed with -9: a fourth daemon must
# recover from that snapshot plus the tail above it and serve the third's
# assignments byte for byte. CI runs this on every push.
#
# The kill lands with live tenants resident and an unsnapshotted tail in
# the log: recovery must come from the appended records alone. The diff
# is taken after the churn pass completes (loadgen releases everything it
# admits) so no mutation races the capture — the recovered set has
# exactly the pinned tenants.
#
# Usage: scripts/walsmoke.sh
set -eu

dir="$(mktemp -d)"
daemon_pid=""
feed_pid=""
cleanup() {
    [ -z "$feed_pid" ] || kill "$feed_pid" 2>/dev/null || true
    if [ -n "$daemon_pid" ] && kill -0 "$daemon_pid" 2>/dev/null; then
        kill -9 "$daemon_pid" 2>/dev/null || true
        wait "$daemon_pid" 2>/dev/null || true
    fi
    rm -rf "$dir"
}
trap cleanup EXIT

echo "building numaplaced and loadgen..."
go build -o "$dir/numaplaced" ./cmd/numaplaced
go build -o "$dir/loadgen" ./cmd/loadgen

# start_daemon: launch on an ephemeral port with the shared -data-dir and
# wait for the readiness line. Sets $daemon_pid and $addr.
start_daemon() {
    logfile="$1"
    : > "$logfile" # the poll below may run before the child opens it
    "$dir/numaplaced" -listen 127.0.0.1:0 -quick \
        -data-dir "$dir/wal" -fsync always > "$logfile" 2>&1 &
    daemon_pid=$!
    addr=""
    i=0
    while [ $i -lt 600 ]; do
        addr="$(sed -n 's|^numaplaced: serving on \(http://[^ ]*\)$|\1|p' "$logfile")"
        [ -n "$addr" ] && break
        if ! kill -0 "$daemon_pid" 2>/dev/null; then
            # A successor that cannot open or replay its log says so in
            # one line: lead with it, the full log follows.
            echo "FAIL: daemon exited before becoming ready: $(grep -m1 'write-ahead log in' "$logfile" || true)"
            cat "$logfile"
            exit 1
        fi
        sleep 0.1
        i=$((i + 1))
    done
    if [ -z "$addr" ]; then
        echo "FAIL: daemon not ready after 60s:"
        cat "$logfile"
        exit 1
    fi
}

# watch_feed: stream /v1/events into the named file and wait for the
# hello, after which the subscription sees every commit. Sets $feed_pid.
watch_feed() {
    curl -sN "$addr/v1/events" > "$1" &
    feed_pid=$!
    i=0
    until grep -q 'numaplaced event stream' "$1"; do
        i=$((i + 1))
        [ $i -lt 100 ] || { echo "FAIL: no event stream from $addr"; exit 1; }
        sleep 0.1
    done
}

# feed_seq: the seq of the first ($2 = 1) or last ($2 = '$') frame in a feed.
feed_seq() {
    sed -n 's/^data: {"seq":\([0-9]*\),.*/\1/p' "$1" | sed -n "$2p"
}

start_daemon "$dir/daemon1.log"
echo "daemon ready at $addr (data dir $dir/wal)"
watch_feed "$dir/feed1"

# Pin tenants that survive until the kill: placed, never released. Two of
# them — the quick fleet holds four 16-vCPU containers, and the churn pass
# needs free slots to actually admit. Their fleet-wide IDs lead the
# response object; keep one for the post-restart release probe.
release_id=""
pinned_ids=""
for w in gcc canneal; do
    resp="$(curl -sf -X POST "$addr/v1/place" \
        -d "{\"workload\":\"$w\",\"vcpus\":16}")" || {
        echo "FAIL: placing pinned tenant $w"
        exit 1
    }
    id="$(printf '%s' "$resp" | sed -n 's/^{"id":\([0-9]*\),.*/\1/p')"
    [ -n "$release_id" ] || release_id="$id"
    pinned_ids="$pinned_ids $id"
    echo "pinned $w as tenant $id"
done

# Churn: a full loadgen pass admits and releases hundreds of containers
# around the pinned ones, growing the log well past the pinned prefix.
"$dir/loadgen" -addr "$addr" -quick > /dev/null

curl -sf "$addr/v1/assignments" > "$dir/before.json"
curl -sf "$addr/v1/log/head" > "$dir/head-before.json"
echo "pre-crash: $(cat "$dir/head-before.json")"

# The feed is the log: the watcher's last frame (the churn's last commit is
# a release — a rejection needs a full fleet, whose holders release after
# it) carries the log head's seq. 50 ms covers the 1 ms paced flush.
sleep 0.05
head_seq="$(sed -n 's/^{"seq":\([0-9]*\),.*/\1/p' "$dir/head-before.json")"
last_seq="$(feed_seq "$dir/feed1" '$')"
if [ -z "$head_seq" ] || [ "$last_seq" != "$head_seq" ]; then
    echo "FAIL: the event feed ends at seq '$last_seq', the log head is at '$head_seq'"
    exit 1
fi
echo "event feed and log head agree at seq $head_seq"

# The crash: SIGKILL, mid-tenancy. No handler runs, nothing is flushed
# beyond what each acknowledged request already fsynced.
kill -9 "$daemon_pid"
wait "$daemon_pid" 2>/dev/null || true
daemon_pid=""

start_daemon "$dir/daemon2.log"
echo "successor ready at $addr"
if ! grep -q '^numaplaced: recovered ' "$dir/daemon2.log"; then
    echo "FAIL: successor log missing recovery line:"
    cat "$dir/daemon2.log"
    exit 1
fi
grep '^numaplaced: recovered ' "$dir/daemon2.log"

curl -sf "$addr/v1/assignments" > "$dir/after.json"
if ! cmp -s "$dir/before.json" "$dir/after.json"; then
    echo "FAIL: recovered assignments differ from pre-crash assignments"
    echo "--- before ---"; cat "$dir/before.json"
    echo "--- after ---"; cat "$dir/after.json"
    exit 1
fi
echo "assignments identical across kill -9 ($(wc -c < "$dir/before.json") bytes)"

# The recovered head must report persistence and a non-trivial replay.
head="$(curl -sf "$addr/v1/log/head")"
echo "post-crash: $head"
case "$head" in
    *'"persistent":true'*) ;;
    *) echo "FAIL: successor does not report persistence: $head"; exit 1 ;;
esac
case "$head" in
    *'"recovered_seq":0'*) echo "FAIL: successor replayed nothing: $head"; exit 1 ;;
    *) ;;
esac

# Recovered state must be live, not a read-only facsimile: releasing a
# recovered tenant must succeed over the wire — and that release, the
# successor's first commit, is numbered on from the recovered log.
watch_feed "$dir/feed2"
curl -sf -X POST "$addr/v1/release" -d "{\"id\":$release_id}" > /dev/null || {
    echo "FAIL: releasing recovered tenant $release_id"
    exit 1
}
echo "released recovered tenant $release_id"
recovered_seq="$(printf '%s' "$head" | sed -n 's/.*"recovered_seq":\([0-9]*\).*/\1/p')"
i=0
until first_seq="$(feed_seq "$dir/feed2" 1)" && [ -n "$first_seq" ]; do
    i=$((i + 1))
    [ $i -lt 100 ] || { echo "FAIL: the release reached no event watcher"; exit 1; }
    sleep 0.1
done
if [ "$first_seq" != "$((recovered_seq + 1))" ]; then
    echo "FAIL: the successor's first frame has seq $first_seq, recovered seq is $recovered_seq"
    exit 1
fi
echo "successor's first frame continues the log at seq $((recovered_seq + 1))"
kill "$feed_pid" 2>/dev/null || true
feed_pid=""
curl -sf "$addr/v1/assignments" > "$dir/successor.json"

# stop_daemon: SIGTERM, a zero exit, and the shutdown checkpoint in the named
# log. Sets $snap_seq to the checkpoint's seq.
stop_daemon() {
    kill -TERM "$daemon_pid"
    if ! wait "$daemon_pid"; then
        echo "FAIL: daemon exited non-zero on SIGTERM:"
        cat "$1"
        exit 1
    fi
    daemon_pid=""
    snap_seq="$(sed -n 's/^numaplaced: checkpointed at seq \([0-9]*\)$/\1/p' "$1")"
    if [ -z "$snap_seq" ]; then
        echo "FAIL: daemon log missing shutdown checkpoint:"
        cat "$1"
        exit 1
    fi
}

# And the successor still owes a graceful exit: checkpoint, close, bye.
stop_daemon "$dir/daemon2.log"
echo "successor checkpointed at seq $snap_seq"

# The checkpoint is the whole history now: a third daemon recovers from the
# snapshot alone and serves what the successor served.
start_daemon "$dir/daemon3.log"
line="$(grep '^numaplaced: recovered ' "$dir/daemon3.log" || true)"
echo "$line"
case "$line" in
    *" at seq $snap_seq (snapshot $snap_seq) "*": 0 records replayed,"*) ;;
    *) echo "FAIL: third daemon did not recover from the seq $snap_seq snapshot alone:"
       cat "$dir/daemon3.log"
       exit 1 ;;
esac
curl -sf "$addr/v1/assignments" > "$dir/third.json"
if ! cmp -s "$dir/successor.json" "$dir/third.json"; then
    echo "FAIL: assignments recovered from the snapshot differ from the successor's"
    echo "--- successor ---"; cat "$dir/successor.json"
    echo "--- third ---"; cat "$dir/third.json"
    exit 1
fi
echo "snapshot reopened: assignments identical ($(wc -c < "$dir/third.json") bytes)"

# A snapshot plus a tail: the third daemon pins a tenant the snapshot does
# not hold, churns, releases the pinned tenant the snapshot does hold, and
# dies by kill -9. The fourth must replay the tail above the snapshot.
curl -sf -X POST "$addr/v1/place" -d '{"workload":"gcc","vcpus":16}' > /dev/null || {
    echo "FAIL: pinning a tenant on the third daemon"
    exit 1
}
"$dir/loadgen" -addr "$addr" -quick > /dev/null
for id in $pinned_ids; do
    [ "$id" = "$release_id" ] && continue
    curl -sf -X POST "$addr/v1/release" -d "{\"id\":$id}" > /dev/null || {
        echo "FAIL: releasing snapshot tenant $id on the third daemon"
        exit 1
    }
    echo "released snapshot tenant $id"
done
curl -sf "$addr/v1/assignments" > "$dir/third-tail.json"
kill -9 "$daemon_pid"
wait "$daemon_pid" 2>/dev/null || true
daemon_pid=""

start_daemon "$dir/daemon4.log"
line="$(grep '^numaplaced: recovered ' "$dir/daemon4.log" || true)"
echo "$line"
replayed="$(printf '%s' "$line" | sed -n "s/.* (snapshot $snap_seq) .*: \([0-9]*\) records replayed,.*/\1/p")"
if [ -z "$replayed" ] || [ "$replayed" -eq 0 ]; then
    echo "FAIL: fourth daemon did not replay a tail above the seq $snap_seq snapshot:"
    cat "$dir/daemon4.log"
    exit 1
fi
curl -sf "$addr/v1/assignments" > "$dir/fourth.json"
if ! cmp -s "$dir/third-tail.json" "$dir/fourth.json"; then
    echo "FAIL: assignments recovered from the snapshot and its tail differ from the third daemon's"
    echo "--- third ---"; cat "$dir/third-tail.json"
    echo "--- fourth ---"; cat "$dir/fourth.json"
    exit 1
fi
echo "snapshot plus $replayed records replayed: assignments identical ($(wc -c < "$dir/fourth.json") bytes)"
stop_daemon "$dir/daemon4.log"
echo "wal smoke passed: kill -9 survived, assignments identical, recovered state live, snapshot reopened, snapshot plus tail replayed"
