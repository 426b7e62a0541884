#!/bin/sh
# End-to-end smoke test of the networked shard tier: build proxserve,
# start two real shard processes (-serve-shard -shard-of i/2) and a
# coordinator (-shards-at ... -quorum 1), then drive queries through a
# rolling restart of both shards. The gate: not a single query may
# fail. While a shard is down the coordinator must keep answering
# (degraded, flagged as such in the JSON body); once both shards are
# back the fleet must report healthy again.
#
# The coordinator runs -fn win against shards started with the default
# -fn (med), so the kernel spec on the wire is one no shard built pair
# lists for at start-up: each shard has to build them on demand, from
# the whole-index plan, and a RESTARTED shard has to do so again with
# nobody telling it to. The script waits (bounded) for every shard's
# /shardstats to show PairServed growing, before and after the roll.
#
# The shards run -synth 400. Like every process, they serve through the
# block layer, building each concept's table from the postings on first
# use — the path the benchmark measures — which shows as "BlockDecodes"
# above 0 on each shard, before and after the roll.
#
# Needs curl or wget for HTTP; skips cleanly when neither is present
# (the in-repo equivalent runs as TestRemoteRollingRestart).
set -eu

cd "$(dirname "$0")/.."

if command -v curl >/dev/null 2>&1; then
    fetch() { curl -fsS --max-time 5 "$1"; }
elif command -v wget >/dev/null 2>&1; then
    fetch() { wget -qO- -T 5 "$1"; }
else
    echo "smoke-remote: neither curl nor wget installed; skipping"
    exit 0
fi

TMP="$(mktemp -d)"
PIDS=""
cleanup() {
    for p in $PIDS; do
        kill "$p" 2>/dev/null || true
    done
    wait 2>/dev/null || true
    rm -rf "$TMP"
}
trap cleanup EXIT INT TERM

echo "== build proxserve =="
go build -o "$TMP/proxserve" ./cmd/proxserve

# Ports derived from the PID so parallel runs on a shared host don't
# collide; three consecutive ports for coordinator + two shards.
BASE=$(( 17000 + ($$ % 4000) * 3 % 12000 ))
COORD="127.0.0.1:$BASE"
SHARD0="127.0.0.1:$(( BASE + 1 ))"
SHARD1="127.0.0.1:$(( BASE + 2 ))"

start_shard() { # $1 = shard ordinal, $2 = address; echoes the pid
    "$TMP/proxserve" -synth 400 -serve-shard -shard-of "$1/2" \
        -http "$2" >"$TMP/shard$1.log" 2>&1 &
    echo $!
}

wait_healthy() { # $1 = address, $2 = label
    i=0
    while ! fetch "http://$1/healthz" >/dev/null 2>&1; do
        i=$(( i + 1 ))
        if [ "$i" -gt 100 ]; then
            echo "smoke-remote: $2 at $1 never became healthy" >&2
            cat "$TMP"/*.log >&2 || true
            exit 1
        fi
        sleep 0.1
    done
}

echo "== start 2 shard processes + coordinator =="
PID0="$(start_shard 0 "$SHARD0")"
PID1="$(start_shard 1 "$SHARD1")"
PIDS="$PID0 $PID1"
wait_healthy "$SHARD0" "shard 0"
wait_healthy "$SHARD1" "shard 1"

"$TMP/proxserve" -shards-at "$SHARD0,$SHARD1" -quorum 1 -fn win \
    -http "$COORD" >"$TMP/coord.log" 2>&1 &
CPID=$!
PIDS="$PIDS $CPID"
wait_healthy "$COORD" "coordinator"

QUERY="http://$COORD/query?terms=lenovo,nba,partnership&k=5"
# quartz and ribbon are filler vocabulary of the -synth corpus: in
# nearly every document, so their pair heads the pair plan.
PAIRQUERY="http://$COORD/query?terms=quartz,ribbon&k=5"
FAILED=0
DEGRADED=0
run_queries() { # $1 = count, $2 = label, $3 = URL (default $QUERY)
    n=0
    while [ "$n" -lt "$1" ]; do
        n=$(( n + 1 ))
        if body="$(fetch "${3:-$QUERY}")"; then
            case "$body" in
            *'"Docs"'*) ;;
            *)
                echo "smoke-remote: $2 query $n returned no Docs field: $body" >&2
                FAILED=$(( FAILED + 1 ))
                ;;
            esac
            case "$body" in
            *'"degraded":true'* | *'"degraded": true'*) DEGRADED=$(( DEGRADED + 1 )) ;;
            esac
        else
            echo "smoke-remote: $2 query $n failed outright" >&2
            FAILED=$(( FAILED + 1 ))
        fi
    done
}

# settle polls until a query answers non-degraded: after a shard
# restart its circuit breaker stays open for a cooldown, so a
# health-gated roll must not take down the next shard until the fleet
# has genuinely re-absorbed the previous one.
settle() { # $1 = label
    i=0
    while :; do
        body="$(fetch "$QUERY")" || body=""
        case "$body" in
        *'"degraded":false'* | *'"degraded": false'*) return 0 ;;
        esac
        i=$(( i + 1 ))
        if [ "$i" -gt 50 ]; then
            echo "smoke-remote: fleet still degraded $1" >&2
            cat "$TMP"/*.log >&2 || true
            exit 1
        fi
        sleep 0.1
    done
}

# shard_stat prints one counter of a shard's /shardstats (0 if
# unreadable).
shard_stat() { # $1 = shard address, $2 = counter name
    n="$(fetch "http://$1/shardstats" | sed -n 's/.*"'"$2"'":\([0-9][0-9]*\).*/\1/p')" || n=""
    echo "${n:-0}"
}
pair_served() { shard_stat "$1" PairServed; }

# assert_block_served fails unless both shards have decoded blocks.
assert_block_served() { # $1 = label
    for addr in "$SHARD0" "$SHARD1"; do
        if [ "$(shard_stat "$addr" BlockDecodes)" -eq 0 ]; then
            echo "smoke-remote: shard $addr answered queries with BlockDecodes 0 $1:" \
                "it is not serving through block tables" >&2
            exit 1
        fi
    done
}

# await_pair_served sends the heavy two-term query through the
# coordinator until BOTH shards have answered it off a pair list since
# the call began: the first queries are kernel-joined and start each
# shard's background build, later ones are served from what it attached.
await_pair_served() { # $1 = label
    was0="$(pair_served "$SHARD0")"
    was1="$(pair_served "$SHARD1")"
    i=0
    while :; do
        run_queries 1 "pair query $1" "$PAIRQUERY"
        if [ "$(pair_served "$SHARD0")" -gt "$was0" ] && [ "$(pair_served "$SHARD1")" -gt "$was1" ]; then
            return 0
        fi
        i=$(( i + 1 ))
        if [ "$i" -gt 100 ]; then
            echo "smoke-remote: a shard never served the coordinator's spec from a pair list $1" \
                "(PairServed shard0 $was0 -> $(pair_served "$SHARD0"), shard1 $was1 -> $(pair_served "$SHARD1"))" >&2
            cat "$TMP"/*.log >&2 || true
            exit 1
        fi
        sleep 0.1
    done
}

echo "== queries against the healthy fleet =="
run_queries 5 "healthy"
echo "== both shards build pair lists for the coordinator's spec on demand =="
await_pair_served "before the roll"
assert_block_served "before the roll"
if [ "$DEGRADED" -ne 0 ]; then
    echo "smoke-remote: healthy fleet answered degraded" >&2
    exit 1
fi

echo "== rolling restart: shard 0, then shard 1, under query load =="
for ORD in 0 1; do
    if [ "$ORD" = 0 ]; then PID="$PID0"; ADDR="$SHARD0"; else PID="$PID1"; ADDR="$SHARD1"; fi
    kill "$PID"
    wait "$PID" 2>/dev/null || true
    run_queries 10 "shard $ORD down"
    NEWPID="$(start_shard "$ORD" "$ADDR")"
    PIDS="$PIDS $NEWPID"
    wait_healthy "$ADDR" "restarted shard $ORD"
    settle "after restarting shard $ORD"
    run_queries 5 "shard $ORD restarted"
done

if [ "$FAILED" -ne 0 ]; then
    echo "smoke-remote: $FAILED queries failed during the rolling restart" >&2
    cat "$TMP"/*.log >&2 || true
    exit 1
fi
if [ "$DEGRADED" -eq 0 ]; then
    echo "smoke-remote: no query answered degraded while a shard was down" >&2
    exit 1
fi

# Both shards restarted: the fleet must settle back to healthy,
# full-fleet answers.
echo "== fleet settles back to non-degraded =="
settle "after both shards restarted"

# Nothing told the restarted shards which spec to prepare: the spec
# rides every query, and each shard planned for itself at start-up.
echo "== restarted shards serve pair lists again =="
DEGRADED_ROLL="$DEGRADED"
await_pair_served "after the roll"
assert_block_served "after the roll"
if [ "$FAILED" -ne 0 ] || [ "$DEGRADED" -ne "$DEGRADED_ROLL" ]; then
    echo "smoke-remote: pair queries after the roll: $FAILED failed, $(( DEGRADED - DEGRADED_ROLL )) degraded" >&2
    cat "$TMP"/*.log >&2 || true
    exit 1
fi

echo "smoke-remote: OK ($DEGRADED degraded answers while shards were down, 0 failed queries)"
