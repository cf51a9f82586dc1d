#!/usr/bin/env bash
# End-to-end cluster walkthrough: bring up a fleet of 6 device servers
# plus one spare, place a STAIR volume across them with staird, write
# and read blocks over the HTTP API, then kill one device server and
# watch the volume serve degraded reads, fail over to the spare, and
# rebuild the lost column — finishing with a scrub that proves no
# sector was lost.
#
# Usage: examples/cluster/run.sh   (from the repository root)
# Ports and the scratch directory can be overridden via BASE_PORT,
# STAIRD_PORT and WORKDIR. CI runs this script as its cluster smoke.
set -euo pipefail

BASE_PORT="${BASE_PORT:-19300}"
STAIRD_PORT="${STAIRD_PORT:-19400}"
WORKDIR="${WORKDIR:-$(mktemp -d)}"
STAIRD="http://127.0.0.1:${STAIRD_PORT}"
BLOCKS=32
PIDS=()

cleanup() {
    for pid in "${PIDS[@]:-}"; do kill "$pid" 2>/dev/null || true; done
    wait 2>/dev/null || true
}
trap cleanup EXIT

wait_for() { # wait_for <url> [tries]
    local url="$1" tries="${2:-50}"
    for _ in $(seq "$tries"); do
        curl -fsS "$url" >/dev/null 2>&1 && return 0
        sleep 0.2
    done
    echo "timed out waiting for $url" >&2
    return 1
}

echo "== building =="
go build -o "$WORKDIR/bin/" ./cmd/staird

echo "== generating fleet (6 actives + 1 spare) =="
"$WORKDIR/bin/staird" fleet -n 6 -spares 1 -base-port "$BASE_PORT" \
    -out "$WORKDIR/fleet.json"
cat "$WORKDIR/fleet.json"

echo "== starting device servers =="
for i in $(seq 0 6); do
    # 64 sectors = the volume's stripes (16) × rows per column (4): the
    # store checks device geometry exactly.
    "$WORKDIR/bin/staird" device -listen "127.0.0.1:$((BASE_PORT + i))" \
        -sectors 64 -sector 4096 -latency 200us -jitter 300us \
        >"$WORKDIR/dev$i.log" 2>&1 &
    PIDS+=($!)
done
for i in $(seq 0 6); do
    wait_for "http://127.0.0.1:$((BASE_PORT + i))/v1/geometry"
done

echo "== starting staird =="
"$WORKDIR/bin/staird" serve -listen "127.0.0.1:${STAIRD_PORT}" \
    -fleet "$WORKDIR/fleet.json" -volume demo \
    -n 6 -r 4 -m 2 -e 1,2 -stripes 16 -sector 4096 \
    -heartbeat 200ms -fail-after 2 \
    >"$WORKDIR/staird.log" 2>&1 &
PIDS+=($!)
wait_for "$STAIRD/v1/status"
cat "$WORKDIR/staird.log"

echo "== writing $BLOCKS blocks =="
for b in $(seq 0 $((BLOCKS - 1))); do
    {
        printf 'block-%04d-' "$b"
        head -c 4096 /dev/zero | tr '\0' "\\$(printf '%03o' $((65 + b % 26)))"
    } | head -c 4096 >"$WORKDIR/in$b"
    curl -fsS -X PUT --data-binary "@$WORKDIR/in$b" \
        "$STAIRD/v1/blocks/$b" >/dev/null
done
curl -fsS -X POST "$STAIRD/v1/sync" >/dev/null

verify_blocks() { # verify_blocks <label>
    for b in $(seq 0 $((BLOCKS - 1))); do
        curl -fsS "$STAIRD/v1/blocks/$b" -o "$WORKDIR/out$b"
        cmp -s "$WORKDIR/in$b" "$WORKDIR/out$b" || {
            echo "$1: block $b corrupt" >&2
            return 1
        }
    done
    echo "$1: all $BLOCKS blocks verified"
}
verify_blocks "healthy read-back"

echo "== killing one device server mid-flight =="
victim_url=$(curl -fsS "$STAIRD/v1/status" |
    python3 -c 'import json,sys; print(json.load(sys.stdin)["placement"][0]["url"])')
victim_port="${victim_url##*:}"
victim_idx=$((victim_port - BASE_PORT))
echo "victim: $victim_url (dev$victim_idx)"
kill "${PIDS[$victim_idx]}"

verify_blocks "degraded read-back"

echo "== waiting for failover + rebuild onto the spare =="
rebuilds=0
for _ in $(seq 100); do
    rebuilds=$(curl -fsS "$STAIRD/v1/metrics" |
        python3 -c 'import json,sys; print(json.load(sys.stdin)["cluster"]["rebuilds"])' ||
        echo 0)
    [ "$rebuilds" -ge 1 ] && break
    sleep 0.3
done
[ "$rebuilds" -ge 1 ] || { echo "rebuild never ran" >&2; exit 1; }
curl -fsS "$STAIRD/v1/status" |
    python3 -c '
import json, sys
health = json.load(sys.stdin)["health"]
dead = [h for h in health if not h["alive"]]
assert not dead, f"columns still dead after failover: {dead}"
print("all columns alive; column 0 now on", health[0]["server"])
'

echo "== scrubbing =="
curl -fsS -X POST "$STAIRD/v1/scrub" | python3 -c '
import json, sys
rep = json.load(sys.stdin)
assert rep["SectorsLost"] == 0 and rep["StripesDamaged"] == 0, rep
print("scrub clean:", rep["StripesChecked"], "stripes checked, 0 lost")
'
verify_blocks "post-rebuild read-back"

echo "== cluster demo passed =="
