#!/usr/bin/env bash
# Process-level soak: the nightly long-run counterpart to run.sh. Brings
# up a latency-shaped fleet (fixed -latency-seed per device, so the
# jitter/spike timing is reproducible run to run) with the integrity
# sidecar on, pushes sustained mixed traffic at the volume API, kills a
# device server mid-traffic, waits out failover + rebuild, scrubs, and
# then audits the final /v1/metrics snapshot: zero unrecoverable
# stripes, zero checksum mismatches (false alarms), and per-op-class
# latency percentile rows present. Metrics snapshots before and after
# the kill land in OUTDIR so CI can upload them as artifacts.
#
# Usage: examples/cluster/soak.sh   (from the repository root)
# Ports, scratch and artifact directories can be overridden via
# BASE_PORT, STAIRD_PORT, WORKDIR and OUTDIR; ROUNDS scales the traffic
# phase (the nightly soak workflow raises it).
set -euo pipefail

BASE_PORT="${BASE_PORT:-19500}"
STAIRD_PORT="${STAIRD_PORT:-19600}"
WORKDIR="${WORKDIR:-$(mktemp -d)}"
OUTDIR="${OUTDIR:-$WORKDIR/soak-out}"
STAIRD="http://127.0.0.1:${STAIRD_PORT}"
BLOCKS=32
ROUNDS="${ROUNDS:-4}"
PIDS=()
mkdir -p "$OUTDIR"

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

echo "== starting device servers (seeded latency profiles) =="
for i in $(seq 0 6); do
    # 65 sectors = stripes (16) × rows per column (4) data sectors plus
    # the 1-sector integrity sidecar region (serve prints the figure).
    "$WORKDIR/bin/staird" device -listen "127.0.0.1:$((BASE_PORT + i))" \
        -sectors 65 -sector 4096 \
        -latency 200us -jitter 300us -spike 5ms -spike-prob 0.01 \
        -latency-seed $((1000 + i)) \
        >"$WORKDIR/dev$i.log" 2>&1 &
    PIDS+=($!)
done
for i in $(seq 0 6); do
    wait_for "http://127.0.0.1:$((BASE_PORT + i))/v1/geometry"
done

echo "== starting staird (integrity + hedged reads) =="
"$WORKDIR/bin/staird" serve -listen "127.0.0.1:${STAIRD_PORT}" \
    -fleet "$WORKDIR/fleet.json" -volume soak \
    -n 6 -r 4 -m 2 -e 1,2 -stripes 16 -sector 4096 \
    -integrity -epoch 7 \
    -heartbeat 200ms -fail-after 2 \
    >"$WORKDIR/staird.log" 2>&1 &
PIDS+=($!)
wait_for "$STAIRD/v1/status"
cat "$WORKDIR/staird.log"

write_block() { # write_block <idx> <round>
    {
        printf 'soak-%04d-%02d-' "$1" "$2"
        head -c 4096 /dev/zero | tr '\0' "\\$(printf '%03o' $((65 + ($1 + $2) % 26)))"
    } | head -c 4096 >"$WORKDIR/in$1"
    curl -fsS -X PUT --data-binary "@$WORKDIR/in$1" \
        "$STAIRD/v1/blocks/$1" >/dev/null
}

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

traffic_round() { # traffic_round <round>: overwrite all blocks, read a stride back
    local round="$1" b
    for b in $(seq 0 $((BLOCKS - 1))); do
        write_block "$b" "$round"
    done
    for b in $(seq 0 4 $((BLOCKS - 1))); do
        curl -fsS "$STAIRD/v1/blocks/$b" -o /dev/null
    done
    curl -fsS -X POST "$STAIRD/v1/flush" >/dev/null
}

echo "== sustained traffic: $ROUNDS rounds over $BLOCKS blocks =="
for round in $(seq 1 "$ROUNDS"); do
    traffic_round "$round"
done
curl -fsS -X POST "$STAIRD/v1/sync" >/dev/null
verify_blocks "healthy read-back"
curl -fsS "$STAIRD/v1/metrics" >"$OUTDIR/metrics-healthy.json"

echo "== killing one device server mid-traffic =="
victim_url=$(curl -fsS "$STAIRD/v1/status" |
    python3 -c 'import json,sys; print(json.load(sys.stdin)["placement"][0]["url"])')
victim_port="${victim_url##*:}"
victim_idx=$((victim_port - BASE_PORT))
echo "victim: $victim_url (dev$victim_idx)"
kill "${PIDS[$victim_idx]}"

# Keep reading straight through the outage window: every block read
# with a column down exercises the degraded-decode path (writes resume
# once the spare is rebuilt — a flush racing the failover is allowed to
# surface an error, which would abort the soak spuriously).
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

echo "== post-rebuild traffic + scrub =="
traffic_round 100
curl -fsS -X POST "$STAIRD/v1/sync" >/dev/null
curl -fsS -X POST "$STAIRD/v1/scrub" | python3 -c '
import json, sys
rep = json.load(sys.stdin)
assert rep["SectorsLost"] == 0 and rep["StripesDamaged"] == 0, rep
print("scrub clean:", rep["StripesChecked"], "stripes checked, 0 lost")
'
verify_blocks "post-rebuild read-back"
curl -fsS "$STAIRD/v1/metrics" >"$OUTDIR/metrics-final.json"

echo "== auditing final metrics =="
python3 - "$OUTDIR/metrics-final.json" <<'EOF'
import json, sys
m = json.load(open(sys.argv[1]))
store = m["store"]
# store.Stats marshals with Go field names (no json tags).
assert store["UnrecoverableStripes"] == 0, store
assert store["ChecksumMismatches"] == 0, store
assert m["cluster"]["rebuilds"] >= 1, m["cluster"]
assert m["cluster"]["dead_columns"] == 0, m["cluster"]
lat = m.get("latency_us") or {}
for cls in ("read", "write", "flush", "scrub"):
    row = lat.get(cls)
    assert row and row["count"] > 0, (cls, lat)
    assert 0 < row["p50_us"] <= row["p99_us"] <= row["p999_us"], (cls, row)
print("audit clean: 0 unrecoverable stripes, 0 checksum false alarms;",
      "latency rows:", ", ".join(f"{c} p99={lat[c]['p99_us']:.0f}us" for c in sorted(lat)))
EOF

echo "== cluster soak passed (artifacts in $OUTDIR) =="
