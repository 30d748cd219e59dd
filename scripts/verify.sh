#!/usr/bin/env bash
# Tier-1 verification: build, tests, strict lints on the metered crates,
# and a schema-drift check of the repro metrics surface.
set -euo pipefail
cd "$(dirname "$0")/.."

cargo build --release -p taxitrace-bench
cargo test -q --workspace

# The whole workspace must be clippy-clean, tests, benches and examples
# included.
cargo clippy -q --workspace --all-targets -- -D warnings

# Rustdoc must build warning-free: a broken intra-doc link, or a public
# doc linking to a private item, fails the gate.
RUSTDOCFLAGS="-D warnings" cargo doc -q --workspace --no-deps --offline

# Build what the test run does not: the criterion benches, and the
# repository benchmark (its own workspace, built against these crates by
# path with its lock file as committed), plus the benchmark's own tests.
cargo bench --no-run -q -p taxitrace-bench
cargo build --release --offline --locked --manifest-path perfbench/Cargo.toml
cargo test -q --release --offline --locked --manifest-path perfbench/Cargo.toml

# Static-analysis gate: determinism, panic-freedom, unsafe audit,
# metrics-name drift, atomics audit, lock discipline, workspace hygiene
# (see README §Static analysis gates).
lint_out=$(mktemp)
cargo run -q -p taxitrace-lint -- --deny --format json > "$lint_out" || {
    cat "$lint_out" >&2
    rm -f "$lint_out"
    exit 1
}
python3 - "$lint_out" <<'EOF'
import json, sys

doc = json.load(open(sys.argv[1]))
assert doc.get("version") == 1, f"lint JSON version drifted: {doc.get('version')!r}"
assert doc.get("findings") == [], f"live findings under --deny: {doc['findings']}"
print("lint gate OK: zero findings in stable JSON")
EOF
rm -f "$lint_out"
# The concurrency rules must be wired into the gate's committed contract.
for rule in atomics-audit lock-discipline; do
    grep -q "\"rule\": \"$rule\"" crates/lint/tests/golden.json || {
        echo "verify: $rule missing from the committed lint golden file" >&2
        exit 1
    }
done
test -s crates/lint/sync.registry || {
    echo "verify: crates/lint/sync.registry is missing or empty" >&2
    exit 1
}

# Concurrency model checker: the shipped orderings must pass exhaustive
# bounded exploration, every known-bad weakening must be caught, and the
# run must be byte-for-byte deterministic at a fixed seed.
sm1=$(mktemp)
sm2=$(mktemp)
cargo run -q -p taxitrace-sync-model -- --seed 7 > "$sm1" || {
    echo "verify: sync-model checker reported a mismatch" >&2
    cat "$sm1" >&2
    exit 1
}
cargo run -q -p taxitrace-sync-model -- --seed 7 > "$sm2"
cmp -s "$sm1" "$sm2" || {
    echo "verify: sync-model output is not deterministic across runs" >&2
    diff "$sm1" "$sm2" >&2 || true
    exit 1
}
for want in \
    "PASS epoch_publish(Release, Acquire)" \
    "PASS epoch_cell(Relaxed, Relaxed)" \
    "PASS counter_merge" \
    "CAUGHT epoch_publish(Relaxed, Acquire)" \
    "CAUGHT epoch_publish(Release, Relaxed)" \
    "CAUGHT counter_merge_lost_update" \
    "6/6 checks as expected"; do
    grep -qF "$want" "$sm1" || {
        echo "verify: sync-model output missing: $want" >&2
        cat "$sm1" >&2
        exit 1
    }
done
echo "sync-model OK: $(grep -c '^PASS' "$sm1") protocols pass, $(grep -c '^CAUGHT' "$sm1") weakenings caught"
rm -f "$sm1" "$sm2"

# Optional miri smoke over the real epoch/shutdown atomics — only when
# the toolchain ships miri (CI images may; the default container skips).
if cargo miri --version > /dev/null 2>&1; then
    echo "verify: miri available — running the serve smoke"
    cargo miri test -q -p taxitrace-serve
else
    echo "verify: miri unavailable — skipping the serve miri smoke"
fi

# Metrics surface: a small run must emit schema-versioned JSON covering
# every pipeline stage, the executor and gap-fill routing — and leave
# stdout untouched.
out=$(mktemp)
metrics=$(mktemp)
./target/release/repro --scale 0.05 --metrics json --metrics-out "$metrics" table3 \
    > "$out" 2>/dev/null
grep -q "Reproduced funnel" "$out" || {
    echo "verify: repro stdout lost its experiment output" >&2
    exit 1
}
python3 - "$metrics" <<'EOF'
import json, sys

m = json.load(open(sys.argv[1]))
assert m.get("schema") == 6, f"metrics JSON schema drifted: {m.get('schema')!r}"
for key in ("counters", "gauges", "histograms", "spans"):
    assert key in m, f"missing top-level key {key!r}"
counters = m["counters"]
for prefix in ("sim.", "clean.", "od.", "match.", "exec."):
    assert any(k.startswith(prefix) for k in counters), f"no {prefix}* counters"
for k in ("match.astar_expanded", "exec.shard_units"):
    assert k in counters, f"missing counter {k!r}"
assert counters["exec.shard_units"] > 0, "simulation reported zero shard units"
paths = {s["path"] for s in m["spans"]}
for p in ("study/simulate", "study/clean", "study/od", "study/match_fuse"):
    assert p in paths, f"missing span {p!r}"
print(f"metrics schema OK: {len(counters)} counters, {len(paths)} span paths")
EOF
rm -f "$out" "$metrics"

# Chaos smoke: a plan with trace faults plus a mid-run kill must (a) be
# interrupted, (b) complete via checkpoint resume inside repro, (c) leave
# a non-empty quarantine ledger visible in the budget metrics, and (d)
# still print the experiment table.
out=$(mktemp)
errs=$(mktemp)
metrics=$(mktemp)
plan=$(mktemp)
ckdir=$(mktemp -d)
cat > "$plan" <<'PLAN'
seed 9
p_teleport 0.04
p_clock_freeze 0.04
p_stuck 0.03
p_dropout 0.03
task_panic_one_in 97
error_budget 0.5
kill_after_stage simulate
PLAN
./target/release/repro --scale 0.05 --chaos "$plan" --checkpoint-dir "$ckdir" \
    --metrics json --metrics-out "$metrics" table3 > "$out" 2> "$errs" || {
    echo "verify: chaos repro run failed" >&2
    cat "$errs" >&2
    exit 1
}
grep -q "Reproduced funnel" "$out" || {
    echo "verify: chaos repro lost its experiment output" >&2
    exit 1
}
grep -q "resuming from" "$errs" || {
    echo "verify: chaos kill did not trigger a checkpoint resume" >&2
    cat "$errs" >&2
    exit 1
}
grep -q "quarantined" "$errs" || {
    echo "verify: chaos run reported no quarantined records" >&2
    cat "$errs" >&2
    exit 1
}
python3 - "$metrics" <<'EOF'
import json, sys

m = json.load(open(sys.argv[1]))
counters = m["counters"]
assert counters.get("quarantine.total", 0) > 0, "no quarantine.total under chaos"
assert counters.get("chaos.sessions_faulted", 0) > 0, "no chaos.sessions_faulted"
assert any(k.startswith("quarantine.reason.") for k in counters), "no per-reason counters"
fractions = [k for k in m["gauges"] if k.startswith("quarantine.fraction.")]
assert fractions, "no quarantine.fraction.* budget gauges"
print(f"chaos smoke OK: {counters['quarantine.total']} quarantined, "
      f"{counters['chaos.sessions_faulted']} sessions faulted")
EOF
rm -rf "$out" "$errs" "$metrics" "$plan" "$ckdir"

# Fsck smoke: corrupt a generated store with the seeded disk-fault
# injector, then prove (a) fsck reports the damage and exits non-zero,
# (b) a --store replay completes anyway with the loss visible in the
# store.* corruption counters, (c) --repair rewrites a clean container
# that rescans with zero errors.
storedir=$(mktemp -d)
metrics=$(mktemp)
plan=$(mktemp)
store="$storedir/trips.tts"
cat > "$plan" <<'PLAN'
seed 21
disk_bit_flips 2
disk_truncate_bytes 37
PLAN
./target/release/repro --scale 0.05 store-save "$store" > /dev/null 2>&1
./target/release/repro --chaos "$plan" store-corrupt "$store" > /dev/null
if ./target/release/repro fsck "$storedir" > /dev/null 2>&1; then
    echo "verify: fsck missed injected store corruption" >&2
    exit 1
fi
./target/release/repro --scale 0.05 --store "$store" \
    --metrics json --metrics-out "$metrics" table3 > /dev/null 2>&1 || {
    echo "verify: --store replay of a corrupted store failed" >&2
    exit 1
}
python3 - "$metrics" <<'EOF'
import json, sys

m = json.load(open(sys.argv[1]))
counters = m["counters"]
assert counters.get("store.corrupt_records", 0) > 0, "no store.corrupt_records"
assert counters.get("store.records_total", 0) > counters.get("store.records_valid", 0), \
    "corruption not reflected in store record counters"
reasons = [k for k in counters if k.startswith("quarantine.reason.")
           and k.split(".")[-1] in ("corrupt_record", "torn_tail", "header_mismatch")]
assert reasons, "no typed storage quarantine reasons"
assert counters.get("quarantine.stage.store", 0) > 0, "no quarantine.stage.store"
print(f"fsck smoke OK: {counters['store.corrupt_records']} corrupt record(s), "
      f"reasons {sorted(r.split('.')[-1] for r in reasons)}")
EOF
./target/release/repro fsck --repair "$store" > /dev/null || {
    echo "verify: fsck --repair failed" >&2
    exit 1
}
./target/release/repro fsck "$store" > /dev/null || {
    echo "verify: repaired store still scans dirty" >&2
    exit 1
}
# The repaired container is a clean v3 file, so a replay must take the
# offset-index fast path rather than the salvage scan.
./target/release/repro --scale 0.05 --store "$store" \
    --metrics json --metrics-out "$metrics" table3 > /dev/null 2>&1 || {
    echo "verify: --store replay of the repaired store failed" >&2
    exit 1
}
python3 - "$metrics" <<'EOF'
import json, sys

m = json.load(open(sys.argv[1]))
counters = m["counters"]
assert counters.get("store.indexed_reads", 0) > 0, \
    "repaired v3 store was not served by the offset index"
print("indexed-read smoke OK: repaired store loaded via the v3 index")
EOF
rm -rf "$storedir" "$metrics" "$plan"

# Thread-invariance smoke: the study fingerprint must not depend on the
# worker count. A forced 4-worker pool (oversubscribed on small hosts —
# the override is literal) must print the fingerprint of a 1-worker run,
# at a small scale and at the full study year, where it must also equal
# the pinned value of the committed baseline. Each run's `exec.workers`
# gauge must show the requested pool, so an ignored --threads cannot pass
# as invariance, and every counter outside `exec.*` (work, not
# scheduling) must equal the 1-worker run's.
fpdir=$(mktemp -d)
study_fp() {
    ./target/release/repro --scale "$1" --threads "$2" --metrics json \
        --metrics-out "$fpdir/$1-$2.json" fingerprint 2>/dev/null \
        | sed -n 's/^study fingerprint \(0x[0-9a-f]*\)$/\1/p'
    python3 - "$fpdir/$1-$2.json" "$2" >&2 <<'EOF'
import json, sys

workers = json.load(open(sys.argv[1]))["gauges"].get("exec.workers")
assert workers == float(sys.argv[2]), \
    f"--threads {sys.argv[2]} not honoured: exec.workers = {workers!r}"
EOF
}
fp_small=$(study_fp 0.05 1)
fp_small4=$(study_fp 0.05 4)
fp_full=$(study_fp 1.0 1)
fp_full4=$(study_fp 1.0 4)
same_fp() {
    [ -n "$2" ] && [ "$2" = "$3" ] || {
        echo "verify: scale $1 study fingerprint differs across workers: '$2' vs '$3'" >&2
        exit 1
    }
    python3 - "$fpdir/$1-1.json" "$fpdir/$1-4.json" <<'EOF' || {
import json, sys

def work(path):
    counters = json.load(open(path))["counters"]
    return {k: v for k, v in counters.items() if not k.startswith("exec.")}

a, b = work(sys.argv[1]), work(sys.argv[2])
diff = sorted(k for k in a.keys() | b.keys() if a.get(k) != b.get(k))
assert not diff, "counters differ across workers: " + ", ".join(
    f"{k} {a.get(k)} vs {b.get(k)}" for k in diff)
EOF
        echo "verify: scale $1 work counters differ between 1 and 4 workers" >&2
        exit 1
    }
    echo "thread-invariance OK: scale $1 fingerprint $2 and work counters at 1 and 4 workers"
}
same_fp 0.05 "$fp_small" "$fp_small4"
same_fp 1.0 "$fp_full" "$fp_full4"
rm -rf "$fpdir"
[ "$fp_full" = "0xf2d392b82926b399" ] || {
    echo "verify: full-scale study fingerprint $fp_full != pinned 0xf2d392b82926b399" >&2
    exit 1
}

# Quarantine smoke at the full study year, the only scale-1 gate on the
# post-cleaning anomaly checks: seed 2021 quarantines one session at the
# clean stage and seed 2027 one transition at the O-D stage, both for
# clock skew. Their fingerprints and `quarantine.*` counters are pinned.
qdir=$(mktemp -d)
quarantine_pin() {
    local fp
    fp=$(./target/release/repro --scale 1.0 --seed "$1" --metrics json \
        --metrics-out "$qdir/$1.json" fingerprint 2>/dev/null \
        | sed -n 's/^study fingerprint \(0x[0-9a-f]*\)$/\1/p')
    [ "$fp" = "$2" ] || {
        echo "verify: seed $1 scale 1.0 fingerprint '$fp' != pinned $2" >&2
        exit 1
    }
    python3 - "$qdir/$1.json" "$3" <<'EOF'
import json, sys

counters = json.load(open(sys.argv[1]))["counters"]
got = {k: v for k, v in counters.items() if k.startswith("quarantine.")}
want = {"quarantine.total": 1, "quarantine.reason.clock_skew": 1,
        f"quarantine.stage.{sys.argv[2]}": 1}
assert got == want, f"quarantine counters {got} != pinned {want}"
EOF
    echo "quarantine smoke OK: seed $1 fingerprint $fp, one clock_skew record at stage $3"
}
quarantine_pin 2021 0xb1aeebbb1be2c056 clean
quarantine_pin 2027 0x3dfcb7222ee4aa80 od
rm -rf "$qdir"

# Front-door smoke: a --store replay of an unmodified saved store, a
# --checkpoint-dir run, and a second run over the same directory (which
# loads the simulate checkpoint and recomputes every later stage from its
# sessions) must all print the batch fingerprint.
fddir=$(mktemp -d)
front_door_fp() {
    ./target/release/repro --scale 0.05 "$@" fingerprint 2>/dev/null \
        | sed -n 's/^study fingerprint \(0x[0-9a-f]*\)$/\1/p'
}
same_as_batch() {
    [ "$2" = "$fp_small" ] || {
        echo "verify: $1 fingerprint '$2' != batch $fp_small" >&2
        exit 1
    }
}
./target/release/repro --scale 0.05 store-save "$fddir/trips.tts" > /dev/null 2>&1
# The saved image itself is pinned byte for byte: the study fingerprint
# does not cover the stored raw points, so a simulator or store-writer
# change that alters one stored bit fails here.
store_sha=$(sha256sum "$fddir/trips.tts" | cut -d' ' -f1)
[ "$store_sha" = "c8ec2b923b3734e133abc74f1cb2aad5f6c75cff760d6867cc2014053f1e9622" ] || {
    echo "verify: scale 0.05 store image sha256 $store_sha != pinned c8ec2b92...9622" >&2
    exit 1
}
same_as_batch "--store replay" "$(front_door_fp --store "$fddir/trips.tts")"
# The full study year's image (about 62 MB) goes through the same decoder:
# its --store replay must print the pinned full-scale fingerprint.
./target/release/repro --scale 1.0 store-save "$fddir/full.tts" > /dev/null 2>&1
full_store_fp=$(./target/release/repro --scale 1.0 --store "$fddir/full.tts" fingerprint \
    2>/dev/null | sed -n 's/^study fingerprint \(0x[0-9a-f]*\)$/\1/p')
[ "$full_store_fp" = "0xf2d392b82926b399" ] || {
    echo "verify: scale 1.0 --store replay fingerprint '$full_store_fp' != pinned 0xf2d392b82926b399" >&2
    exit 1
}
rm -f "$fddir/full.tts"
same_as_batch "first --checkpoint-dir run" "$(front_door_fp --checkpoint-dir "$fddir/ck")"
test -s "$fddir/ck/simulate.ttck" || {
    echo "verify: --checkpoint-dir run wrote no simulate checkpoint" >&2
    exit 1
}
for stage in clean od; do
    test ! -e "$fddir/ck/$stage.ttck" || {
        echo "verify: --checkpoint-dir run wrote a derived $stage checkpoint" >&2
        exit 1
    }
done
same_as_batch "second --checkpoint-dir run" "$(front_door_fp --checkpoint-dir "$fddir/ck")"
rm -rf "$fddir"
echo "front-door smoke OK: store image pinned; store replays (scale 0.05 and 1.0) and checkpoint resume print their batch fingerprints"

# Serve smoke: start the HTTP query service on an ephemeral port, issue
# one query of each kind, and check (a) every route answers canonical
# JSON, (b) /metrics exposes the schema-versioned obs document with the
# serve.* request counters reflecting the traffic, (c) the server drains
# gracefully through --shutdown-file instead of needing kill.
servelog=$(mktemp)
shutfile=$(mktemp -u)
./target/release/repro --scale 0.05 --threads 2 \
    --shutdown-file "$shutfile" serve > "$servelog" 2>/dev/null &
serve_pid=$!
trap 'kill "$serve_pid" 2>/dev/null || true' EXIT
addr=""
for _ in $(seq 1 120); do
    addr=$(sed -n 's/^serving on \([0-9.:]*\).*/\1/p' "$servelog")
    [ -n "$addr" ] && break
    sleep 0.5
done
[ -n "$addr" ] || {
    echo "verify: serve never reported its address" >&2
    cat "$servelog" >&2
    exit 1
}
python3 - "$addr" <<'EOF'
import json, sys, urllib.error, urllib.request

addr = sys.argv[1]
def get(path):
    with urllib.request.urlopen(f"http://{addr}{path}", timeout=10) as r:
        return json.load(r)

for path, kind in (("/od_flow", "od_flow"), ("/cell_speed?ix=0&iy=0", "cell_speed"),
                   ("/trip?id=1", "trip_lookup"), ("/grid_stats", "grid_stats")):
    doc = get(path)
    assert doc.get("kind") == kind, f"{path} answered {doc.get('kind')!r}"

od = get("/od_flow")
assert od["rows"], "od_flow returned no rows"
grid = get("/grid_stats")
assert grid["cells"], "grid_stats returned no cells"

# Per-pair grids: a pair from /od_flow's rows has cells, all of them
# among the all-pairs cells, and the same feature totals; an unknown
# pair answers no cells with those totals.
pair = od["rows"][0]["pair"]
one = get(f"/grid_stats?pair={pair}")
assert one.get("kind") == "grid_stats", f"pair {pair} answered {one.get('kind')!r}"
assert one["cells"], f"grid_stats?pair={pair} returned no cells"
all_cells = {(c["ix"], c["iy"]) for c in grid["cells"]}
assert {(c["ix"], c["iy"]) for c in one["cells"]} <= all_cells, f"pair {pair} has cells outside the grid"
assert one["feature_totals"] == grid["feature_totals"], "per-pair feature totals differ"
nope = get("/grid_stats?pair=NOPE")
assert nope["cells"] == [] and nope["feature_totals"] == grid["feature_totals"], \
    f"unknown pair answered {nope!r}"

# An inverted window must be a typed 400, not an empty result.
try:
    get("/od_flow?from=100&to=0")
    raise AssertionError("inverted window was not rejected")
except urllib.error.HTTPError as e:
    assert e.code == 400, f"inverted window gave {e.code}"
    assert "empty time range" in json.load(e)["error"]

m = get("/metrics")
assert m.get("schema") == 6, f"serve metrics schema drifted: {m.get('schema')!r}"
counters = m["counters"]
assert counters.get("serve.requests_total", 0) >= 4, \
    f"serve.requests_total too low: {counters.get('serve.requests_total')}"
for kind in ("od_flow", "cell_speed", "trip_lookup", "grid_stats"):
    assert counters.get(f"serve.requests.{kind}", 0) >= 1, f"no serve.requests.{kind}"
assert m["gauges"].get("serve.workers") == 2.0, "serve.workers gauge wrong"
print(f"serve smoke OK: {counters['serve.requests_total']} requests over "
      f"{addr}, all four query kinds answered")
EOF
touch "$shutfile"
for _ in $(seq 1 120); do
    kill -0 "$serve_pid" 2>/dev/null || break
    sleep 0.5
done
wait "$serve_pid" 2>/dev/null || true
trap - EXIT
grep -q "server drained and stopped" "$servelog" || {
    echo "verify: serve did not drain via --shutdown-file" >&2
    cat "$servelog" >&2
    exit 1
}
echo "serve shutdown OK: drained gracefully via --shutdown-file"
rm -f "$servelog" "$shutfile"

# Stream smoke: the streaming ingest must converge to the batch study
# fingerprint (`repro fingerprint`), a seeded mid-stream kill must resume from the stream
# cursor to the *identical* fingerprint, and the stream.* metrics must
# appear in the schema-versioned obs document.
sref=$(mktemp)
skill=$(mktemp)
serrs=$(mktemp)
smetrics=$(mktemp)
splan=$(mktemp)
sckdir=$(mktemp -d)
./target/release/repro --scale 0.05 stream > "$sref" 2>/dev/null
ref_fp=$(sed -n 's/^study fingerprint \(0x[0-9a-f]*\)$/\1/p' "$sref")
[ -n "$ref_fp" ] || {
    echo "verify: stream run printed no study fingerprint" >&2
    cat "$sref" >&2
    exit 1
}
[ "$fp_small" = "$ref_fp" ] || {
    echo "verify: stream fingerprint $ref_fp != batch $fp_small" >&2
    exit 1
}
cat > "$splan" <<'PLAN'
seed 9
stream_kill_after_records 5000
PLAN
./target/release/repro --scale 0.05 --chaos "$splan" --checkpoint-dir "$sckdir" \
    --metrics json --metrics-out "$smetrics" stream > "$skill" 2> "$serrs" || {
    echo "verify: killed stream run did not complete via resume" >&2
    cat "$serrs" >&2
    exit 1
}
grep -q "resuming from" "$serrs" || {
    echo "verify: stream kill did not trigger a cursor resume" >&2
    cat "$serrs" >&2
    exit 1
}
kill_fp=$(sed -n 's/^study fingerprint \(0x[0-9a-f]*\)$/\1/p' "$skill")
[ "$ref_fp" = "$kill_fp" ] || {
    echo "verify: killed-and-resumed stream fingerprint $kill_fp != uninterrupted $ref_fp" >&2
    exit 1
}
python3 - "$smetrics" <<'EOF'
import json, sys

m = json.load(open(sys.argv[1]))
assert m.get("schema") == 6, f"stream metrics schema drifted: {m.get('schema')!r}"
counters = m["counters"]
for k in ("stream.records_total", "stream.trips_closed",
          "stream.checkpoints", "stream.resumes"):
    assert counters.get(k, 0) > 0, f"missing or zero counter {k!r}"
for g in ("stream.queue_depth", "stream.watermark_lag_s"):
    assert g in m["gauges"], f"missing gauge {g!r}"
paths = {s["path"] for s in m["spans"]}
assert "study/stream" in paths, "missing study/stream span"
print(f"stream smoke OK: {counters['stream.records_total']} records, "
      f"{counters['stream.resumes']} resume(s), fingerprint converged")
EOF
rm -rf "$sref" "$skill" "$serrs" "$smetrics" "$splan" "$sckdir"

# Adversarial-ingest smoke: the untrusted-input layer must (a) round-trip
# an export byte-identically into the batch study fingerprint, (b) survive
# a seeded mutation of that export without panicking, quarantining the
# identical ledger across two runs and across --threads 1/4, and (c) keep
# the documented exit-code split: 0 success-with-quarantine, 2 I/O or
# usage error, 3 ingest error budget exceeded.
ext=$(mktemp -d)
iout1=$(mktemp)
iout2=$(mktemp)
imet1=$(mktemp)
imet2=$(mktemp)
./target/release/repro export "$ext" --scale 0.05 2>/dev/null
./target/release/repro ingest "$ext/traces.csv" --map "$ext/map.osmx" --scale 0.05 \
    > "$iout1" 2>/dev/null
rt_fp=$(sed -n 's/^study fingerprint \(0x[0-9a-f]*\)$/\1/p' "$iout1")
[ -n "$rt_fp" ] && [ "$fp_small" = "$rt_fp" ] || {
    echo "verify: export -> ingest round trip fingerprint $rt_fp != batch $fp_small" >&2
    exit 1
}
grep -q "^ingest records [0-9]* quarantined 0$" "$iout1" || {
    echo "verify: clean round trip quarantined records" >&2
    cat "$iout1" >&2
    exit 1
}

./target/release/repro mutate "$ext/traces.csv" "$ext/mutant.csv" --seed 7 > /dev/null
./target/release/repro ingest "$ext/mutant.csv" --scale 0.05 --threads 1 \
    --metrics json --metrics-out "$imet1" > "$iout1" 2>/dev/null
./target/release/repro ingest "$ext/mutant.csv" --scale 0.05 --threads 4 \
    --metrics json --metrics-out "$imet2" > "$iout2" 2>/dev/null
cmp -s "$iout1" "$iout2" || {
    echo "verify: mutant ingest output differs across --threads 1/4" >&2
    diff "$iout1" "$iout2" >&2 || true
    exit 1
}
python3 - "$imet1" "$imet2" <<'EOF'
import json, sys

a = json.load(open(sys.argv[1]))["counters"]
b = json.load(open(sys.argv[2]))["counters"]
for k in ("ingest.records_total", "ingest.records_valid",
          "ingest.quarantined_total", "ingest.sessions"):
    assert k in a, f"missing counter {k!r}"
    assert a[k] == b[k], f"{k} differs across worker counts: {a[k]} != {b[k]}"
assert a["ingest.quarantined_total"] > 0, "seed-7 mutant quarantined nothing"
ing = {k: v for k, v in a.items() if k.startswith("ingest.damaged.")}
assert ing, "no per-reason ingest.damaged.* counters"
print(f"ingest smoke OK: {a['ingest.records_total']} records, "
      f"{a['ingest.quarantined_total']} quarantined deterministically, "
      f"round trip fingerprint converged")
EOF

# Exit-code split: unreadable input is 2, a blown ingest budget is 3
# (success-with-quarantine was exit 0 above).
rc=0
./target/release/repro ingest "$ext/no-such-file.csv" --scale 0.05 >/dev/null 2>&1 || rc=$?
[ "$rc" -eq 2 ] || {
    echo "verify: unreadable ingest input exited $rc, want 2" >&2
    exit 1
}
printf 'taxi_id,trip_id,point_id,t,lat,lon,x_m,y_m,speed_kmh,heading_deg,fuel_ml,trip_start_t,trip_end_t,trip_time_s,trip_dist_m,trip_fuel_ml\nnot,a,valid,row\n1,5,0,1650000000,65.05,25.50,1.0,1.0,20.0,10.0,3.0,1650000000,1650000050,50,900.0,40.0\n' > "$ext/over_budget.csv"
rc=0
./target/release/repro ingest "$ext/over_budget.csv" --scale 0.05 >/dev/null 2>&1 || rc=$?
[ "$rc" -eq 3 ] || {
    echo "verify: over-budget ingest exited $rc, want 3" >&2
    exit 1
}
rm -rf "$ext" "$iout1" "$iout2" "$imet1" "$imet2"

echo "verify: all checks passed"
