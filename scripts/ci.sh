#!/usr/bin/env bash
# Tier-1 gate: configure, build and run the full test suite, first
# plain and then once per sanitizer (TPUPOINT_SANITIZE=address,
# =thread and =undefined by default; the TSan pass guards the
# ThreadPool-backed analysis and sweep paths). Usage:
#   scripts/ci.sh [extra cmake args...]
# TPUPOINT_CI_SANITIZERS overrides the sanitizer list, e.g.
#   TPUPOINT_CI_SANITIZERS=address scripts/ci.sh   # ASan only
#   TPUPOINT_CI_SANITIZERS=thread scripts/ci.sh    # TSan only
#   TPUPOINT_CI_SANITIZERS= scripts/ci.sh          # plain only
set -euo pipefail

cd "$(dirname "$0")/.."

jobs=$(nproc 2>/dev/null || echo 4)

# Per-test timeout (seconds): a wedged simulation must fail the
# gate, not hang it. Override with TPUPOINT_CTEST_TIMEOUT.
test_timeout=${TPUPOINT_CTEST_TIMEOUT:-120}

run_suite() {
    local build_dir=$1
    shift
    echo "== configuring ${build_dir} ($*)"
    cmake -B "${build_dir}" -S . "$@"
    echo "== building ${build_dir}"
    cmake --build "${build_dir}" -j "${jobs}"
    echo "== testing ${build_dir}"
    ctest --test-dir "${build_dir}" --output-on-failure \
        -j "${jobs}" --timeout "${test_timeout}"
    echo "== smoke: profile -> export (${build_dir})"
    smoke_suite "${build_dir}"
}

# End-to-end smoke over the real binaries: profile a small run with
# telemetry dumps, then export it to trace-event JSON. --check makes
# tpupoint-export re-read and validate its own output, so an invalid
# trace file fails the gate.
smoke_suite() {
    local build_dir=$1
    local work
    work=$(mktemp -d)
    "${build_dir}/tools/tpupoint-profile" \
        --workload dcgan-mnist --scale 0.02 --steps 60 \
        --out "${work}/smoke.tpp" \
        --trace-out "${work}/smoke.spans.json" \
        --metrics-out "${work}/smoke.metrics.json"
    "${build_dir}/tools/tpupoint-export" "${work}/smoke.tpp" \
        -o "${work}/smoke.trace.json" --check
    local artifact
    for artifact in smoke.trace.json smoke.spans.json \
        smoke.metrics.json; do
        test -s "${work}/${artifact}" || {
            echo "smoke: missing ${artifact}" >&2
            return 1
        }
    done
    # Profile bytes must not move: the default bert-mrpc profile is
    # compared against the committed golden container.
    echo "== smoke: bert-mrpc profile matches its golden bytes"
    "${build_dir}/tools/tpupoint-profile" --workload bert-mrpc \
        --out "${work}/mrpc.tpp" > /dev/null
    cmp "${work}/mrpc.tpp" tests/golden/profile_bert_mrpc.tpp || {
        echo "smoke: bert-mrpc profile bytes moved" >&2
        return 1
    }
    # Salvage path: truncate a multi-chunk profile mid-stream and
    # analyze what survives. Runs in every suite, so the ASan
    # build walks the damaged-chunk recovery and resynchronization
    # code under instrumentation. (More steps than the export
    # smoke: the salvage profile must span several chunks so a
    # 2/3 cut still leaves intact ones.)
    echo "== smoke: salvage analysis of a truncated profile"
    "${build_dir}/tools/tpupoint-profile" \
        --workload dcgan-mnist --scale 0.02 --steps 600 \
        --out "${work}/salvage.tpp"
    local size
    size=$(wc -c < "${work}/salvage.tpp")
    head -c $((size * 2 / 3)) "${work}/salvage.tpp" \
        > "${work}/damaged.tpp"
    "${build_dir}/tools/tpupoint-analyze" "${work}/damaged.tpp" \
        --salvage --out "${work}/damaged"
    test -s "${work}/damaged.summary.json" || {
        echo "smoke: salvage produced no summary" >&2
        return 1
    }
    # Serve path: the daemon tail-follows a spool holding one
    # complete and one truncated stream, answers a phases query
    # while ingest is live, and exits cleanly once drained. Runs
    # in every suite, so the sanitizer builds walk the concurrent
    # session manager under instrumentation.
    echo "== smoke: serve daemon over a live spool"
    mkdir "${work}/spool"
    cp "${work}/smoke.tpp" "${work}/spool/whole.tpp"
    cp "${work}/damaged.tpp" "${work}/spool/torn.tpp"
    "${build_dir}/tools/tpupoint-serve" \
        --spool "${work}/spool" \
        --status-out "${work}/serve.status.json" \
        --poll-ms 20 --idle-ttl-ms 300 --drain &
    local serve_pid=$!
    # Query while the daemon is still ingesting: wait for the
    # first status publish, then read the phases section back.
    # (tpupoint-validate-json reads files, not stdin.)
    local tries=0
    until [ -s "${work}/serve.status.json" ]; do
        tries=$((tries + 1))
        if [ "${tries}" -gt 100 ]; then
            echo "smoke: serve never published a status" >&2
            kill "${serve_pid}" 2>/dev/null || true
            return 1
        fi
        sleep 0.05
    done
    "${build_dir}/tools/tpupoint-serve" \
        --query phases --status "${work}/serve.status.json" \
        > "${work}/serve.phases.json"
    "${build_dir}/tools/tpupoint-validate-json" \
        "${work}/serve.phases.json"
    wait "${serve_pid}" || {
        echo "smoke: serve daemon exited nonzero" >&2
        return 1
    }
    # After the drain both sessions must be final, the torn one
    # salvaged rather than failed.
    "${build_dir}/tools/tpupoint-serve" \
        --query sessions --status "${work}/serve.status.json" \
        > "${work}/serve.sessions.json"
    "${build_dir}/tools/tpupoint-validate-json" \
        "${work}/serve.sessions.json"
    grep -q '"torn"' "${work}/serve.sessions.json" || {
        echo "smoke: serve lost the truncated session" >&2
        return 1
    }
    # Live-phase path: the stream grows underneath the daemon. A
    # phases query answered mid-ingest must carry a provisional
    # streaming snapshot tagged with nonzero steps_behind
    # staleness; once the end marker lands, the same query must
    # settle to the exact batch answer at steps_behind 0.
    echo "== smoke: live phases on a growing stream"
    mkdir "${work}/live.spool"
    head -c $((size / 2)) "${work}/salvage.tpp" \
        > "${work}/live.spool/grow.tpp"
    "${build_dir}/tools/tpupoint-serve" \
        --spool "${work}/live.spool" \
        --status-out "${work}/live.status.json" \
        --poll-ms 20 --idle-ttl-ms 60000 &
    local live_pid=$!
    # Wait for the mid-ingest snapshot: a phases entry for the
    # still-growing session, visibly behind the stream head.
    tries=0
    until "${build_dir}/tools/tpupoint-serve" \
            --query phases --status "${work}/live.status.json" \
            > "${work}/live.phases.mid.json" 2>/dev/null &&
        grep -q '"grow"' "${work}/live.phases.mid.json" &&
        grep -Eq '"steps_behind": *[1-9]' \
            "${work}/live.phases.mid.json"; do
        tries=$((tries + 1))
        if [ "${tries}" -gt 200 ]; then
            echo "smoke: no live phase snapshot mid-ingest" >&2
            kill "${live_pid}" 2>/dev/null || true
            return 1
        fi
        sleep 0.05
    done
    "${build_dir}/tools/tpupoint-validate-json" \
        "${work}/live.phases.mid.json"
    grep -Eq '"exact": *false' "${work}/live.phases.mid.json" || {
        echo "smoke: mid-ingest snapshot claimed exactness" >&2
        kill "${live_pid}" 2>/dev/null || true
        return 1
    }
    # The rest of the stream (end marker included) arrives; the
    # staleness must drain to zero and the answer become exact.
    tail -c +$((size / 2 + 1)) "${work}/salvage.tpp" \
        >> "${work}/live.spool/grow.tpp"
    tries=0
    until "${build_dir}/tools/tpupoint-serve" \
            --query phases --status "${work}/live.status.json" \
            > "${work}/live.phases.final.json" 2>/dev/null &&
        grep -Eq '"exact": *true' \
            "${work}/live.phases.final.json"; do
        tries=$((tries + 1))
        if [ "${tries}" -gt 200 ]; then
            echo "smoke: live phases never settled" >&2
            kill "${live_pid}" 2>/dev/null || true
            return 1
        fi
        sleep 0.05
    done
    "${build_dir}/tools/tpupoint-validate-json" \
        "${work}/live.phases.final.json"
    grep -Eq '"steps_behind": *0' \
        "${work}/live.phases.final.json" || {
        echo "smoke: finalized session still behind" >&2
        kill "${live_pid}" 2>/dev/null || true
        return 1
    }
    kill "${live_pid}"
    wait "${live_pid}" || {
        echo "smoke: live-phase serve exited nonzero" >&2
        return 1
    }
    # Chaos path: kill -9 a journaled daemon mid-ingest, restart it
    # over the same journal, and require the recovered coverage to
    # be byte-identical to an uninterrupted baseline run. Runs in
    # every suite, so the sanitizer builds walk journal replay and
    # restart recovery under instrumentation.
    echo "== smoke: crash recovery matches the uninterrupted run"
    mkdir "${work}/baseline.spool" "${work}/chaos.spool"
    cp "${work}/salvage.tpp" "${work}/baseline.spool/run.tpp"
    "${build_dir}/tools/tpupoint-serve" \
        --spool "${work}/baseline.spool" \
        --status-out "${work}/baseline.status.json" \
        --poll-ms 20 --idle-ttl-ms 300 --drain
    "${build_dir}/tools/tpupoint-serve" \
        --query coverage --status "${work}/baseline.status.json" \
        > "${work}/baseline.coverage.json"
    # Same session name, half the stream: the daemon journals its
    # committed offset on the first poll, then dies mid-session.
    head -c $((size / 2)) "${work}/salvage.tpp" \
        > "${work}/chaos.spool/run.tpp"
    "${build_dir}/tools/tpupoint-serve" \
        --spool "${work}/chaos.spool" \
        --status-out "${work}/chaos.status.json" \
        --journal "${work}/chaos.journal" \
        --poll-ms 20 --idle-ttl-ms 60000 &
    local chaos_pid=$!
    tries=0
    until [ -s "${work}/chaos.status.json" ]; do
        tries=$((tries + 1))
        if [ "${tries}" -gt 200 ]; then
            echo "smoke: chaos serve never published" >&2
            kill -9 "${chaos_pid}" 2>/dev/null || true
            return 1
        fi
        sleep 0.05
    done
    kill -9 "${chaos_pid}"
    wait "${chaos_pid}" 2>/dev/null || true
    # The rest of the stream arrives while the daemon is dead; the
    # restart replays to the journaled offset and resumes from it.
    tail -c +$((size / 2 + 1)) "${work}/salvage.tpp" \
        >> "${work}/chaos.spool/run.tpp"
    "${build_dir}/tools/tpupoint-serve" \
        --spool "${work}/chaos.spool" \
        --status-out "${work}/chaos.status.json" \
        --journal "${work}/chaos.journal" \
        --poll-ms 20 --idle-ttl-ms 300 --drain
    "${build_dir}/tools/tpupoint-serve" \
        --query coverage --status "${work}/chaos.status.json" \
        > "${work}/chaos.coverage.json"
    cmp "${work}/baseline.coverage.json" \
        "${work}/chaos.coverage.json" || {
        echo "smoke: recovered coverage diverged from baseline" >&2
        return 1
    }
    # Overload path: one admission slot for two sessions — the
    # second is shed at the door, re-admitted once the first
    # finishes, and the drain still ends with both finalized.
    echo "== smoke: overload shedding re-admits and finishes"
    mkdir "${work}/shed.spool"
    cp "${work}/smoke.tpp" "${work}/shed.spool/one.tpp"
    cp "${work}/smoke.tpp" "${work}/shed.spool/two.tpp"
    "${build_dir}/tools/tpupoint-serve" \
        --spool "${work}/shed.spool" \
        --status-out "${work}/shed.status.json" \
        --max-sessions 1 --poll-ms 20 --idle-ttl-ms 300 --drain \
        > "${work}/shed.out"
    grep -q "2 sessions (2 finalized" "${work}/shed.out" || {
        echo "smoke: shed run lost a session" >&2
        cat "${work}/shed.out" >&2
        return 1
    }
    # Observability path: scrape the health verdict and the
    # OpenMetrics exposition from a live daemon, then demand a
    # parseable flight dump from SIGUSR2 and a clean SIGTERM
    # shutdown. Runs in every suite, so the sanitizer builds walk
    # the lock-free flight ring and the signal-dump path under
    # instrumentation.
    echo "== smoke: observability (health, metrics, flight dump)"
    mkdir "${work}/obs.spool"
    cp "${work}/smoke.tpp" "${work}/obs.spool/run.tpp"
    TPUPOINT_LOG_FORMAT=jsonl \
    "${build_dir}/tools/tpupoint-serve" \
        --spool "${work}/obs.spool" \
        --status-out "${work}/obs.status.json" \
        --flight-out "${work}/obs.flight.json" \
        --slo-p99-ingest-us 60000000 --slo-max-lag-ms 600000 \
        --poll-ms 20 --idle-ttl-ms 60000 &
    local obs_pid=$!
    tries=0
    until [ -s "${work}/obs.status.json" ]; do
        tries=$((tries + 1))
        if [ "${tries}" -gt 200 ]; then
            echo "smoke: observability serve never published" >&2
            kill "${obs_pid}" 2>/dev/null || true
            return 1
        fi
        sleep 0.05
    done
    "${build_dir}/tools/tpupoint-serve" \
        --query health --status "${work}/obs.status.json" \
        > "${work}/obs.health.json"
    "${build_dir}/tools/tpupoint-validate-json" \
        "${work}/obs.health.json"
    grep -q '"state"' "${work}/obs.health.json" || {
        echo "smoke: health query carried no verdict" >&2
        kill "${obs_pid}" 2>/dev/null || true
        return 1
    }
    "${build_dir}/tools/tpupoint-serve" \
        --query metrics --status "${work}/obs.status.json" \
        > "${work}/obs.metrics.txt"
    grep -q '^# EOF' "${work}/obs.metrics.txt" &&
        grep -q 'serve_sessions_discovered_total' \
            "${work}/obs.metrics.txt" || {
        echo "smoke: metrics scrape missing or torn" >&2
        kill "${obs_pid}" 2>/dev/null || true
        return 1
    }
    # On-demand black box: SIGUSR2 writes the ring through the
    # async-signal-safe path; the document must still parse.
    kill -USR2 "${obs_pid}"
    tries=0
    until [ -s "${work}/obs.flight.json" ]; do
        tries=$((tries + 1))
        if [ "${tries}" -gt 100 ]; then
            echo "smoke: SIGUSR2 produced no flight dump" >&2
            kill "${obs_pid}" 2>/dev/null || true
            return 1
        fi
        sleep 0.05
    done
    "${build_dir}/tools/tpupoint-validate-json" \
        "${work}/obs.flight.json"
    grep -q '"reason":"signal"' "${work}/obs.flight.json" || {
        echo "smoke: flight dump lost its reason" >&2
        kill "${obs_pid}" 2>/dev/null || true
        return 1
    }
    # Signaled shutdown rewrites the dump, attributed, and exits 0.
    kill "${obs_pid}"
    wait "${obs_pid}" || {
        echo "smoke: observability serve exited nonzero" >&2
        return 1
    }
    "${build_dir}/tools/tpupoint-validate-json" \
        "${work}/obs.flight.json"
    grep -q 'shutdown' "${work}/obs.flight.json" || {
        echo "smoke: shutdown left no flight dump" >&2
        return 1
    }
    rm -rf "${work}"
}

# Analyzer throughput bench (plain build only: sanitizers would
# only measure their own overhead). The --json report must parse
# through the toolchain's own JSON validator.
bench_smoke() {
    local build_dir=$1
    local work
    work=$(mktemp -d)
    echo "== bench: analyzer throughput (${build_dir})"
    "${build_dir}/bench/bench_analyzer_throughput" \
        --json "${work}/throughput.json"
    "${build_dir}/tools/tpupoint-validate-json" \
        "${work}/throughput.json"
    echo "== bench: streaming detection vs batch finalize"
    "${build_dir}/bench/bench_streaming_detect" \
        --json "${work}/streaming.json"
    "${build_dir}/tools/tpupoint-validate-json" \
        "${work}/streaming.json"
    for figure in per_step_cost_ratio_10x all_ols_exact; do
        grep -q "\"${figure}\"" "${work}/streaming.json" || {
            echo "bench: bench_streaming_detect lost the" \
                "${figure} figure" >&2
            return 1
        }
    done
    # Figure 5 must not move: its table holds no timings, so the
    # whole stdout is compared against the committed golden.
    echo "== bench: Figure 5 DBSCAN noise table matches its golden"
    "${build_dir}/bench/bench_fig05_dbscan_noise" \
        > "${work}/fig05.txt"
    cmp "${work}/fig05.txt" tests/golden/fig05_dbscan_noise.txt || {
        echo "bench: bench_fig05_dbscan_noise table moved" >&2
        return 1
    }
    echo "== bench: serve ingest, restart recovery, shedding"
    "${build_dir}/bench/bench_serve" --json "${work}/serve.json"
    "${build_dir}/tools/tpupoint-validate-json" \
        "${work}/serve.json"
    for figure in recovery_ms shed_rate log_event_flight_on_ns; do
        grep -q "\"${figure}\"" "${work}/serve.json" || {
            echo "bench: bench_serve lost the ${figure} figure" >&2
            return 1
        }
    done
    rm -rf "${work}"
}

sanitizers=${TPUPOINT_CI_SANITIZERS-"address thread undefined"}

# Every build is warning-free, so any new warning fails the gate.
run_suite build -DTPUPOINT_WERROR=ON "$@"
bench_smoke build
for sanitizer in ${sanitizers}; do
    run_suite "build-${sanitizer}" \
        -DTPUPOINT_SANITIZE="${sanitizer}" -DTPUPOINT_WERROR=ON "$@"
done

echo "== ci passed"
