#!/usr/bin/env bash
# Repo static-analysis + sanitizer CI gate.
#
# Stages, each fail-fast:
#   1. `repro lint` over the whole tree: the single lint pass (every
#      rule, per-file and whole-program; exit 1 on any violation,
#      including unjustified suppressions) emitting SARIF for CI
#      annotation, with a 10 s wall-clock budget so static analysis can
#      never become the slow stage;
#   2. the linter/sanitizer self-tests plus the protocol-heavy slice of
#      the suite re-run with REPRO_SANITIZE=1, so every transmit, range
#      build, recovery plan, decode, and state transition in those runs
#      is checked against the paper's invariants;
#   3. the disabled-overhead gate: telemetry, spans, the sanitizer (with
#      its state-leak guard) and the fault hook must each keep their
#      off-mode cost bound under 5 % of the streaming hot path;
#   4. the HTML report artifact: `repro report` over a short seeded
#      spans-enabled run (20 s budget) into a gitignored file, checked
#      for the sections a healthy run must produce — so the whole
#      spans -> decomposition -> report pipeline is exercised end to end
#      on every CI run;
#   5. the fleet smoke: a small sanitized sharded fleet run through the
#      `repro fleet` CLI (30 s budget) — JSON + HTML artifacts written,
#      then `--check-digest` re-runs the same config at a *different*
#      shard count and demands the stored digest reproduces byte for
#      byte;
#   6. the scenario zoo + chaos campaign (45 s budget): every named
#      scenario runs sanitized at smoke duration with `--rerun`, so each
#      scenario must pass its invariant oracles twice with byte-identical
#      digests, then a small derandomized hypothesis campaign asserts the
#      oracles over generated random fault plans against the full
#      sanitized tunnel (a failure would shrink to a minimal replayable
#      plan in the gitignored chaos-shrunk.json);
#   7. the perf ledger (90 s budget): `perfledger`'s own tests (contract,
#      layer-map totality, compare, sensitivity — tier-1 does not collect
#      them) and `python -m perfledger run --smoke`, which runs all four
#      benchmark workloads at 1.5 sim-s and fails on a broken digest,
#      packet total or mechanism guard — so a change that breaks the
#      benchmark the pipeline runs is caught here, not there.
#
# Usage: tools/ci_checks.sh  (no arguments; artifacts land in the repo
# root under gitignored names)

set -euo pipefail
if [ "$#" -ne 0 ]; then
    echo "usage: tools/ci_checks.sh (takes no arguments)" >&2
    exit 2
fi
cd "$(dirname "$0")/.."

export PYTHONPATH="src${PYTHONPATH:+:$PYTHONPATH}"

echo "== stage 1: repro lint (SARIF, 10 s budget) ========================="
SARIF_OUT=lint.sarif
t0=$(date +%s%N)
if ! python -m tools.lint --format sarif > "$SARIF_OUT"; then
    echo "lint found violations:" >&2
    python -m tools.lint >&2 || true
    exit 1
fi
t1=$(date +%s%N)
elapsed_ms=$(( (t1 - t0) / 1000000 ))
echo "lint clean in ${elapsed_ms} ms -> ${SARIF_OUT}"
if [ "$elapsed_ms" -ge 10000 ]; then
    echo "lint blew its 10 s wall-clock budget (${elapsed_ms} ms)" >&2
    exit 1
fi

echo "== stage 2: self-tests + integration slice with REPRO_SANITIZE=1 ==="
python -m pytest tests/test_lint.py tests/test_deep_lint.py \
    tests/test_shard_lint.py tests/test_pragmas.py \
    tests/test_sanitizer.py tests/test_stateguard.py -q
REPRO_SANITIZE=1 python -m pytest -q \
    tests/test_integration.py \
    tests/test_xnc_endpoint.py \
    tests/test_transport_base.py \
    tests/test_ranges.py \
    tests/test_recovery.py \
    tests/test_rlnc.py \
    tests/test_runner.py \
    tests/test_schedulers.py

echo "== stage 3: disabled-overhead gate =================================="
python tools/check_overhead.py

echo "== stage 4: HTML report artifact (seeded, 20 s budget) =============="
REPORT_OUT=report-ci.html
t0=$(date +%s%N)
python -m repro report cellfusion --duration 3 --seed 1 --out "$REPORT_OUT"
t1=$(date +%s%N)
elapsed_ms=$(( (t1 - t0) / 1000000 ))
echo "report in ${elapsed_ms} ms -> ${REPORT_OUT}"
if [ "$elapsed_ms" -ge 20000 ]; then
    echo "report stage blew its 20 s wall-clock budget (${elapsed_ms} ms)" >&2
    exit 1
fi
for section in "Delay CDFs" "Per-path timelines" "Frame delay decomposition" \
               "Worst frames (span waterfall)"; do
    if ! grep -q "$section" "$REPORT_OUT"; then
        echo "report artifact is missing its '$section' section" >&2
        exit 1
    fi
done

echo "== stage 5: fleet smoke + shard-invariant digest (30 s budget) ======"
FLEET_OUT=fleet-ci.json
FLEET_HTML=fleet-ci.html
t0=$(date +%s%N)
python -m repro fleet --vehicles 6 --shards 2 --seed 1 --duration 1.0 \
    --sanitize --out "$FLEET_OUT" --html "$FLEET_HTML"
# rerun the saved config inline (1 shard): the digest must reproduce
python -m repro fleet --check-digest "$FLEET_OUT" --shards 1
t1=$(date +%s%N)
elapsed_ms=$(( (t1 - t0) / 1000000 ))
echo "fleet smoke in ${elapsed_ms} ms -> ${FLEET_OUT}, ${FLEET_HTML}"
if [ "$elapsed_ms" -ge 30000 ]; then
    echo "fleet smoke blew its 30 s wall-clock budget (${elapsed_ms} ms)" >&2
    exit 1
fi
for section in "Fleet delay CDFs" "Fleet concurrency" "Control plane"; do
    if ! grep -q "$section" "$FLEET_HTML"; then
        echo "fleet HTML artifact is missing its '$section' section" >&2
        exit 1
    fi
done

echo "== stage 6: scenario zoo + chaos campaign (45 s budget) ============="
CHAOS_ARTIFACT=chaos-shrunk.json
t0=$(date +%s%N)
python -m repro chaos zoo --smoke --sanitize --rerun
python -m repro chaos campaign --examples 4 --duration 2.0 --derandomize \
    --sanitize --artifact "$CHAOS_ARTIFACT"
t1=$(date +%s%N)
elapsed_ms=$(( (t1 - t0) / 1000000 ))
echo "scenario zoo + campaign in ${elapsed_ms} ms"
if [ "$elapsed_ms" -ge 45000 ]; then
    echo "scenario stage blew its 45 s wall-clock budget (${elapsed_ms} ms)" >&2
    exit 1
fi

echo "== stage 7: perfledger tests + smoke run (90 s budget) =============="
t0=$(date +%s%N)
python -m pytest perfledger/tests -q
python -m perfledger run --smoke > /dev/null
t1=$(date +%s%N)
elapsed_ms=$(( (t1 - t0) / 1000000 ))
echo "perfledger tests + smoke in ${elapsed_ms} ms"
if [ "$elapsed_ms" -ge 90000 ]; then
    echo "perfledger stage blew its 90 s wall-clock budget (${elapsed_ms} ms)" >&2
    exit 1
fi

echo "ci_checks: all stages passed"
