#!/usr/bin/env bash
# Sanitizer gate for the deterministic execution layer.
#
#   tools/check.sh          # TSan threading tests, ASan full suite, UBSan full suite
#   tools/check.sh tsan     # TSan leg only
#   tools/check.sh asan     # ASan leg only
#   tools/check.sh ubsan    # UBSan leg only
#
# TSan exercises the parallel/determinism/serving/chaos tests (the code paths
# with real cross-thread sharing, including the epoch holder's RCU flips and
# the fault-injection registry); ASan and UBSan run the entire
# suite.  Build trees live in build-tsan/, build-asan/ and build-ubsan/ so
# they never pollute the primary build/.
set -euo pipefail
cd "$(dirname "$0")/.."

LEG="${1:-all}"
JOBS="${JOBS:-$(nproc)}"

run_leg() {
  local name="$1" sanitize="$2" filter="$3"
  local dir="build-${name}"
  echo "== ${name}: configuring ${dir} (TRAJKIT_SANITIZE=${sanitize}) =="
  cmake -B "${dir}" -S . -DTRAJKIT_SANITIZE="${sanitize}" >/dev/null
  echo "== ${name}: building =="
  cmake --build "${dir}" -j "${JOBS}"
  echo "== ${name}: testing (filter: ${filter:-<all>}) =="
  if [[ -n "${filter}" ]]; then
    ctest --test-dir "${dir}" --output-on-failure -j "${JOBS}" -R "${filter}"
  else
    ctest --test-dir "${dir}" --output-on-failure -j "${JOBS}"
  fi
}

# Kernels joins the TSan leg because the batched nn path shares a
# thread_local workspace with the training pool's worker threads.  The
# durability suites (durable_test, crash_recovery_test) join every leg: under
# TSan/ASan/UBSan the corruption fuzz proves that a flipped byte is a clean
# Expected error and never UB, and the fork-based crash matrix stays safe
# because the children are single-threaded and I/O-only.  Hotswap/Artifact
# joins too: the RCU epoch flip races real submitter threads against
# publish_epoch, exactly the sharing TSan is for, and EpochedDetector races
# snapshot readers against the holder's flips directly.  Net* joins for the same
# reason — SimNet serves concurrent callers under one mutex, UdsServer runs
# an accept loop plus per-connection threads, and the chaos suite drives
# both from client thread pools (the forked cross-process test self-skips
# under TSan: threads after fork are unsupported).  bench_net_smoke rides
# along so the transport legs (including real sockets) get sanitized too.
TSAN_FILTER='Parallel|ThreadPool|Determinism|GlobalThreads|RngSubstream|VerifierService|Chaos|Fault|Kernels|Crc32|AtomicWrite|Durable|Journal|CorruptionFuzz|TrajCsv|Validate|CrowdStore|CrashRecovery|Shard|ConsistentHash|Hotswap|EpochedDetector|Artifact|Poison|Quant|Net|bench_net_smoke'

case "${LEG}" in
  tsan) run_leg tsan thread "${TSAN_FILTER}" ;;
  asan) run_leg asan address '' ;;
  ubsan) run_leg ubsan undefined '' ;;
  all)
    run_leg tsan thread "${TSAN_FILTER}"
    run_leg asan address ''
    run_leg ubsan undefined ''
    ;;
  *) echo "usage: $0 [tsan|asan|ubsan|all]" >&2; exit 2 ;;
esac

echo "== all sanitizer legs passed =="
