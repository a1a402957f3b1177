#!/usr/bin/env bash
# Sanitizer and portability gate for the deterministic execution layer.
#
#   tools/check.sh           # all four legs below, back to back
#   tools/check.sh tsan      # TSan leg: threading tests
#   tools/check.sh asan      # ASan leg: full suite
#   tools/check.sh ubsan     # UBSan leg: full suite
#   tools/check.sh portable  # full suite built for x86-64-v3 (no AVX-512)
#
# TSan exercises the parallel/determinism/serving/chaos tests (the code paths
# with real cross-thread sharing, including the epoch holder's RCU flips and
# the fault-injection registry); ASan and UBSan run the entire
# suite.  The portable leg builds the full suite for x86-64-v3 (AVX2, no
# AVX-512), so the int8 lane runs its portable scalar GEMM instead of the
# VNNI one: the same tests and goldens hold that walk to the same bits.
# Build trees live in build-tsan/, build-asan/, build-ubsan/ and
# build-portable/ so they never pollute the primary build/.
set -euo pipefail
cd "$(dirname "$0")/.."

LEG="${1:-all}"
JOBS="${JOBS:-$(nproc)}"

run_leg() {
  local name="$1" filter="$2"
  shift 2
  local dir="build-${name}"
  echo "== ${name}: configuring ${dir} ($*) =="
  cmake -B "${dir}" -S . "$@" >/dev/null
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
# under TSan: threads after fork are unsupported).  Net also covers the
# 4-shard router's concurrent clients over SimNet chaos and real sockets.
TSAN_FILTER='Parallel|ThreadPool|Determinism|GlobalThreads|RngSubstream|VerifierService|Chaos|Fault|Kernels|Crc32|AtomicWrite|Durable|Journal|CorruptionFuzz|TrajCsv|Validate|CrowdStore|CrashRecovery|Shard|Hotswap|EpochedDetector|Artifact|Poison|Quant|Net'

tsan() { run_leg tsan "${TSAN_FILTER}" -DTRAJKIT_SANITIZE=thread; }
asan() { run_leg asan '' -DTRAJKIT_SANITIZE=address; }
ubsan() { run_leg ubsan '' -DTRAJKIT_SANITIZE=undefined; }
portable() { run_leg portable '' -DCMAKE_CXX_FLAGS_RELEASE="-O3 -march=x86-64-v3"; }

case "${LEG}" in
  tsan | asan | ubsan | portable) "${LEG}" ;;
  all) tsan; asan; ubsan; portable ;;
  *) echo "usage: $0 [tsan|asan|ubsan|portable|all]" >&2; exit 2 ;;
esac

echo "== ${LEG}: passed =="
