#!/usr/bin/env sh
# Sanitizer ctest jobs. Two modes:
#
#   scripts/sanitize.sh [asan] [build-dir]   (default mode; dir build-asan)
#       Configure with AddressSanitizer + UBSan (-DAHBP_SANITIZE=ON),
#       build everything and run the full test suite.
#
#   scripts/sanitize.sh tsan [build-dir]     (default dir build-tsan)
#       Configure with ThreadSanitizer (-DAHBP_SANITIZE_THREAD=ON) and
#       run the threaded suites directly: the thread-hosted kernels, the
#       campaign pool (including process isolation and concurrent
#       journal appends), the kernel stress tests and the live
#       observability layer (metrics scrapes racing writers, the event
#       log, the status server, the progress tracker, two threads
#       committing one AtomicFile path). Binaries are
#       invoked directly rather than through ctest so the run covers
#       whole suites regardless of how gtest_discover_tests named the
#       individual cases.
#
# Exits non-zero if the build fails or any test trips a sanitizer.
# See docs/ROBUSTNESS.md.
set -eu

MODE="asan"
case "${1:-}" in
  asan|tsan) MODE="$1"; shift ;;
esac
SRC_DIR="$(CDPATH= cd -- "$(dirname -- "$0")/.." && pwd)"

if [ "$MODE" = "tsan" ]; then
  BUILD_DIR="${1:-build-tsan}"
  cmake -S "$SRC_DIR" -B "$BUILD_DIR" -DAHBP_SANITIZE_THREAD=ON
  cmake --build "$BUILD_DIR" -j "$(nproc 2>/dev/null || echo 4)" \
      --target test_sim_kernel_threads test_campaign \
               test_campaign_journal test_campaign_isolation \
               test_sim_kernel_stress test_telemetry_metrics_concurrency \
               test_telemetry_events test_telemetry_status_server \
               test_campaign_progress test_telemetry_atomic_file
  # halt_on_error: a data-race report fails the suite immediately.
  for suite in test_sim_kernel_threads test_campaign test_campaign_journal \
               test_campaign_isolation test_sim_kernel_stress \
               test_telemetry_metrics_concurrency test_telemetry_events \
               test_telemetry_status_server test_campaign_progress \
               test_telemetry_atomic_file; do
    TSAN_OPTIONS="${TSAN_OPTIONS:-halt_on_error=1}" \
        "$BUILD_DIR/tests/$suite"
  done
  exit 0
fi

BUILD_DIR="${1:-build-asan}"
cmake -S "$SRC_DIR" -B "$BUILD_DIR" -DAHBP_SANITIZE=ON
cmake --build "$BUILD_DIR" -j "$(nproc 2>/dev/null || echo 4)"
# halt_on_error: make ASan findings fail the test immediately, like the
# -fno-sanitize-recover UBSan flags already do.
ASAN_OPTIONS="${ASAN_OPTIONS:-halt_on_error=1}" \
    ctest --test-dir "$BUILD_DIR" --output-on-failure
