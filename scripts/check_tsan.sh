#!/usr/bin/env sh
# Build and run the threading-sensitive tier-1 tests under ThreadSanitizer.
#
# Usage: check_tsan.sh [source-dir]
#
# Configures a side build (<source>/build-tsan) with -DMIF_SANITIZE=thread,
# builds the subset that exercises the transport stack's locking (the async
# completion queue, the formation staging queues, the shared-file workloads,
# the attribution ledger's concurrent charge sites) and runs it via ctest.
# Skips cleanly (exit 0) when the toolchain has no TSan runtime, so plain CI
# environments are not broken.  Registered as a ctest from
# tests/CMakeLists.txt for sanitizer-less parent builds.
set -eu

SCRIPT_DIR="$(CDPATH= cd -- "$(dirname -- "$0")" && pwd)"
. "$SCRIPT_DIR/lib.sh"

SRC="${1:-$(CDPATH= cd -- "$SCRIPT_DIR/.." && pwd)}"
SANITIZERS="thread"

mif_require_sanitizer check_tsan "$SANITIZERS"

export TSAN_OPTIONS=halt_on_error=1
mif_sanitized_ctest check_tsan "$SRC" "$SRC/build-tsan" "$SANITIZERS" "" \
    rpc_test rpc_async_test formation_test qos_test concurrency_test \
    client_test collective_test shard_test timeline_test attrib_test \
    redundancy_test
