#!/usr/bin/env sh
# Build and run the RPC/concurrency-sensitive and arithmetic-heavy tier-1
# tests under AddressSanitizer + UndefinedBehaviorSanitizer.
#
# Usage: check_asan.sh [source-dir]
#
# Configures one side build (<source>/build-asan) with -DMIF_SANITIZE=
# address,undefined and runs two subsets through it: the tests that exercise
# the transport stack (the formation layer's staged-envelope destructor and
# sticky-error paths included), threading and fault paths, and the ones that
# lean hardest on integer/double arithmetic (disk geometry, the free-space
# bitmap's bounded word scans and the allocation groups over it, extent maps,
# allocator properties, the attribution ledger's pro-rata splitting), where
# UBSan catches signed overflow, bad shifts, misaligned access and enum
# abuse; plus obs_test, whose bench flag table parses argv from outside the
# program.  Skips cleanly (exit 0) when the toolchain has no sanitizer
# runtime, so plain CI environments are not broken.  Registered as a ctest
# from tests/CMakeLists.txt for sanitizer-less parent builds.
set -eu

SCRIPT_DIR="$(CDPATH= cd -- "$(dirname -- "$0")" && pwd)"
. "$SCRIPT_DIR/lib.sh"

SRC="${1:-$(CDPATH= cd -- "$SCRIPT_DIR/.." && pwd)}"
SANITIZERS="address,undefined"

mif_require_sanitizer check_asan "$SANITIZERS"

export ASAN_OPTIONS=detect_leaks=1
export UBSAN_OPTIONS=halt_on_error=1
mif_sanitized_ctest check_asan "$SRC" "$SRC/build-asan" "$SANITIZERS" \
    rpc_test concurrency_test fault_verify_test client_test mds_test \
    sim_disk_test sim_scheduler_test block_bitmap_test block_extent_map_test \
    block_alloc_group_test alloc_property_test qos_test formation_test \
    attrib_test span_test redundancy_test obs_test
