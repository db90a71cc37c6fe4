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
# the buffer cache's u32 slot pool and paged block index, allocator
# properties, the attribution ledger's pro-rata splitting), where UBSan
# catches signed overflow, bad shifts, misaligned access and enum abuse;
# plus the metadata namespace tables (the open-addressing name index and
# both directory layouts over it, the normal layout's inode table, the
# embedded layout's directory table and rename correlation), the u64-keyed
# open-addressing table behind the storage target's file table and the
# client's per-file maps (util_u64_map_test, osd_test), shard_test (the
# cross-shard rename protocol and its refusal of directories), obs_test,
# whose bench flag table parses argv from outside the program, and the
# tests rewritten against the mount constants: the client's readahead
# buffer, the two-phase collective's
# domain split, the timeline's decimation past its row bound and the
# reservation allocator's window refill; and util_test, whose run and range
# merges (u64 end arithmetic) serve the client, the collective writer and
# the repair service.  The tree also builds with
# -D_GLIBCXX_ASSERTIONS, so every std::vector/std::span index and
# front()/back() on those tables is bounds-checked.  Skips cleanly (exit 0)
# when the toolchain has no sanitizer runtime, so plain CI environments are
# not broken.  Registered as a ctest from tests/CMakeLists.txt for
# sanitizer-less parent builds.
set -eu

SCRIPT_DIR="$(CDPATH= cd -- "$(dirname -- "$0")" && pwd)"
. "$SCRIPT_DIR/lib.sh"

SRC="${1:-$(CDPATH= cd -- "$SCRIPT_DIR/.." && pwd)}"
SANITIZERS="address,undefined"

mif_require_sanitizer check_asan "$SANITIZERS"

export ASAN_OPTIONS=detect_leaks=1
export UBSAN_OPTIONS=halt_on_error=1
mif_sanitized_ctest check_asan "$SRC" "$SRC/build-asan" "$SANITIZERS" \
    -D_GLIBCXX_ASSERTIONS \
    rpc_test concurrency_test fault_verify_test client_test mds_test \
    sim_disk_test sim_scheduler_test block_bitmap_test block_extent_map_test \
    block_alloc_group_test block_cache_journal_test alloc_property_test \
    mfs_normal_test mfs_name_index_test mfs_embedded_test \
    mfs_dirtable_rename_test util_u64_map_test osd_test shard_test qos_test \
    formation_test attrib_test span_test redundancy_test obs_test \
    client_readahead_test collective_test timeline_test \
    alloc_vanilla_reservation_test util_test
