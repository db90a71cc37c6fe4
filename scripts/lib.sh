# Shared helpers for the scripts/check_*.sh sanitizer gates.  POSIX sh;
# source it after `set -eu`:
#
#   . "$(CDPATH= cd -- "$(dirname -- "$0")" && pwd)/lib.sh"
#
# Provides:
#   mif_tmpdir VAR [label]    create a temp directory, assign its path to $VAR
#   mif_require_sanitizer NAME SANITIZERS
#                             exit 0 with a SKIP line when the toolchain
#                             cannot link -fsanitize=SANITIZERS
#   mif_sanitized_ctest NAME SRC BUILD SANITIZERS TEST...
#                             configure a -DMIF_SANITIZE side build with
#                             Ninja, build the listed test targets in one
#                             parallel build and run them via ctest
#
# Every temporary registered through mif_tmpdir is removed by one shared
# EXIT trap, so callers never write their own mktemp/trap boilerplate.  The
# helper assigns through `eval` instead of printing so it works in the parent
# shell (a $(...) capture would grow the cleanup list in a subshell and leak
# the directory).

MIF_TMP_PATHS=""

mif_cleanup() {
  # shellcheck disable=SC2086  # word-splitting of the path list is intended
  [ -z "$MIF_TMP_PATHS" ] || rm -rf $MIF_TMP_PATHS
}
trap mif_cleanup EXIT

mif_tmpdir() {
  _mif_path="$(mktemp -d "/tmp/mif_${2:-tmp}.XXXXXX")"
  MIF_TMP_PATHS="$MIF_TMP_PATHS $_mif_path"
  eval "$1=\$_mif_path"
}

# Probe: can this toolchain link a sanitized binary at all?  Skipping keeps
# plain CI environments green; the sanitizer gates only bite where the
# runtime exists.
mif_require_sanitizer() {
  mif_tmpdir _mif_probe "${1}_probe"
  printf 'int main(){return 0;}\n' > "$_mif_probe/probe.cpp"
  if ! c++ -fsanitize="$2" "$_mif_probe/probe.cpp" -o "$_mif_probe/probe" \
      > /dev/null 2>&1; then
    echo "$1: SKIP (toolchain cannot link -fsanitize=$2)"
    exit 0
  fi
}

# Configure <build> from <src> with -DMIF_SANITIZE=<sanitizers>, build the
# listed test targets and run exactly those via ctest.  Sanitizer runtime
# options (ASAN_OPTIONS & co.) should be exported by the caller beforehand.
#
# The side tree uses the Ninja generator: `ninja a b c` schedules every
# listed target's compile and link jobs on one job pool, so the test
# executables build in parallel.  (CMake's generated top-level Makefile is
# .NOTPARALLEL and builds the goals of `--target a b c` one after another,
# each a single-source target.)  CMake cannot switch the generator of an
# existing tree, so a side tree that another generator configured is
# removed and configured afresh.
mif_sanitized_ctest() {
  _mif_name="$1"
  _mif_src="$2"
  _mif_build="$3"
  _mif_san="$4"
  shift 4

  if [ -f "$_mif_build/CMakeCache.txt" ] &&
     ! grep -qx 'CMAKE_GENERATOR:INTERNAL=Ninja' \
         "$_mif_build/CMakeCache.txt"; then
    rm -rf "$_mif_build"
  fi
  cmake -G Ninja -B "$_mif_build" -S "$_mif_src" \
        -DCMAKE_BUILD_TYPE=RelWithDebInfo \
        -DMIF_SANITIZE="$_mif_san" > /dev/null

  # A link killed part-way (a ctest timeout) can leave an empty executable
  # behind; delete it so the build below links it again.
  for _mif_test in "$@"; do
    _mif_exe="$_mif_build/tests/$_mif_test"
    if [ -f "$_mif_exe" ] && [ ! -s "$_mif_exe" ]; then
      echo "$_mif_name: relinking empty $_mif_exe"
      rm -f "$_mif_exe"
    fi
  done

  _mif_jobs="$(nproc 2>/dev/null || echo 4)"
  cmake --build "$_mif_build" -j "$_mif_jobs" --target "$@" > /dev/null

  _mif_regex="$(printf '%s|' "$@")"
  _mif_regex="${_mif_regex%|}"
  ctest --test-dir "$_mif_build" -R "^($_mif_regex)$" --output-on-failure \
        -j "$_mif_jobs"

  echo "$_mif_name: OK ($* under $_mif_san)"
}
