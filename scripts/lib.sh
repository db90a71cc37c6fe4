# Shared helpers for the scripts/check_*.sh CI gates.  POSIX sh; source it
# after `set -eu`:
#
#   . "$(CDPATH= cd -- "$(dirname -- "$0")" && pwd)/lib.sh"
#
# Provides:
#   mif_tmpfile VAR [label]   create a temp file, assign its path to $VAR
#   mif_tmpdir  VAR [label]   create a temp directory, assign its path to $VAR
#   mif_require_sanitizer NAME SANITIZERS
#                             exit 0 with a SKIP line when the toolchain
#                             cannot link -fsanitize=SANITIZERS
#   mif_sanitized_ctest NAME SRC BUILD SANITIZERS TEST...
#                             configure a -DMIF_SANITIZE side build, build
#                             the listed test targets and run them via ctest
#
# Every temporary registered through mif_tmpfile/mif_tmpdir is removed by one
# shared EXIT trap, so callers never write their own mktemp/trap boilerplate.
# The helpers assign through `eval` instead of printing so they work in the
# parent shell (a $(...) capture would grow the cleanup list in a subshell
# and leak the file).
#
# The gates' python heredocs import scripts/gates.py (require, close, the
# attribution-conservation check); it reports failures under MIF_GATE, the
# calling script's name.

MIF_TMP_PATHS=""
MIF_SCRIPTS="$(CDPATH= cd -- "$(dirname -- "$0")" && pwd)"
PYTHONPATH="$MIF_SCRIPTS${PYTHONPATH:+:$PYTHONPATH}"
MIF_GATE="$(basename -- "$0" .sh)"
export PYTHONPATH MIF_GATE

mif_cleanup() {
  # shellcheck disable=SC2086  # word-splitting of the path list is intended
  [ -z "$MIF_TMP_PATHS" ] || rm -rf $MIF_TMP_PATHS
}
trap mif_cleanup EXIT

mif_tmpfile() {
  _mif_path="$(mktemp "/tmp/mif_${2:-tmp}.XXXXXX")"
  MIF_TMP_PATHS="$MIF_TMP_PATHS $_mif_path"
  eval "$1=\$_mif_path"
}

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
mif_sanitized_ctest() {
  _mif_name="$1"
  _mif_src="$2"
  _mif_build="$3"
  _mif_san="$4"
  shift 4

  cmake -B "$_mif_build" -S "$_mif_src" \
        -DCMAKE_BUILD_TYPE=RelWithDebInfo \
        -DMIF_SANITIZE="$_mif_san" > /dev/null

  _mif_jobs="$(nproc 2>/dev/null || echo 4)"
  cmake --build "$_mif_build" -j "$_mif_jobs" --target "$@" > /dev/null

  _mif_regex="$(printf '%s|' "$@")"
  _mif_regex="${_mif_regex%|}"
  ctest --test-dir "$_mif_build" -R "^($_mif_regex)$" --output-on-failure \
        -j "$_mif_jobs"

  echo "$_mif_name: OK ($* under $_mif_san)"
}
