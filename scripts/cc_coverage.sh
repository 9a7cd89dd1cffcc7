#!/usr/bin/env bash
# A CC for repro.sim.accel that builds the C kernel for gcov: -O0 in
# place of the build's -O2, and --coverage.  The kernel that is loaded
# (built beside its source) keeps its counters there as _ckernel.gcno and
# _ckernel.gcda, whatever its temporary output is called; any other
# build (a test's, into its own directory) keeps its own beside its
# output.  Used by CI's kernel-coverage job:
#
#   CC=$PWD/scripts/cc_coverage.sh python -m pytest -x -q
#   gcov -b -n -o src/repro/sim src/repro/sim/_ckernel.c
set -euo pipefail
source_dir=$(cd "$(dirname "$0")/../src/repro/sim" && pwd)
args=()
output=
previous=
for arg in "$@"; do
    [[ $previous == -o ]] && output=$arg
    previous=$arg
    [[ $arg == -O2 ]] || args+=("$arg")
done
if [[ -n $output && $(cd "$(dirname "$output")" && pwd) == "$source_dir" ]]; then
    args=(-dumpbase _ckernel -dumpdir "$source_dir/" "${args[@]}")
fi
exec gcc --coverage -O0 "${args[@]}"
