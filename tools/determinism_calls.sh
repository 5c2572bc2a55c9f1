#!/usr/bin/env bash
# The CLI calls of tier-1's determinism smoke, run with the slabqed that
# PYTHONPATH finds: every stock `modes` case, `sweep` 1A, 2B and vacuum at
# the stock resolution, 1B and 2A at ppw 160 and 1A at ppw 160 with the
# atom at -0.07, `oracle-compare` 1A-2B and vacuum, and the
# `check-identities` reports of 1B and 2B. Each writes its CSV, or its
# report as NAME.txt, into OUT_DIR.
# Every call runs with RuntimeWarning as an error, and the first that fails
# ends the script with its exit status.
#
# Usage: tools/determinism_calls.sh OUT_DIR
set -euo pipefail
out=$1
mkdir -p "$out"
cli() {
  python -W error::RuntimeWarning -c \
    "import sys; from slabqed.cli import main; sys.exit(main(sys.argv[1:]))" \
    "$@"
}
printf 'mesh.ppw = 160\n' > "$out/ppw160.cfg"
printf 'mesh.ppw = 160\natom.position = -0.07\n' > "$out/ppw160-left.cfg"
for call in "modes 1A" "modes 1B" "modes 2A" "modes 2B" "modes vacuum" \
    "sweep 1A" "sweep 2B" "sweep vacuum" \
    "oracle-compare 1A" "oracle-compare 1B" "oracle-compare 2A" \
    "oracle-compare 2B" "oracle-compare vacuum"; do
  set -- $call
  cli "$1" --case "$2" --out "$out/$1-$2.csv"
done
for case in 1B 2A; do
  cli sweep --case "$case" --config "$out/ppw160.cfg" \
    --out "$out/sweep-$case-ppw160.csv"
done
cli sweep --case 1A --config "$out/ppw160-left.cfg" \
  --out "$out/sweep-1A-ppw160-left.csv"
for case in 1B 2B; do
  cli check-identities --case "$case" > "$out/check-identities-$case.txt"
done
