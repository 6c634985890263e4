#!/bin/sh
# Write every artifact of the byte-identity gate into <out_dir>, at one BLAS
# thread: `arrayimg image` for the five shipped scenarios at seed 1,
# `simulate` and `coherence` on fig2, and `stability --realizations 10` on
# fig89, with each command's stdout.  Run it on two checkouts, then
#
#     diff -r -x timings.csv parent_out/ change_out/
#
# must print nothing (timings.csv holds wall times, which always differ).
set -eu
if [ $# -ne 1 ]; then
    echo "usage: $0 <out_dir>" >&2
    exit 2
fi
root=$(cd "$(dirname "$0")/.." && pwd)
mkdir -p "$1"
cd "$1"  # relative output paths keep the printed paths equal across runs
export OPENBLAS_NUM_THREADS=1 OMP_NUM_THREADS=1 MKL_NUM_THREADS=1
export PYTHONPATH="$root/src${PYTHONPATH:+:$PYTHONPATH}"
arrayimg() { python3 -m arrayimg.cli "$@"; }

for ini in "$root"/scenarios/*.ini; do
    name=$(basename "$ini" .ini)
    arrayimg image --config "$ini" --seed 1 --out image > "image_$name.txt"
done
fig2="$root/scenarios/fig2_smv_noiseless.ini"
arrayimg simulate --config "$fig2" --seed 1 --out simulate > simulate.txt
arrayimg coherence --config "$fig2" --seed 1 --out coherence > coherence.txt
arrayimg stability --config "$root/scenarios/fig89_random_medium.ini" --seed 1 \
    --realizations 10 --out stability > stability.txt
