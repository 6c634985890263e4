#!/bin/sh
# Write every artifact of the byte-identity gate into <out_dir>, at one BLAS
# thread: `arrayimg image` for the five shipped scenarios at seed 1 and for
# fig89 at seeds 6 and 9, `simulate` and `coherence` on fig2, and
# `stability --realizations 10` on fig89, with each command's stdout; and, in
# estimators.txt at 17 digits, `estimate_stability_ratio` (N = 101, 100
# realizations, self and mixed modes), `estimate_second_moment` (500
# realizations), `autocorrelation_integral` for both kernels, and fig89's
# medium at L = 1000: `effective_aperture` and `stability_bound` at apertures
# 500 and 2000.  Run it on two checkouts, then
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
fig89="$root/scenarios/fig89_random_medium.ini"
for seed in 6 9; do  # seeds whose image files are sensitive in their last digits
    arrayimg image --config "$fig89" --seed $seed --out image > "image_fig89_seed$seed.txt"
done
fig2="$root/scenarios/fig2_smv_noiseless.ini"
arrayimg simulate --config "$fig2" --seed 1 --out simulate > simulate.txt
arrayimg coherence --config "$fig2" --seed 1 --out coherence > coherence.txt
arrayimg stability --config "$fig89" --seed 1 --realizations 10 --out stability \
    > stability.txt
python3 - > estimators.txt <<'EOF'
from arrayimg.geometry import WaveContext, build_linear_array
from arrayimg.random_medium import (RandomMediumSpec, autocorrelation_integral,
                                    effective_aperture, estimate_second_moment,
                                    estimate_stability_ratio, stability_bound)

ctx = WaveContext(wavelength=1.0)
geom = build_linear_array(101, 2000.0 / 100)  # fig89's 100l aperture
y1, y2 = [0.0, 1000.0], [10.0, 1000.0]
for kernel, mode in (("gaussian", "self"), ("power-law", "mixed")):
    spec = RandomMediumSpec(correlation_length=20.0, sigma=0.001, kernel=kernel)
    est = estimate_stability_ratio(geom, y1, y2, ctx, spec, realizations=100,
                                   mode=mode, master_seed=1)
    print(f"stability {kernel} {mode} {est.estimate:.17g} {est.std_error:.17g}")
spec = RandomMediumSpec(correlation_length=20.0, sigma=0.001)
ratio, se = estimate_second_moment([0.0, 0.0], y1, [3.0, 1000.0], ctx, spec,
                                   realizations=500, master_seed=5)
print(f"second_moment gaussian {ratio:.17g} {se:.17g}")
for kernel in ("gaussian", "power-law"):
    print(f"autocorrelation_integral {kernel} {autocorrelation_integral(kernel):.17g}")
print(f"effective_aperture gaussian {effective_aperture(spec, 1000.0):.17g}")
for aperture in (500.0, 2000.0):
    bound = stability_bound(spec, aperture, 1000.0, 10.0, ctx)
    print(f"stability_bound {aperture:g} {bound:.17g}")
EOF
