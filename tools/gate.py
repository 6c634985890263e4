"""The byte-identity gate: write every artifact that a change to src/arrayimg
must leave as it was into <out_dir>, at one BLAS thread, in one process:

    python3 tools/gate.py <out_dir>

``COMMANDS`` lists the `arrayimg` commands, each with the file that takes its
stdout and stderr; ``estimators`` prints estimators.txt.  Run it on two
checkouts, then

    diff -r -x timings.csv parent_out/ change_out/

must print nothing (timings.csv holds wall times, which always differ).
tools/golden_diff.sh does both against a git revision, and tools/unreached.py
traces the same run.
"""

import contextlib
import os
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SCENARIOS = ROOT / "scenarios"
FIG2 = str(SCENARIOS / "fig2_smv_noiseless.ini")
FIG89 = str(SCENARIOS / "fig89_random_medium.ini")

# (output file name, arrayimg argv); the output paths are relative, so the
# printed paths are equal across checkouts
COMMANDS = (
    [(f"image_{ini.stem}", ["image", "--config", str(ini), "--seed", "1", "--out", "image"])
     for ini in sorted(SCENARIOS.glob("*.ini"))]
    # seeds whose image files are sensitive in their last digits
    + [(f"image_fig89_seed{seed}", ["image", "--config", FIG89, "--seed", seed,
                                    "--out", "image"]) for seed in ("6", "9")]
    + [("simulate", ["simulate", "--config", FIG2, "--seed", "1", "--out", "simulate"]),
       ("coherence", ["coherence", "--config", FIG2, "--out", "coherence"]),
       ("stability", ["stability", "--config", FIG89, "--realizations", "10",
                      "--out", "stability"])])


def estimators():
    """Print at 17 digits `estimate_stability_ratio` (N = 101, 100
    realizations, self and mixed modes), `estimate_second_moment` (500
    realizations), `autocorrelation_integral` for both kernels, and for
    fig89's medium at L = 1000 `effective_aperture` and `stability_bound` at
    apertures 500 and 2000."""
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


def run(main):
    """Run ``COMMANDS`` through ``main`` (``arrayimg.cli.main``), then
    ``estimators``, writing each stdout and stderr to ``<name>.txt`` in the
    current directory, so a solve that stops at its cap, an error line or a
    warning shows in the diff; stop at the first command that fails."""
    for name, argv in COMMANDS:
        with open(f"{name}.txt", "w") as out, contextlib.redirect_stdout(out), \
                contextlib.redirect_stderr(out):
            if main(argv) != 0:
                raise SystemExit(f"arrayimg {' '.join(argv)} failed; see {name}.txt")
    with open("estimators.txt", "w") as out, contextlib.redirect_stdout(out), \
            contextlib.redirect_stderr(out):
        estimators()


if __name__ == "__main__":
    if len(sys.argv) != 2:
        print(f"usage: {sys.argv[0]} <out_dir>", file=sys.stderr)
        sys.exit(2)
    # before NumPy is imported, which reads them once
    os.environ.update(OPENBLAS_NUM_THREADS="1", OMP_NUM_THREADS="1", MKL_NUM_THREADS="1")
    sys.path.insert(0, str(ROOT / "src"))
    out_dir = Path(sys.argv[1])
    out_dir.mkdir(parents=True, exist_ok=True)
    os.chdir(out_dir)
    from arrayimg.cli import main
    run(main)
