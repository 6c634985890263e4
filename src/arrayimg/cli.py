"""Command-line harness: simulate, image, stability and coherence subcommands."""

import argparse
import json
import sys

from .config import load_config
from .errors import ConfigurationError
from .experiments import build_scene, coherence_report, monte_carlo_stability, run_scenario
from .io import run_directory, save_response_matrix


def _add_common(sub):
    sub.add_argument("--config", required=True, help="scenario INI file")
    sub.add_argument("--out", default="runs", help="output directory")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="arrayimg",
        description="Narrow-band active-array scattering simulation and "
                    "sparse imaging harness")
    subs = parser.add_subparsers(dest="command", required=True)

    sim = subs.add_parser("simulate", help="run the forward model and save the data")
    _add_common(sim)

    img = subs.add_parser("image", help="run imaging methods on a scenario")
    _add_common(img)
    img.add_argument("--methods", default=None,
                     help="comma list overriding the configured methods")

    stab = subs.add_parser("stability", help="Monte-Carlo success rates per aperture")
    _add_common(stab)
    stab.add_argument("--realizations", type=int, default=None)

    coh = subs.add_parser("coherence", help="coherence / recovery-certificate report")
    _add_common(coh)
    # stability draws its seeds 1..R itself, and coherence reads the support only
    for sub in (sim, img):
        sub.add_argument("--seed", type=int, default=None, help="override the scenario seed")
    return parser


def _load(args):
    overrides = {name: getattr(args, name, None) for name in ("seed", "methods", "realizations")}
    return load_config(args.config, {k: v for k, v in overrides.items() if v is not None})


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        cfg = _load(args)
        if args.command == "simulate":
            scene = build_scene(cfg, cfg.seed)
            run_dir = run_directory(args.out, cfg, cfg.seed)
            save_response_matrix(run_dir / "response.csv", scene.noisy)
            print(f"wrote {run_dir / 'response.csv'}")
        elif args.command == "image":
            reports = run_scenario(cfg, cfg.seed, out_dir=args.out)
            for r in reports:
                status = "exact" if r.support_exact else "inexact"
                extra = f" [{r.error}]" if r.error else ""
                print(f"{r.method}: {status} precision={r.precision:.3f} "
                      f"recall={r.recall:.3f}{extra}")
                if r.converged is False:
                    print(f"{r.method}: not converged after {r.iterations} "
                          f"iterations (residual {r.residual:.3g})", file=sys.stderr)
        elif args.command == "stability":
            rows = monte_carlo_stability(cfg, out_dir=args.out)
            for row in rows:
                print(f"aperture={row['aperture']:g} {row['method']}: "
                      f"success={row['success_rate']:.2f} "
                      f"unconverged={row['unconverged']} errored={row['errored']}")
        elif args.command == "coherence":
            report = coherence_report(cfg, out_dir=args.out)
            print(f"grid coherence={report['grid_coherence']:.6f} "
                  f"margin={report['margin']:.6f} certified={report['certified']}")
        return 0
    except Exception as exc:
        kind = type(exc).__name__
        print(json.dumps({"error": kind, "message": str(exc)}), file=sys.stderr)
        return 1 if isinstance(exc, ConfigurationError) else 2


if __name__ == "__main__":
    sys.exit(main())
