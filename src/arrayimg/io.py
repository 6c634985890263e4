"""Artifact formats and file writes: matrix CSVs, reports, images, the run
directory and its config snapshot.

Every writer takes the target path first and produces the same bytes for the
same inputs.  Matrices, solver traces and the coherence report keep 17
significant digits; every other table keeps 12.
"""

import json
from pathlib import Path

import numpy as np

__all__ = [
    "run_directory",
    "save_response_matrix",
    "write_coherence_report",
    "write_certificates_csv",
    "write_report_csv",
    "write_timings_csv",
    "write_monte_carlo_csv",
    "write_stability_csv",
    "write_trace_csv",
    "write_support_csv",
    "write_image_csv",
    "write_pgm",
]


def run_directory(out_dir, cfg, seed) -> Path:
    """Create ``out_dir/<scenario_id>/<seed>/`` holding a ``config.ini`` snapshot."""
    run_dir = Path(out_dir) / cfg.scenario_id / str(seed)
    run_dir.mkdir(parents=True, exist_ok=True)
    (run_dir / "config.ini").write_text(cfg.raw_text or "# built in memory\n")
    return run_dir


def save_response_matrix(path, resp) -> None:
    """Response-matrix CSV: one ``#``-prefixed JSON line with ``n``,
    ``provenance`` and ``seed``, then one row of interleaved re,im pairs per
    matrix row."""
    header = {"n": resp.n, "provenance": resp.provenance, "seed": resp.seed}
    m = np.ascontiguousarray(resp.matrix, dtype=complex)
    row_format = ",".join(["%.17g"] * (2 * m.shape[1])) + "\n"
    with open(path, "w") as fh:
        fh.write("# " + json.dumps(header, sort_keys=True) + "\n")
        for row in m.view(float):
            fh.write(row_format % tuple(row.tolist()))


def write_coherence_report(path, epsilon: float, pair, margins: dict) -> None:
    """CSV report with the coherence, maximizing pair and per-M margins."""
    with open(path, "w") as fh:
        fh.write("quantity,value\n")
        fh.write(f"coherence,{epsilon:.17g}\n")
        fh.write(f"argmax_i,{pair[0]}\n")
        fh.write(f"argmax_j,{pair[1]}\n")
        for m_count, margin in sorted(margins.items()):
            fh.write(f"margin_m{m_count},{margin:.17g}\n")


def write_certificates_csv(path, m: int, epsilon: float, bounds) -> None:
    """Theorem-2 bound per noise level; ``bounds`` holds (delta, bound, verdict)
    rows and a NaN bound is written blank."""
    with open(path, "w") as fh:
        fh.write("delta,m,epsilon,theorem2_bound,verdict\n")
        for delta, bound, verdict in bounds:
            b = "" if np.isnan(bound) else f"{bound:.12g}"
            fh.write(f"{delta:.12g},{m},{epsilon:.12g},{b},{verdict}\n")


def write_report_csv(path, reports) -> None:
    """Deterministic trial table (wall times live in a separate file)."""
    with open(path, "w") as fh:
        fh.write("method,scenario,seed,support_exact,precision,recall,"
                 "reflectivity_error,error\n")
        for r in reports:
            err = "" if np.isnan(r.reflectivity_error) else f"{r.reflectivity_error:.12g}"
            fh.write(f"{r.method},{r.scenario_id},{r.seed},{int(r.support_exact)},"
                     f"{r.precision:.12g},{r.recall:.12g},{err},{r.error}\n")


def write_timings_csv(path, reports) -> None:
    """Per-trial wall times, kept out of the deterministic report."""
    with open(path, "w") as fh:
        fh.write("method,seed,wall_time_s\n")
        for r in reports:
            fh.write(f"{r.method},{r.seed},{r.wall_time:.6f}\n")


def write_monte_carlo_csv(path, rows) -> None:
    """Success-rate table of :func:`~arrayimg.experiments.monte_carlo_stability`."""
    with open(path, "w") as fh:
        fh.write("aperture,method,success_rate,mean_precision,mean_recall,"
                 "realizations\n")
        for row in rows:
            fh.write(f"{row['aperture']:.12g},{row['method']},"
                     f"{row['success_rate']:.12g},{row['mean_precision']:.12g},"
                     f"{row['mean_recall']:.12g},{row['realizations']}\n")


def write_stability_csv(path, rows) -> None:
    """CSV of (aperture, ratio_estimate, std_error, closed_form_bound) rows."""
    with open(path, "w") as fh:
        fh.write("aperture,ratio_estimate,std_error,closed_form_bound\n")
        for aperture, est, se, bound in rows:
            fh.write(f"{aperture:.12g},{est:.12g},{se:.12g},{bound:.12g}\n")


def write_trace_csv(path, trace) -> None:
    """Solver convergence trace: (iteration, objective, residual) rows."""
    with open(path, "w") as fh:
        fh.write("iteration,objective,residual\n")
        for it, obj, res in trace:
            fh.write(f"{it},{obj:.17g},{res:.17g}\n")


def write_support_csv(path, result, window) -> None:
    """CSV of recovered components: index,row,col,re,im,abs,flag."""
    screened = set(result.screened)
    with open(path, "w") as fh:
        fh.write("index,row,col,re,im,abs,flag\n")
        for idx in result.support:
            row, col = window.index_to_rowcol(int(idx))
            z = result.reflectivity[idx]
            flag = "screened" if int(idx) in screened else "ok"
            fh.write(f"{int(idx)},{row},{col},{z.real:.12g},{z.imag:.12g},"
                     f"{abs(z):.12g},{flag}\n")


def write_image_csv(path, result, window) -> None:
    """Row-major magnitude grid, one CSV row per lattice row."""
    grid = np.nan_to_num(result.image).reshape(window.rows, window.cols)
    with open(path, "w") as fh:
        for r in range(window.rows):
            fh.write(",".join(f"{v:.12g}" for v in grid[r]) + "\n")


def write_pgm(path, result, window) -> None:
    """Plain (P2) portable graymap normalized so the peak maps to 255."""
    grid = np.nan_to_num(result.image).reshape(window.rows, window.cols)
    top = grid.max()
    scaled = np.zeros_like(grid, dtype=int) if top <= 0 \
        else np.rint(grid / top * 255).astype(int)
    with open(path, "w") as fh:
        fh.write(f"P2\n{window.cols} {window.rows}\n255\n")
        for r in range(window.rows):
            fh.write(" ".join(str(v) for v in scaled[r]) + "\n")
