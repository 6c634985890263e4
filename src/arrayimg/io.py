"""Artifact formats and file writes: matrix CSVs, reports, images, the run
directory and its config snapshot.

Every writer takes the target path first and produces the same bytes for the
same inputs.  Matrices, solver traces and the coherence report keep 17
significant digits; every other table keeps 12.

``response.csv`` holds exactly ``'%.17g' % v`` of each value.  A vectorized
kernel prints it a block of rows at a time, and ``tests/test_io.py`` checks
its bytes against the row loop it replaced, with a Hypothesis property over
arbitrary float64 and with planted edge cases.
"""

import json
from pathlib import Path

import numpy as np


def run_directory(out_dir, cfg, seed) -> Path:
    """Create ``out_dir/<scenario_id>/<seed>/`` holding a ``config.ini`` snapshot."""
    run_dir = Path(out_dir) / cfg.scenario_id / str(seed)
    run_dir.mkdir(parents=True, exist_ok=True)
    (run_dir / "config.ini").write_text(cfg.raw_text or "# built in memory\n")
    return run_dir


def save_response_matrix(path, resp) -> None:
    """Response-matrix CSV: one ``#``-prefixed JSON line with ``n``,
    ``provenance`` and ``seed``, then one row of interleaved re,im pairs per
    matrix row, each value as ``'%.17g' % value``.  Rows are formatted and
    written ``_BLOCK_ROWS`` at a time."""
    header = {"n": resp.n, "provenance": resp.provenance, "seed": resp.seed}
    rows = np.ascontiguousarray(resp.matrix, dtype=complex).view(float)
    with open(path, "wb") as fh:
        fh.write(("# " + json.dumps(header, sort_keys=True) + "\n").encode())
        for start in range(0, len(rows), _BLOCK_ROWS):
            fh.write(_format_rows(rows[start:start + _BLOCK_ROWS]))


# The response kernel.  '%.17g' prints a nonzero finite x as the 17-digit
# integer D = round-half-even(|x| 10**(16 - k)), k = floor(log10 |x|) (k + 1
# and D = 10**16 when D rounds up to 10**17), in scientific notation when
# k < -4 or k >= 17: "-d.dddddddddddddddde-kk" with the trailing zeros of the
# fraction, and then a bare '.', removed.  The kernel prints that notation
# alone.  It forms |x| 10**(16 - k) as an exact product p + err (Dekker's
# two-product on Veltkamp splits) plus |x| times the low half of a
# double-double power of ten, good to about 1e-14 beside D's 1e16.  Zero,
# non-finite, fixed-notation and extreme values, and fractions too near 1/2
# for that error to decide the rounding, go to '%.17g' itself.
#
# Each value gets seven 4-byte words, NUL where nothing prints, and the NULs
# are deleted at the end: [sign, d0, '.', NUL], four groups of four fraction
# digits, ['e', exponent sign, hundreds, tens], [ones, separator, NUL, NUL].
# The words are built in a (word, value) buffer, so every write is contiguous.
_BLOCK_ROWS = 16
_K_LIMIT = 275      # the power table covers |k| <= _K_LIMIT
_FAST_MIN, _FAST_MAX = 1e-270, 1e270  # no product or split below overflows or underflows
_SPLIT = 2.0 ** 27 + 1.0              # Veltkamp's splitting constant for float64
_TIE = 1e-6         # a fraction this close to 1/2 is left to '%.17g'


def _power_table():
    """Rows (hi, hi's upper half, hi's lower half, lo) of 10**(16 - k), with
    hi + lo the double-double of the exact power, for k = -_K_LIMIT.._K_LIMIT."""
    hi, lo = [], []
    for k in range(-_K_LIMIT, _K_LIMIT + 1):
        num, den = (10 ** (16 - k), 1) if k <= 16 else (1, 10 ** (k - 16))
        h = num / den  # int true division rounds correctly
        hn, hd = h.as_integer_ratio()
        hi.append(h)
        lo.append((num * hd - hn * den) / (den * hd))
    hi = np.array(hi)
    split = hi * _SPLIT
    upper = split - (split - hi)
    return np.stack([hi, upper, hi - upper, np.array(lo)])


def _words(chars) -> np.ndarray:
    """Rows of four character codes as native-order 4-byte words."""
    return np.ascontiguousarray(chars, dtype=np.uint8).view(np.uint32).ravel()


def _word_tables():
    """Words of a fraction group (index + 10000 when its trailing zeros are
    the fraction's: those become NUL), of the sign, lead digit and point
    (lead + 10 * negative + 20 * bare lead), and of the exponent (k + _K_LIMIT
    + 1; the tail word with ',' then with newline)."""
    digits = np.indices((10,) * 4, np.uint8).reshape(4, -1).T + 48
    kept = np.logical_or.accumulate(digits[:, ::-1] != 48, axis=1)[:, ::-1]
    groups = _words(np.concatenate([digits, digits * kept]))
    i = np.arange(40)
    heads = np.zeros((40, 4), int)
    heads[:, 0] = i // 10 % 2 * ord("-")
    heads[:, 1] = i % 10 + 48
    heads[:, 2] = (i < 20) * ord(".")
    k = np.arange(-_K_LIMIT - 1, _K_LIMIT + 2)
    exp = np.zeros((3, k.size, 4), int)  # head, tail with ',', tail with newline
    exp[0, :, 0] = ord("e")
    exp[0, :, 1] = np.where(k < 0, ord("-"), ord("+"))
    exp[0, :, 2:] = np.abs(k)[:, None] // [100, 10] % 10 + 48
    exp[0, np.abs(k) < 100, 2] = 0  # '%e' prints at least two exponent digits
    exp[1:, :, 0] = np.abs(k) % 10 + 48
    exp[1:, :, 1] = [[ord(",")], [ord("\n")]]
    return (groups, _words(heads)) + tuple(_words(table) for table in exp)


_POWERS = _power_table()
_GROUPS, _HEADS, _EXP_HEADS, _EXP_TAILS, _EXP_TAILS_NL = _word_tables()
_SEPARATOR = _words([[0, 255, 0, 0]])[0]  # masks a tail word to its separator


def _divmod(v, base):
    """``np.divmod`` of nonnegative integers by a constant, spelled with the
    fast ``//``."""
    q = v // base
    return q, v - q * base


def _scaled(a, k):
    """``(floor, d, unsure)`` of |x| 10**(16 - k) for positive ``a``: its
    integer part, its rounding to the nearest integer and whether its fraction
    lies within ``_TIE`` of 1/2."""
    hi, upper, lower, lo = (row[k + _K_LIMIT] for row in _POWERS)
    p = a * hi
    split = a * _SPLIT
    a_upper = split - (split - a)
    a_lower = a - a_upper
    rest = (((a_upper * upper - p) + a_upper * lower + a_lower * upper)
             + a_lower * lower) + a * lo
    whole = np.floor(rest)
    frac = rest - whole
    floor = p.astype(np.int64) + whole.astype(np.int64)
    return floor, floor + (frac > 0.5), np.abs(frac - 0.5) < _TIE


def _format_rows(block) -> bytes:
    """``'%.17g' % v`` of every entry of the float64 rows ``block``, joined by
    ``,`` and each row ended by a newline."""
    x = block.ravel()
    a = np.abs(x)
    fast = (a >= _FAST_MIN) & (a < _FAST_MAX)
    a = np.where(fast, a, 1e-5)
    k = np.floor(np.log10(a)).astype(np.int64)
    floor, d, unsure = _scaled(a, k)
    # log10 may miss k by one near a power of ten: redo those with k corrected
    redo = np.flatnonzero((floor < 10 ** 16) | (floor >= 10 ** 17))
    if redo.size:
        k[redo] += np.where(floor[redo] < 10 ** 16, -1, 1)
        floor[redo], d[redo], unsure[redo] = _scaled(a[redo], k[redo])
        unsure[redo] |= (floor[redo] < 10 ** 16) | (floor[redo] >= 10 ** 17)
    up = d == 10 ** 17
    d[up] = 10 ** 16
    k += up
    fast &= ~unsure & ((k < -4) | (k >= 17))
    d[~fast] = 10 ** 16

    upper, lower = _divmod(d, 10 ** 8)
    lead, upper = _divmod(upper, 10 ** 8)
    groups = _divmod(upper, 10 ** 4) + _divmod(lower, 10 ** 4)
    words = np.empty((7, x.size), np.uint32)  # one column per value
    stripped = np.ones(x.size, bool)  # every later group is zero
    for row in (4, 3, 2, 1):
        words[row] = _GROUPS[groups[row - 1] + 10000 * stripped]
        stripped &= groups[row - 1] == 0
    words[0] = _HEADS[lead + 10 * np.signbit(x) + 20 * stripped]
    exponent = k + _K_LIMIT + 1
    words[5] = _EXP_HEADS[exponent]
    words[6] = _EXP_TAILS[exponent]
    cols = block.shape[1]
    words[6, cols - 1::cols] = _EXP_TAILS_NL[exponent[cols - 1::cols]]

    slow = np.flatnonzero(~fast)
    if slow.size:
        text = b"".join(("%.17g" % v).encode().ljust(24, b"\0") for v in x[slow].tolist())
        words[:6, slow] = np.frombuffer(text, np.uint32).reshape(-1, 6).T
        words[6, slow] &= _SEPARATOR
    return words.T.tobytes().translate(None, b"\0")


def write_coherence_report(path, epsilon: float, pair, m: int, margin: float) -> None:
    """CSV report with the coherence, maximizing pair and the Theorem-1 margin
    of ``m`` scatterers (no margin row when ``m == 0``)."""
    with open(path, "w") as fh:
        fh.write("quantity,value\n")
        fh.write(f"coherence,{epsilon:.17g}\n")
        fh.write(f"argmax_i,{pair[0]}\n")
        fh.write(f"argmax_j,{pair[1]}\n")
        if m:
            fh.write(f"margin_m{m},{margin:.17g}\n")


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
                 "realizations,unconverged,errored\n")
        for row in rows:
            fh.write(f"{row['aperture']:.12g},{row['method']},"
                     f"{row['success_rate']:.12g},{row['mean_precision']:.12g},"
                     f"{row['mean_recall']:.12g},{row['realizations']},"
                     f"{row['unconverged']},{row['errored']}\n")


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
