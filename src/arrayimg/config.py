"""Scenario configuration: INI files with [wave], [array], [window],
[scatterers], [medium], [solver] and [experiment] sections.

All lengths are in wavelength units; values suffixed ``l`` are multiples of
the medium correlation length (``25l``).  Key names are documented in the
README.
"""

import configparser
from dataclasses import dataclass, field

from .errors import ConfigurationError

__all__ = ["ScenarioConfig", "load_config", "parse_length", "parse_illuminations",
           "parse_methods"]


def parse_length(text, correlation_length=None) -> float:
    """Parse a length in wavelength units; trailing ``l`` means multiples of l."""
    s = str(text).strip()
    if s.endswith("lambda"):
        s = s[: -len("lambda")]
        return float(s)
    if s.endswith("l"):
        if correlation_length is None:
            raise ConfigurationError(
                f"length {text!r} uses correlation-length units but no "
                "correlation length is configured")
        return float(s[:-1]) * correlation_length
    return float(s)


def parse_illuminations(spec: str, n: int) -> tuple:
    """Parse ``central | element:<i> | random:<k> | optimal:<k>`` for an
    ``n``-element array into ``(kind, value)``; ``central`` carries ``n // 2``.
    """
    text = str(spec).strip()
    if text == "central":
        return text, n // 2
    kind, _, value = text.partition(":")
    low, high = (0, n - 1) if kind == "element" else (1, n)
    if kind in ("element", "random", "optimal") and value.strip().isdecimal() \
            and low <= int(value) <= high:
        return kind, int(value)
    raise ConfigurationError(
        f"illumination spec {spec!r} is not central, element:<i> (0 <= i < {n}), "
        f"random:<k> or optimal:<k> (1 <= k <= {n})")


METHODS = ("smv", "mmv", "hybrid", "music", "km")


def parse_methods(text) -> list:
    """Parse a comma list of imaging methods; unknown names and an empty list
    are rejected."""
    methods = [m.strip() for m in str(text).split(",") if m.strip()]
    unknown = sorted(set(methods) - set(METHODS))
    if unknown:
        raise ConfigurationError(f"unknown methods {unknown}; valid: {sorted(METHODS)}")
    if not methods:
        raise ConfigurationError(f"empty method list; valid: {sorted(METHODS)}")
    return methods


# every section and key load_config reads; anything else is rejected so that a
# misspelt key cannot silently leave its default in place
_KEYS = {
    "wave": {"wavelength"},
    "array": {"n", "aperture", "pitch"},
    "window": {"center_range", "rows", "cols", "spacing"},
    "scatterers": {"cells", "magnitudes", "phases"},
    "medium": {"kind", "correlation_length", "sigma", "kernel", "lattice_spacing"},
    "solver": {"max_iterations", "tolerance", "support_threshold", "delta_factor",
               "hybrid_delta_fraction"},
    "experiment": {"scenario_id", "seed", "methods", "noise_percent", "forward",
                   "illuminations", "km_illuminations", "rank_threshold", "known_rank",
                   "apertures", "realizations", "delta_grid", "write_pgm"},
}


def _check_keys(parser: configparser.ConfigParser):
    sections = parser.sections() + ([parser.default_section] if parser.defaults() else [])
    unknown = sorted(set(sections) - _KEYS.keys())
    if unknown:
        raise ConfigurationError(f"unknown sections {unknown}; valid: {sorted(_KEYS)}")
    for name in sections:
        unknown = sorted(set(parser[name]) - _KEYS[name])
        if unknown:
            raise ConfigurationError(
                f"unknown keys {unknown} in [{name}]; valid: {sorted(_KEYS[name])}")


def _floats(text):
    return [float(tok) for tok in str(text).replace(";", ",").split(",") if tok.strip()]


def _cells(text):
    cells = []
    for chunk in str(text).split(";"):
        chunk = chunk.strip()
        if not chunk:
            continue
        parts = chunk.split(",")
        if len(parts) != 2:
            raise ConfigurationError(f"scatterer cell {chunk!r} is not 'row,col'")
        cells.append((int(parts[0]), int(parts[1])))
    return cells


@dataclass
class ScenarioConfig:
    """Parsed scenario description (lengths already in wavelength units)."""

    # wave
    wavelength: float = 1.0
    # array
    n: int = 100
    pitch: float = 1.0
    # window
    center_range: float = 100.0
    rows: int = 41
    cols: int = 41
    spacing: float = 1.0
    # scatterers
    cells: list = field(default_factory=list)
    magnitudes: list = field(default_factory=list)
    phases: object = "random"  # "random" or list of radians
    # medium
    medium_kind: str = "homogeneous"  # or "random-phase"
    correlation_length: float | None = None
    sigma: float = 0.0
    kernel: str = "gaussian"
    lattice_spacing: float | None = None
    # solver
    max_iterations: int = 50_000
    tolerance: float = 1e-8
    support_threshold: float = 0.1
    delta_factor: float = 1.0
    hybrid_delta_fraction: float | None = None  # default depends on medium kind
    # experiment
    scenario_id: str = "scenario"
    seed: int = 1
    methods: list = field(default_factory=lambda: ["smv"])
    noise_percent: float = 0.0
    forward: str = "auto"  # foldy-lax | born | auto
    illuminations: str = "central"
    km_illuminations: str | None = None
    rank_threshold: float = 0.05
    known_rank: int | None = None
    apertures: list = field(default_factory=list)
    realizations: int = 10
    delta_grid: list = field(default_factory=list)
    write_pgm: bool = False
    raw_text: str = ""

    def resolved_hybrid_delta_fraction(self) -> float:
        if self.hybrid_delta_fraction is not None:
            return self.hybrid_delta_fraction
        if self.medium_kind == "random-phase":
            return 0.1
        return 0.02 if self.noise_percent > 0 else 0.0


def load_config(path) -> ScenarioConfig:
    parser = configparser.ConfigParser(inline_comment_prefixes=("#", ";"))
    with open(path) as fh:
        text = fh.read()
    parser.read_string(text)
    _check_keys(parser)
    cfg = ScenarioConfig(raw_text=text)

    if parser.has_section("medium"):
        sec = parser["medium"]
        cfg.medium_kind = sec.get("kind", cfg.medium_kind).strip()
        if "correlation_length" in sec:
            cfg.correlation_length = float(sec["correlation_length"])
        cfg.sigma = sec.getfloat("sigma", cfg.sigma)
        cfg.kernel = sec.get("kernel", cfg.kernel).strip()
        if "lattice_spacing" in sec:
            cfg.lattice_spacing = float(sec["lattice_spacing"])
    if cfg.medium_kind not in ("homogeneous", "random-phase"):
        raise ConfigurationError(f"unknown medium kind {cfg.medium_kind!r}")
    if cfg.medium_kind == "random-phase" and cfg.correlation_length is None:
        raise ConfigurationError("random-phase medium requires correlation_length")
    l = cfg.correlation_length

    if parser.has_section("wave"):
        cfg.wavelength = parser["wave"].getfloat("wavelength", cfg.wavelength)

    if parser.has_section("array"):
        sec = parser["array"]
        cfg.n = sec.getint("n", cfg.n)
        if "aperture" in sec:
            if cfg.n < 2:
                raise ConfigurationError("aperture-based layout needs n >= 2")
            cfg.pitch = parse_length(sec["aperture"], l) / (cfg.n - 1)
        elif "pitch" in sec:
            cfg.pitch = parse_length(sec["pitch"], l)

    if parser.has_section("window"):
        sec = parser["window"]
        cfg.center_range = parse_length(sec.get("center_range", cfg.center_range), l)
        cfg.rows = sec.getint("rows", cfg.rows)
        cfg.cols = sec.getint("cols", cfg.cols)
        cfg.spacing = parse_length(sec.get("spacing", cfg.spacing), l)

    if parser.has_section("scatterers"):
        sec = parser["scatterers"]
        cfg.cells = _cells(sec.get("cells", ""))
        cfg.magnitudes = _floats(sec.get("magnitudes", ""))
        phases = sec.get("phases", "random").strip()
        cfg.phases = "random" if phases == "random" else _floats(phases)
        if len(cfg.magnitudes) != len(cfg.cells):
            raise ConfigurationError("magnitudes count does not match cells count")
        if cfg.phases != "random" and len(cfg.phases) != len(cfg.cells):
            raise ConfigurationError("phases count does not match cells count")

    if parser.has_section("solver"):
        sec = parser["solver"]
        cfg.max_iterations = sec.getint("max_iterations", cfg.max_iterations)
        cfg.tolerance = sec.getfloat("tolerance", cfg.tolerance)
        cfg.support_threshold = sec.getfloat("support_threshold", cfg.support_threshold)
        cfg.delta_factor = sec.getfloat("delta_factor", cfg.delta_factor)
        if "hybrid_delta_fraction" in sec:
            cfg.hybrid_delta_fraction = sec.getfloat("hybrid_delta_fraction")

    if parser.has_section("experiment"):
        sec = parser["experiment"]
        cfg.scenario_id = sec.get("scenario_id", cfg.scenario_id).strip()
        cfg.seed = sec.getint("seed", cfg.seed)
        if "methods" in sec:
            cfg.methods = parse_methods(sec["methods"])
        cfg.noise_percent = sec.getfloat("noise_percent", cfg.noise_percent)
        cfg.forward = sec.get("forward", cfg.forward).strip()
        cfg.illuminations = sec.get("illuminations", cfg.illuminations).strip()
        if "km_illuminations" in sec:
            cfg.km_illuminations = sec["km_illuminations"].strip()
        cfg.rank_threshold = sec.getfloat("rank_threshold", cfg.rank_threshold)
        if sec.get("known_rank", "").strip():
            cfg.known_rank = sec.getint("known_rank")
        if "apertures" in sec:
            cfg.apertures = [parse_length(tok, l)
                             for tok in sec["apertures"].split(",") if tok.strip()]
        cfg.realizations = sec.getint("realizations", cfg.realizations)
        if "delta_grid" in sec:
            cfg.delta_grid = _floats(sec["delta_grid"])
        cfg.write_pgm = sec.getboolean("write_pgm", cfg.write_pgm)

    if cfg.delta_factor < 1.0:
        raise ConfigurationError("delta_factor must be >= 1")
    if cfg.forward not in ("auto", "foldy-lax", "born"):
        raise ConfigurationError(f"unknown forward model {cfg.forward!r}")
    for spec in (cfg.illuminations, cfg.km_illuminations):
        if spec is not None:
            parse_illuminations(spec, cfg.n)
    return cfg
