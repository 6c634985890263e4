"""Scenario configuration: INI files with [wave], [array], [window],
[scatterers], [medium], [solver] and [experiment] sections.

All lengths are in wavelength units; values suffixed ``l`` are multiples of
the medium correlation length (``25l``).  Each ``ScenarioConfig`` field
declares its section, its key and the parser that checks its range; the
README documents them.
"""

import configparser
import math
from dataclasses import dataclass, field, fields, replace

from .errors import ConfigurationError

__all__ = ["ScenarioConfig", "load_config", "parse_length", "parse_illuminations",
           "parse_methods"]


def _finite(value: float) -> float:
    if not math.isfinite(value):
        raise ValueError("must be a finite number")
    return value


def parse_length(text, correlation_length=None) -> float:
    """Parse a finite length in wavelength units; trailing ``l`` means
    multiples of l."""
    s = str(text).strip()
    if s.endswith("l"):
        if correlation_length is None:
            raise ConfigurationError(
                f"length {text!r} uses correlation-length units but no "
                "correlation length is configured")
        return _finite(float(s[:-1]) * correlation_length)
    return _finite(float(s))


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


# Each parser takes the raw value and the correlation length (for lengths in
# ``l`` units) and raises ValueError on a value it does not accept.

def _plain(convert):
    return lambda text, l: convert(text)


def _checked(convert, rule: str, ok):
    def parse(text, l):
        value = convert(text, l)
        if not ok(value):
            raise ValueError(f"must be {rule}")
        return value
    return parse


def _list(item):
    """Comma or semicolon list of ``item`` values."""
    return lambda text, l: [item(tok, l) for tok in text.replace(";", ",").split(",")
                            if tok.strip()]


def _cells(text, l):
    cells = [tuple(int(i) for i in chunk.split(",")) for chunk in text.split(";")
             if chunk.strip()]
    if any(len(cell) != 2 for cell in cells):
        raise ValueError("must be 'row,col' pairs separated by ';'")
    return cells


def _phases(text, l):
    return "random" if text == "random" else _list(_float)(text, l)


def _words(*words):
    return _checked(_text, f"one of {list(words)}", lambda v: v in words)


_int, _text = _plain(int), _plain(str.strip)
_float = _plain(lambda text: _finite(float(text)))
_count = _checked(_int, ">= 1", lambda v: v >= 1)
_positive = _checked(_float, "> 0", lambda v: v > 0)
_positive_length = _checked(parse_length, "> 0", lambda v: v > 0)
_nonnegative = _checked(_float, ">= 0", lambda v: v >= 0)
_fraction = _checked(_float, "in [0, 1)", lambda v: 0 <= v < 1)
_boolean = _checked(_plain(lambda text: configparser.ConfigParser.BOOLEAN_STATES.get(
    text.lower())), "true or false", lambda v: v is not None)
# run directories are out_dir/<scenario_id>/<seed>
_name = _checked(_text, "one directory name",
                 lambda v: v not in ("", ".", "..") and not {"/", "\\"} & set(v))


def _key(section, parse, default=None, *, key=None, factory=None):
    """Field read from ``[section] key`` (the field name unless ``key``)."""
    meta = {"section": section, "key": key, "parse": parse}
    if factory is not None:
        return field(default_factory=factory, metadata=meta)
    return field(default=default, metadata=meta)


@dataclass(frozen=True)
class ScenarioConfig:
    """Parsed scenario description (lengths already in wavelength units)."""

    wavelength: float = _key("wave", _positive, 1.0)
    n: int = _key("array", _count, 100)
    pitch: float = _key("array", _positive_length, 1.0)
    center_range: float = _key("window", parse_length, 100.0)
    rows: int = _key("window", _count, 41)
    cols: int = _key("window", _count, 41)
    spacing: float = _key("window", _positive_length, 1.0)
    cells: list = _key("scatterers", _cells, factory=list)
    magnitudes: list = _key("scatterers", _list(_float), factory=list)
    phases: object = _key("scatterers", _phases, "random")  # or list of radians
    medium_kind: str = _key("medium", _words("homogeneous", "random-phase"),
                            "homogeneous", key="kind")
    correlation_length: float | None = _key("medium", _positive)
    sigma: float = _key("medium", _nonnegative, 0.0)
    kernel: str = _key("medium", _words("gaussian", "power-law"), "gaussian")
    lattice_spacing: float | None = _key("medium", _positive)
    max_iterations: int = _key("solver", _count, 50_000)
    tolerance: float = _key("solver", _positive, 1e-8)
    support_threshold: float = _key("solver", _fraction, 0.1)
    # default depends on medium kind; at >= 1 the zero vector is feasible
    hybrid_delta_fraction: float | None = _key("solver", _fraction)
    scenario_id: str = _key("experiment", _name, "scenario")
    seed: int = _key("experiment", _checked(_int, ">= 0", lambda v: v >= 0), 1)
    methods: list = _key("experiment", _plain(parse_methods), factory=lambda: ["smv"])
    noise_percent: float = _key("experiment", _nonnegative, 0.0)
    forward: str = _key("experiment", _words("auto", "foldy-lax", "born"), "auto")
    illuminations: str = _key("experiment", _text, "central")  # checked against n
    km_illuminations: str | None = _key("experiment", _text)
    known_rank: int | None = _key("experiment", _count)  # checked against n
    apertures: list = _key("experiment", _list(_positive_length), factory=list)
    realizations: int = _key(  # the Monte-Carlo minimum
        "experiment", _checked(_int, ">= 10", lambda v: v >= 10), 10)
    delta_grid: list = _key("experiment", _list(_nonnegative), factory=list)
    write_pgm: bool = _key("experiment", _boolean, False)
    raw_text: str = ""

    def resolved_hybrid_delta_fraction(self) -> float:
        if self.hybrid_delta_fraction is not None:
            return self.hybrid_delta_fraction
        if self.medium_kind == "random-phase":
            return 0.1
        return 0.02 if self.noise_percent > 0 else 0.0


# (section, key, name, parser) of every key, [medium] first: the lengths may be
# in its correlation-length units.  [array] aperture is the one key that is
# not a field: it sets pitch to aperture / (n - 1).
_TABLE = sorted([(f.metadata["section"], f.metadata["key"] or f.name, f.name,
                  f.metadata["parse"]) for f in fields(ScenarioConfig) if f.metadata]
                + [("array", "aperture", "aperture", _positive_length)],
                key=lambda row: row[0] != "medium")
_KNOWN = {section: {row[1] for row in _TABLE if row[0] == section}
          for section, *_ in _TABLE}


def _invalid(parser, section, key, reason) -> ConfigurationError:
    raw = parser.get(section, key, raw=True, fallback="")
    return ConfigurationError(f"[{section}] {key} = {raw!r}: {reason}")


def load_config(path, overrides=None) -> ScenarioConfig:
    """Read a scenario INI; an unknown key or a bad value raises
    ``ConfigurationError`` naming it.

    ``overrides`` maps field names to values that replace the file's, as if
    written there, so they pass the same parsers and checks.
    """
    parser = configparser.ConfigParser(inline_comment_prefixes=("#", ";"))
    with open(path) as fh:
        text = fh.read()
    try:
        parser.read_string(text)
    except configparser.Error as exc:
        raise ConfigurationError(f"malformed INI: {exc}") from exc
    for name, value in (overrides or {}).items():
        section, key = next(row[:2] for row in _TABLE if row[2] == name)
        if not parser.has_section(section):
            parser.add_section(section)
        parser.set(section, key, str(value).replace("%", "%%"))
    # a misspelt key must not silently leave its default in place
    sections = parser.sections() + ([parser.default_section] if parser.defaults() else [])
    unknown = sorted(set(sections) - _KNOWN.keys())
    if unknown:
        raise ConfigurationError(f"unknown sections {unknown}; valid: {sorted(_KNOWN)}")
    for name in sections:
        unknown = sorted(set(parser[name]) - _KNOWN[name])
        if unknown:
            raise ConfigurationError(
                f"unknown keys {unknown} in [{name}]; valid: {sorted(_KNOWN[name])}")

    values = {}
    for section, key, name, parse in _TABLE:
        if parser.has_option(section, key):
            try:
                values[name] = parse(parser.get(section, key),
                                     values.get("correlation_length"))
            except (ValueError, configparser.Error) as exc:
                raise _invalid(parser, section, key, exc) from exc
    aperture = values.pop("aperture", None)
    cfg = ScenarioConfig(raw_text=text, **values)

    if cfg.medium_kind == "random-phase" and cfg.correlation_length is None:
        raise _invalid(parser, "medium", "kind", "needs [medium] correlation_length")
    if cfg.medium_kind == "random-phase" and cfg.forward == "foldy-lax":
        raise _invalid(parser, "experiment", "forward", "must be auto or born: the "
                       "[medium] kind = random-phase response is single scattering")
    if aperture is not None:
        if cfg.n < 2:
            raise _invalid(parser, "array", "aperture", "needs [array] n >= 2")
        cfg = replace(cfg, pitch=aperture / (cfg.n - 1))
    if cfg.apertures and cfg.n < 2:
        raise _invalid(parser, "experiment", "apertures", "needs [array] n >= 2")
    nearest = cfg.center_range - (cfg.rows - 1) / 2 * cfg.spacing
    if nearest <= 0:
        raise _invalid(parser, "window", "center_range",
                       f"puts the nearest window row at range {nearest:g}, "
                       "on or behind the array")
    # the same bound as RandomMediumSpec, which checks it for library callers
    if cfg.lattice_spacing is not None and cfg.correlation_length is not None \
            and cfg.lattice_spacing > cfg.correlation_length / 5.0 + 1e-12:
        raise _invalid(parser, "medium", "lattice_spacing", "exceeds [medium] "
                       f"correlation_length / 5 = {cfg.correlation_length / 5.0:g}")
    outside = [cell for cell in cfg.cells
               if not (0 <= cell[0] < cfg.rows and 0 <= cell[1] < cfg.cols)]
    if outside:
        raise _invalid(parser, "scatterers", "cells",
                       f"{outside} outside the [window] rows x cols = "
                       f"{cfg.rows} x {cfg.cols} lattice")
    repeated = sorted({cell for cell in cfg.cells if cfg.cells.count(cell) > 1})
    if repeated:
        raise _invalid(parser, "scatterers", "cells", f"repeats {repeated}")
    for key in ("magnitudes", "phases"):
        got = getattr(cfg, key)
        if got != "random" and len(got) != len(cfg.cells):
            raise _invalid(parser, "scatterers", key,
                           f"has {len(got)} entries for {len(cfg.cells)} cells")
    if cfg.known_rank is not None and cfg.known_rank > cfg.n:
        raise _invalid(parser, "experiment", "known_rank", f"exceeds [array] n = {cfg.n}")
    for key in ("illuminations", "km_illuminations"):
        if getattr(cfg, key) is not None:
            try:
                parse_illuminations(getattr(cfg, key), cfg.n)
            except ConfigurationError as exc:
                raise _invalid(parser, "experiment", key, exc) from None
    return cfg
