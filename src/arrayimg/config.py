"""Scenario configuration: INI files with [wave], [array], [window],
[scatterers], [medium], [solver] and [experiment] sections.

All lengths are in wavelength units; values suffixed ``l`` are multiples of
the medium correlation length (``25l``).  Each ``ScenarioConfig`` field
declares its section, its key and the parser that checks its range; the
README documents them.
"""

import configparser
import math
from dataclasses import dataclass, field, fields

from .errors import ConfigurationError
from .sparse_solvers import SolverParams


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
    """Parse ``central | random:<k> | optimal:<k>`` for an ``n``-element array
    into ``(kind, value)``; ``central`` carries its element index ``n // 2``.
    """
    text = str(spec).strip()
    if text == "central":
        return text, n // 2
    kind, _, value = text.partition(":")
    if kind in ("random", "optimal") and value.strip().isdecimal() \
            and 1 <= int(value) <= n:
        return kind, int(value)
    raise ConfigurationError(
        f"illumination spec {spec!r} is not central, random:<k> or optimal:<k> "
        f"(1 <= k <= {n})")


METHODS = ("smv", "mmv", "hybrid", "music", "km")


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


def _words(*words):
    return _checked(_text, f"one of {list(words)}", lambda v: v in words)


def _distinct(parse):
    """``parse`` of a list whose entries must differ: a repeated cell, method,
    aperture or delta would plant, run or write the same thing twice."""
    return _checked(parse, "free of repeated entries", lambda v: len(set(v)) == len(v))


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
    cells: list = _key("scatterers", _distinct(_cells), factory=list)
    magnitudes: list = _key("scatterers", _list(_positive), factory=list)  # |rho_j|
    medium_kind: str = _key("medium", _words("homogeneous", "random-phase"),
                            "homogeneous", key="kind")
    correlation_length: float | None = _key("medium", _positive)
    sigma: float = _key("medium", _nonnegative, 0.0)
    kernel: str = _key("medium", _words("gaussian", "power-law"), "gaussian")
    lattice_spacing: float | None = _key("medium", _positive)
    max_iterations: int = _key("solver", _count, SolverParams.max_iterations)
    tolerance: float = _key("solver", _positive, SolverParams.tolerance)
    support_threshold: float = _key("solver", _fraction, SolverParams.support_threshold)
    # at >= 1 the zero vector is feasible
    hybrid_delta_fraction: float = _key("solver", _fraction, 0.0)
    scenario_id: str = _key("experiment", _name, "scenario")
    seed: int = _key("experiment", _checked(_int, ">= 0", lambda v: v >= 0), 1)
    methods: list = _key("experiment", _checked(_distinct(_list(_words(*METHODS))),
                                                "non-empty", bool), factory=lambda: ["smv"])
    noise_percent: float = _key("experiment", _nonnegative, 0.0)
    forward: str = _key("experiment", _words("auto", "foldy-lax", "born"), "auto")
    illuminations: str = _key("experiment", _text, "central")  # checked against n
    known_rank: int | None = _key("experiment", _count)  # checked against n
    apertures: list = _key("experiment", _distinct(_list(_positive_length)), factory=list)
    realizations: int = _key(  # the Monte-Carlo minimum
        "experiment", _checked(_int, ">= 10", lambda v: v >= 10), 10)
    delta_grid: list = _key("experiment", _distinct(_list(_nonnegative)), factory=list)
    write_pgm: bool = _key("experiment", _boolean, False)
    raw_text: str = ""


# (section, key, name, parser) of every key, [medium] first: the lengths may be
# in its correlation-length units.
_TABLE = sorted([(f.metadata["section"], f.metadata["key"] or f.name, f.name,
                  f.metadata["parse"]) for f in fields(ScenarioConfig) if f.metadata],
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
    parser = configparser.ConfigParser(comment_prefixes=("#",), inline_comment_prefixes=("#",))
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
    cfg = ScenarioConfig(raw_text=text, **values)

    if cfg.medium_kind == "random-phase" and cfg.correlation_length is None:
        raise _invalid(parser, "medium", "kind", "needs [medium] correlation_length")
    if cfg.medium_kind == "random-phase" and cfg.forward == "foldy-lax":
        raise _invalid(parser, "experiment", "forward", "must be auto or born: the "
                       "[medium] kind = random-phase response is single scattering")
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
    if len(cfg.magnitudes) != len(cfg.cells):
        raise _invalid(parser, "scatterers", "magnitudes",
                       f"has {len(cfg.magnitudes)} entries for {len(cfg.cells)} cells")
    if cfg.known_rank is not None and cfg.known_rank > cfg.n:
        raise _invalid(parser, "experiment", "known_rank", f"exceeds [array] n = {cfg.n}")
    try:
        parse_illuminations(cfg.illuminations, cfg.n)
    except ConfigurationError as exc:
        raise _invalid(parser, "experiment", "illuminations", exc) from None
    return cfg
