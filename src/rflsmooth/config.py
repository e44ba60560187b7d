"""Plant/run configuration files.

The format is INI-style sections ([plant], [delay], [synthesis],
[simulation]) whose values are JSON literals, so matrices are written as
nested numeric arrays.  One file fully determines a reproducible run.
"""

from __future__ import annotations

import configparser
import json
import math
from pathlib import Path

import numpy as np

from .delay import identity_delay, pade_delay
from .errors import ConfigError, DimensionError
from .model import UncertainPlant, augment_with_delay, build_compact, validate_plant
from .sim import SimConfig, homodyne_loop
from .synthesis import ScalingPoint

__all__ = [
    "load_config",
    "plant_from_config",
    "delay_from_config",
    "scaling_from_config",
    "sim_from_config",
    "compact_from_config",
    "bundled_example_path",
]

_PLANT_MATRIX_KEYS = {"a": "A", "b1": "B1", "c0": "C0", "c2": "C2", "d21": "D21"}
_PLANT_LIST_KEYS = {"b1_nl": "B1_nl", "b1_unc": "B1_unc", "c1_nl": "C1_nl",
                    "c1_unc": "C1_unc", "d21_nl": "D21_nl", "d21_unc": "D21_unc",
                    "s0": "S0"}

# Optional [simulation] physics keys: the entry that fixes each, and the value it
# implies given the loop constants and beta_slope, to be met within 1e-9 relative.
_SIM_PHYSICS = {
    "kappa": ("[plant] b1", lambda loop, beta: loop.sqrt_kappa ** 2),
    "lambda_ou": ("[plant] a", lambda loop, beta: loop.lam),
    "alpha": ("[plant] d21", lambda loop, beta: loop.two_ab / (2.0 * beta)),
    "gamma": ("[plant] c1_nl", lambda loop, beta: loop.two_ag * beta / loop.two_ab),
    "delta": ("[delay] delta", lambda loop, beta: loop.delta),
}


def bundled_example_path() -> Path:
    """Path of the packaged phase-estimation configuration."""
    return Path(__file__).resolve().parent / "data" / "phase_estimation.cfg"


def _finite(text: str) -> float:
    """A JSON number as a float; NaN, Infinity and a number beyond float range raise."""
    value = float(text)
    if not math.isfinite(value):
        raise ValueError(f"{text} is not a finite number")
    return value


def load_config(path) -> dict:
    """Parse a configuration file into {section: {key: parsed value}}.  Values are
    JSON literals (RFC 8259: every number finite), read as written: INI
    interpolation is off, so `%` is kept."""
    path = Path(path)
    if not path.is_file():
        raise ConfigError(f"configuration file not found: {path}")
    parser = configparser.ConfigParser(inline_comment_prefixes=("#", ";"), interpolation=None)
    try:
        with open(path, "r", encoding="utf-8") as fh:
            parser.read_file(fh)
    except (configparser.Error, OSError) as exc:
        raise ConfigError(f"cannot parse {path}: {exc}") from exc
    doc = {}
    for section in parser.sections():
        doc[section] = {}
        for key, raw in parser.items(section):
            try:
                doc[section][key] = json.loads(raw, parse_float=_finite, parse_constant=_finite)
            except json.JSONDecodeError as exc:
                raise ConfigError(
                    f"value of [{section}] {key} is not a JSON literal: {raw!r}"
                ) from exc
            except ValueError as exc:
                raise ConfigError(f"value of [{section}] {key} is not finite: {raw!r}") from exc
    return doc


def _require(doc: dict, section: str) -> dict:
    if section not in doc:
        raise ConfigError(f"missing required section [{section}]")
    return doc[section]


def plant_from_config(doc: dict) -> UncertainPlant:
    sec = _require(doc, "plant")
    missing = [k for k in _PLANT_MATRIX_KEYS if k not in sec]
    if missing:
        raise ConfigError(f"[plant] missing matrices: {', '.join(missing)}")
    kwargs = {field: np.asarray(sec[k], dtype=float)
              for k, field in _PLANT_MATRIX_KEYS.items()}
    for key, field in _PLANT_LIST_KEYS.items():
        if key in sec:
            kwargs[field] = tuple(np.asarray(m, dtype=float) for m in sec[key])
    if "beta" in sec:
        kwargs["beta"] = tuple(float(b) for b in sec["beta"])
    try:
        plant = UncertainPlant(**kwargs)
    except (ValueError, TypeError) as exc:
        raise ConfigError(f"[plant] is inconsistent: {exc}") from exc
    issues = validate_plant(plant)
    if issues:
        raise ConfigError("[plant] failed validation: " + "; ".join(issues))
    return plant


def delay_from_config(doc: dict, paper_realization: bool = False):
    sec = doc.get("delay", {})
    try:
        order = int(sec.get("order", 2))
        delta = float(sec.get("delta", 0.0))
        if order == 0 or delta == 0.0:
            return identity_delay(int(sec.get("m", 1)))
        realization = "paper" if paper_realization else sec.get("realization", "balanced")
        return pade_delay(order, delta, realization=realization)
    except (TypeError, ValueError) as exc:
        raise ConfigError(f"[delay] invalid: {exc}") from exc


def scaling_from_config(doc: dict, ktilde: int = None):
    """Pinned scaling point from [synthesis], or None when the point is to be
    optimized.  Also returns the optimizer settings dictionary.  With the
    plant's `ktilde`, a pinned lambda must have that many entries."""
    sec = doc.get("synthesis", {})
    try:
        settings = {
            "tau_bounds": tuple(float(t) for t in sec.get("tau_bounds", (1e-8, 1e-3))),
            "n_starts": int(sec.get("n_starts", 8)),
            "seed": int(sec.get("seed", 0)),
            "lam_high": float(sec.get("lambda_high", 1.0)),
        }
        point = None
        if "tau" in sec and "lambda" in sec:
            point = ScalingPoint(lam=np.asarray(sec["lambda"], dtype=float),
                                 tau=float(sec["tau"]))
    except (TypeError, ValueError) as exc:
        raise ConfigError(f"[synthesis] invalid: {exc}") from exc
    bounds = settings["tau_bounds"]
    for ok, problem in (
            (len(bounds) == 2 and 0 < bounds[0] < bounds[-1] < math.inf,
             f"tau_bounds = {list(bounds)} is not [low, high] with 0 < low < high"),
            (settings["n_starts"] >= 1, f"n_starts = {settings['n_starts']} is below 1"),
            (settings["seed"] >= 0, f"seed = {settings['seed']} is negative"),
            (settings["lam_high"] > 0, f"lambda_high = {settings['lam_high']} is not positive"),
            (point is None or ktilde is None or point.lam.size == ktilde,
             f"lambda has {0 if point is None else point.lam.size} entries, "
             f"the plant has {ktilde} scalings")):
        if not ok:
            raise ConfigError(f"[synthesis] {problem}")
    return point, settings


def sim_from_config(doc: dict, compact, **overrides) -> SimConfig:
    """[simulation] settings for runs of the compact plant's loop; the
    physics keys it restates must agree with it (_SIM_PHYSICS)."""
    sec = dict(doc.get("simulation", {}))
    sec.update({k: v for k, v in overrides.items() if v is not None})
    unknown = set(sec) - set(SimConfig.__dataclass_fields__) - set(_SIM_PHYSICS)
    if unknown:
        raise ConfigError(f"[simulation] unknown keys: {', '.join(sorted(unknown))}")
    physics = {key: sec.pop(key) for key in _SIM_PHYSICS if key in sec}
    try:
        cfg = SimConfig(**sec)
        cfg.validate()
    except (TypeError, ValueError) as exc:
        raise ConfigError(f"[simulation] invalid: {exc}") from exc
    try:
        loop = homodyne_loop(compact)
    except ValueError as exc:
        raise ConfigError(f"[plant] cannot be simulated: {exc}") from exc
    for key, value in physics.items():
        source, implied = _SIM_PHYSICS[key]
        want = implied(loop, cfg.beta_slope)
        if not (isinstance(value, (int, float)) and math.isclose(value, want, rel_tol=1e-9)):
            raise ConfigError(f"[simulation] {key} = {value!r} contradicts {source}, "
                              f"which gives {key} = {want!r}")
    try:
        cfg.lag_steps(loop.delta)
    except ValueError as exc:
        raise ConfigError(f"[delay] delta does not fit [simulation] horizon: {exc}") from exc
    return cfg


def compact_from_config(doc: dict, paper_realization: bool = False):
    """Build the compact synthesis plant described by a configuration."""
    plant = plant_from_config(doc)
    dly = delay_from_config(doc, paper_realization=paper_realization)
    try:
        aug = augment_with_delay(plant, dly)
    except DimensionError as exc:
        raise ConfigError(f"[delay] does not fit [plant] c0: {exc}") from exc
    sec = doc.get("synthesis", {})
    try:
        j21 = np.asarray(sec["j21"], dtype=float) if "j21" in sec else None
        return build_compact(aug, j21=j21, d0=float(sec.get("d0", 1e-9)))
    except (DimensionError, TypeError, ValueError) as exc:
        raise ConfigError(f"[synthesis] invalid: {exc}") from exc
