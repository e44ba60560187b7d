"""Plant/run configuration files.

The format is INI-style sections ([plant], [delay], [synthesis],
[simulation]) whose values are JSON literals, so matrices are written as
nested numeric arrays.  One file fully determines a reproducible run.
"""

from __future__ import annotations

import configparser
import json
from pathlib import Path

import numpy as np

from .delay import identity_delay, pade_delay
from .errors import ConfigError
from .model import UncertainPlant, augment_with_delay, build_compact, validate_plant
from .sim import SimConfig
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


def bundled_example_path() -> Path:
    """Path of the packaged phase-estimation configuration."""
    return Path(__file__).resolve().parent / "data" / "phase_estimation.cfg"


def load_config(path) -> dict:
    """Parse a configuration file into {section: {key: parsed value}}."""
    path = Path(path)
    if not path.is_file():
        raise ConfigError(f"configuration file not found: {path}")
    parser = configparser.ConfigParser(inline_comment_prefixes=("#", ";"))
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
                doc[section][key] = json.loads(raw)
            except json.JSONDecodeError as exc:
                raise ConfigError(
                    f"value of [{section}] {key} is not a JSON literal: {raw!r}"
                ) from exc
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
    order = int(sec.get("order", 2))
    delta = float(sec.get("delta", 0.0))
    if order == 0 or delta == 0.0:
        return identity_delay(int(sec.get("m", 1)))
    realization = sec.get("realization", "balanced")
    if paper_realization:
        realization = "paper"
    try:
        return pade_delay(order, delta, realization=realization)
    except ValueError as exc:
        raise ConfigError(f"[delay] invalid: {exc}") from exc


def scaling_from_config(doc: dict):
    """Pinned scaling point from [synthesis], or None when the point is to be
    optimized.  Also returns the optimizer settings dictionary."""
    sec = doc.get("synthesis", {})
    settings = {
        "tau_bounds": tuple(sec.get("tau_bounds", (1e-8, 1e-3))),
        "n_starts": int(sec.get("n_starts", 8)),
        "seed": int(sec.get("seed", 0)),
        "lam_high": float(sec.get("lambda_high", 1.0)),
    }
    if "tau" in sec and "lambda" in sec:
        point = ScalingPoint(lam=np.asarray(sec["lambda"], dtype=float),
                             tau=float(sec["tau"]))
        return point, settings
    return None, settings


def sim_from_config(doc: dict, **overrides) -> SimConfig:
    sec = dict(doc.get("simulation", {}))
    sec.update({k: v for k, v in overrides.items() if v is not None})
    known = {f for f in SimConfig.__dataclass_fields__}
    unknown = set(sec) - known
    if unknown:
        raise ConfigError(f"[simulation] unknown keys: {', '.join(sorted(unknown))}")
    try:
        cfg = SimConfig(**sec)
        cfg.validate()
    except (TypeError, ValueError) as exc:
        raise ConfigError(f"[simulation] invalid: {exc}") from exc
    lag = doc.get("delay", {}).get("delta")
    if "delta" in sec and lag is not None and cfg.delta != lag:
        raise ConfigError(f"[simulation] delta = {cfg.delta!r} is not the synthesized "
                          f"lag [delay] delta = {lag!r}")
    return cfg


def compact_from_config(doc: dict, paper_realization: bool = False):
    """Build the compact synthesis plant described by a configuration."""
    plant = plant_from_config(doc)
    dly = delay_from_config(doc, paper_realization=paper_realization)
    aug = augment_with_delay(plant, dly)
    sec = doc.get("synthesis", {})
    j21 = np.asarray(sec["j21"], dtype=float) if "j21" in sec else None
    d0 = float(sec.get("d0", 1e-9))
    return build_compact(aug, j21=j21, d0=d0)
