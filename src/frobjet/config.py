"""Config-file and catalog loading.

Tower parameters come from flat key=value files ('#' starts a comment):

    p = 7
    l = 2
    m = 1
    f = 1
    K = 12

Curve catalogs are JSON arrays of {label, p, a4, a6}; the packaged default
covers the primes the verification suites run at.
"""

from __future__ import annotations

import json
from importlib import resources

from .errors import ConfigError, UnknownCurve
from .formal import WeierstrassCurve
from .tower import TowerConfig


def parse_keyvalue(text: str) -> dict:
    out = {}
    for lineno, raw in enumerate(text.splitlines(), 1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ConfigError(f"line {lineno}: expected key = value")
        key, val = line.split("=", 1)
        out[key.strip()] = val.strip()
    return out


def parse_int(text: str, what: str) -> int:
    """``int(text)``, with a malformed value reported as a ConfigError."""
    try:
        return int(text)
    except ValueError:
        raise ConfigError(f"{what} must be an integer, not {text!r}") from None


def tower_config_from_text(text: str) -> TowerConfig:
    kv = parse_keyvalue(text)
    try:
        return TowerConfig(**{k: parse_int(kv[k], k)
                              for k in ("p", "l", "m", "f", "K")})
    except KeyError as missing:
        raise ConfigError(f"config is missing {missing}") from None


def tower_config_from_file(path: str) -> TowerConfig:
    with open(path) as fh:
        return tower_config_from_text(fh.read())


def load_curve_catalog(path: str | None = None) -> list:
    if path is None:
        raw = resources.files("frobjet.data").joinpath(
            "curves.json").read_text()
    else:
        with open(path) as fh:
            raw = fh.read()
    try:
        entries = [(e["p"], e["a4"], e["a6"], e.get("label", ""))
                   for e in json.loads(raw)]
    except (ValueError, KeyError, TypeError) as exc:
        raise ConfigError(f"malformed curve catalog: {exc!r}") from None
    return [WeierstrassCurve(p=p, a4=a4, a6=a6, label=label)
            for p, a4, a6, label in entries]


def find_curve(catalog: list, label: str) -> WeierstrassCurve:
    for c in catalog:
        if c.label == label:
            return c
    raise UnknownCurve(f"no curve labeled {label!r} in the catalog")
