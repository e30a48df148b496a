"""Checked config fields: each knob's range is written once, on its field.

The frozen configs and jobs of the serve, cluster and ops layers
declare numeric fields with :func:`knob` and registry names with
:func:`named`; :class:`Checked` runs :func:`check_knobs` when one is
built, so ``FaultConfig(error_rate=1.5)`` raises ``ValueError:
FaultConfig.error_rate=1.5 is outside [0, 1]``.  A knob that a sentinel
switches off (``brownout_tenant=-1``) carries that ``off`` value, which
lies outside its range.  Stdlib only, so any config module imports it.
"""

from __future__ import annotations

import difflib
import math
from dataclasses import MISSING, field, fields
from typing import Collection, Optional, Tuple

#: the spec-tuple form of literal params: ((name, value), ...)
Params = Tuple[Tuple[str, object], ...]


def knob(default=MISSING, lo=0, hi=math.inf, *, off=None, open_lo: bool = False):
    """A field whose value lies in ``[lo, hi]`` (``(lo, hi]`` when
    ``open_lo``) or equals ``off``; no ``default`` makes it required."""
    return field(default=default, metadata={"range": (lo, hi, open_lo), "off": off})


def named(default: str, kind: str, registry: Collection[str], *, off: Optional[str] = None):
    """A field whose value is a ``kind`` name in the live ``registry``, or ``off``."""
    return field(default=default, metadata={"names": (kind, registry), "off": off})


def unknown_name(kind: str, name: str, choices: Collection[str]) -> str:
    """``unknown <kind> <name>; available: [...]`` plus the nearest spelling."""
    message = f"unknown {kind} {name!r}; available: {sorted(choices)}"
    close = isinstance(name, str) and difflib.get_close_matches(name, list(choices), n=1)
    if close:
        message += f" (did you mean {close[0]!r}?)"
    return message


def check_knobs(config) -> None:
    """Raise ``ValueError`` naming the first field of ``config`` whose
    value its :func:`knob` range or :func:`named` registry rejects."""
    owner = type(config).__name__
    for f in fields(config):
        meta = f.metadata
        value = getattr(config, f.name)
        if not meta or (meta["off"] is not None and value == meta["off"]):
            continue
        if "names" in meta:
            kind, registry = meta["names"]
            if value not in registry:
                raise ValueError(f"{owner}.{f.name}: {unknown_name(kind, value, registry)}")
            continue
        lo, hi, open_lo = meta["range"]
        number = isinstance(value, (int, float)) and not isinstance(value, bool)
        if not (number and (lo < value if open_lo else lo <= value) and value <= hi):
            bounds = f"{'(' if open_lo else '['}{lo:g}, {hi:g}{')' if hi == math.inf else ']'}"
            off = "" if meta["off"] is None else f" (or {meta['off']!r} for off)"
            raise ValueError(f"{owner}.{f.name}={value!r} is outside {bounds}{off}")


class Checked:
    """Base of a frozen dataclass whose knobs are checked when it is built."""

    def __post_init__(self) -> None:
        check_knobs(self)
