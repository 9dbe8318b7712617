"""Shared helpers: the version stamp, the configuration error, the memory
guard and deterministic report serialization."""
from __future__ import annotations

import cmath
import io
import json
import os

VERSION = "0.1.0"


class ConfigError(ValueError):
    """Bad command-line configuration, or a run too large for this machine."""


def _physical_memory():
    """Bytes of physical memory, or None where the platform does not say."""
    try:
        return os.sysconf("SC_PAGE_SIZE") * os.sysconf("SC_PHYS_PAGES")
    except (AttributeError, OSError, ValueError):
        return None


def check_footprint(nbytes: int, what: str):
    """ConfigError when `what` needs more than physical memory; called
    before anything of that size is allocated."""
    have = _physical_memory()
    if have is not None and nbytes > have:
        raise ConfigError(
            f"{what} needs about {nbytes / 2**30:.1f} GiB, more than the "
            f"{have / 2**30:.1f} GiB of physical memory"
        )


def fmt_value(v) -> str:
    """Shortest round-trip text for report cells; FloatingPointError for a
    number that is not finite."""
    if isinstance(v, (float, complex)) and not cmath.isfinite(v):
        raise FloatingPointError(f"a report value is not finite: {v!r}")
    if isinstance(v, float):
        return repr(v)
    if isinstance(v, complex):
        return f"{v.real!r}{'+' if v.imag >= 0 else '-'}{abs(v.imag)!r}j"
    return str(v)


def report_csv(rows, columns) -> str:
    """CSV with a version-stamp comment line; body is byte-stable."""
    buf = io.StringIO()
    buf.write(f"# folner-lab {VERSION}\n")
    buf.write(",".join(columns) + "\n")
    for row in rows:
        buf.write(",".join(fmt_value(row.get(c, "")) for c in columns) + "\n")
    return buf.getvalue()


def report_json(payload) -> str:
    """Indented JSON with sorted keys; FloatingPointError for a number that
    is not finite, which JSON cannot hold."""
    try:
        return json.dumps(payload, indent=2, sort_keys=True, allow_nan=False)
    except ValueError as exc:
        raise FloatingPointError(f"a report value is not finite ({exc})") from exc
