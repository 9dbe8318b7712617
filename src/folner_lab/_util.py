"""Shared helpers: the version stamp, the configuration error and
deterministic report serialization."""
from __future__ import annotations

import io

VERSION = "0.1.0"


class ConfigError(ValueError):
    """Bad command-line configuration, or a run too large for this machine."""


def fmt_value(v) -> str:
    """Shortest round-trip text for report cells."""
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
