"""Shared helpers: numpy on first use, the version stamp, the errors the
command line maps to exit codes, the memory guard and deterministic report
serialization."""
from __future__ import annotations

import cmath
import importlib.util
import io
import json
import os
import sys

VERSION = "0.1.0"


def lazy_numpy():
    """numpy: the module itself where it is imported already, else one
    installed in sys.modules that runs numpy's import on its first
    attribute access (`importlib.util.LazyLoader`).  A run that reads no
    numpy attribute, such as `validate` on most spec kinds, never pays for
    numpy's import, about two thirds of the command line's start-up."""
    np = sys.modules.get("numpy")
    if np is None:
        spec = importlib.util.find_spec("numpy")
        if spec is None:
            raise ModuleNotFoundError("No module named 'numpy'", name="numpy")
        spec.loader = importlib.util.LazyLoader(spec.loader)
        np = sys.modules["numpy"] = importlib.util.module_from_spec(spec)
        spec.loader.exec_module(np)
    return np


class ConfigError(ValueError):
    """Bad command-line configuration, or a run too large for this machine."""


class SpecError(ValueError):
    """A spec the run cannot use, invalid or outside what a command covers:
    the command line's exit code 3."""


class ResidualError(ArithmeticError):
    """A solve broke the backward-stability contract, 1e-9 * scale * sqrt(d):
    an eigenpair residual of a dense solve, or a Sturm count of a
    tridiagonal one (`spectral._check_sturm`), left an eigenvalue farther
    than that from the compression's.  The command line's exit code 1."""


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
