"""Batch command-line driver.

Subcommands: folner, szego, trace, tensor, demo-shift, validate.
Exit codes: 0 success, 1 numerical failure, 2 configuration error or a
run too large for this machine's memory, 3 spec validation error.
"""
from __future__ import annotations

import argparse
import functools
import math
import sys
from pathlib import Path

import numpy as np

from ._util import VERSION, ConfigError, check_footprint, report_csv, report_json
from .diagnostics import folner_profile
from .operators import LatticeMismatchError, N0, Shift, Toeplitz
from .projections import RankZeroError, finite_section, finite_section_sequence
from .spectral import (
    ComplexSymbolError,
    NonHermitianError,
    ResidualError,
    reference_pushforward,
)
from .specio import SpecValidationError, load_spec_file
from .szego import MissingReferenceError, NotSelfAdjointError, monomial, szego_pair_test
from .szego import hat_family, moments_reference, polynomial_family
from .tensor import tensor_bound_check
from .traces import canonical_trace, represent_nc, trace_convergence_report


def parse_n_list(text: str):
    """Explicit '1,3,7' or dyadic rule 'dyadic:LO:HI' meaning 2^LO .. 2^HI,
    for 0 <= LO <= HI <= 62: a window of order 2^63 leaves the 64-bit
    indices, so larger exponents are refused before the list is built."""
    text = text.strip()
    try:
        if text.startswith("dyadic:"):
            _, lo, hi = text.split(":")
            lo, hi, ns = int(lo), int(hi), None
        else:
            ns = [int(x) for x in text.split(",") if x.strip()]
    except ValueError as exc:
        raise ConfigError(f"cannot parse n list {text!r}") from exc
    if ns is None:
        if not 0 <= lo <= hi <= 62:
            raise ConfigError(f"dyadic exponents must satisfy 0 <= LO <= HI <= 62, "
                              f"got {lo}:{hi}")
        ns = [2**k for k in range(lo, hi + 1)]
    if not ns or any(n <= 0 for n in ns) or any(b <= a for a, b in zip(ns, ns[1:])):
        raise ConfigError("n list must be strictly increasing and positive")
    return ns


def parse_p_list(text: str):
    """Schatten exponents '1,2': each 1 or 2, none repeated."""
    try:
        ps = tuple(int(x) for x in text.split(","))
    except ValueError as exc:
        raise ConfigError(f"cannot parse p list {text!r}") from exc
    if any(p not in (1, 2) for p in ps) or len(set(ps)) != len(ps):
        raise ConfigError("--p entries must be 1 or 2, each at most once")
    return ps


def _check_phi(phi: float):
    if not math.isfinite(phi):
        raise ConfigError("--phi must be finite")


def parse_f_family(text: str):
    """'poly:K' and/or 'hat:COUNT:LO:HI', comma separated, with K >= 0,
    COUNT >= 1 and LO < HI finite.  The monomials of poly:K hold
    (K + 1)(K + 2)/2 coefficients and the hats of hat:COUNT are COUNT
    objects, each checked against physical memory before any is built."""
    fam = []
    for part in text.split(","):
        part = part.strip()
        if not part:
            continue
        fields = part.split(":")
        try:
            if fields[0] == "poly":
                (degree,) = map(int, fields[1:])
                if degree < 0:
                    raise ConfigError(f"poly degree must be at least 0, got {part!r}")
                check_footprint(8 * (degree + 1) * (degree + 2) // 2,
                                f"the f family item {part!r}")
                fam.extend(monomial(k) for k in range(degree + 1))
            elif fields[0] == "hat":
                _, count, lo, hi = fields
                count, lo, hi = int(count), float(lo), float(hi)
                if count < 1:
                    raise ConfigError(f"hat count must be at least 1, got {part!r}")
                if not 0 < hi - lo < math.inf:
                    raise ConfigError(f"hat bounds must be finite with LO < HI, got {part!r}")
                # tracemalloc read a peak of 310 bytes a hat, from 10^3 to 10^6 hats
                check_footprint(310 * count, f"the f family item {part!r}")
                fam.extend(hat_family(lo, hi, count))
            else:
                raise ValueError
        except ConfigError:
            raise
        except (ValueError, IndexError) as exc:
            raise ConfigError(f"cannot parse f family item {part!r}") from exc
    if not fam:
        raise ConfigError("empty f family")
    return fam


def _emit(text: str, out: str):
    if out in (None, "-"):
        sys.stdout.write(text)
        if not text.endswith("\n"):
            sys.stdout.write("\n")
    else:
        try:
            Path(out).write_text(text, encoding="utf-8")
        except OSError as exc:
            raise ConfigError(f"cannot write {out}: {exc.strerror or exc}") from exc


def _load_operators(paths, phi: float = 0.0):
    """Returns list of (label, spec) plus the raw ncpoly payloads by label."""
    loaded, ncpolys = [], {}
    for path in paths:
        kind, value = load_spec_file(path)
        label = Path(path).stem
        if kind == "ncpoly":
            ncpolys[label] = value
            loaded.append((label, represent_nc(value, phi=phi)))
        elif kind == "operator":
            loaded.append((label, value))
        else:
            raise SpecValidationError(f"{path}: expected an operator spec, got a {kind}")
    return loaded, ncpolys


def _sequence_for(ops, n_list):
    lattices = {op.lattice for _, op in ops}
    if len(lattices) != 1:
        raise SpecValidationError("all operators in one run must share a lattice")
    return finite_section_sequence(lattices.pop(), n_list)


# -- subcommands ------------------------------------------------------------


def cmd_folner(args) -> int:
    p_list = parse_p_list(args.p)
    ops, _ = _load_operators(args.op)
    seq = _sequence_for(ops, parse_n_list(args.n))
    report = folner_profile(ops, seq, p_list=p_list)
    _emit(report.to_csv() if args.format == "csv" else report.to_json(), args.out)
    return 0


def _trace_references(ops, ncpolys) -> dict:
    """Reference traces by label: tau(a) of ncpoly specs, a_0 of Toeplitz ones."""
    refs = {}
    for label, op in ops:
        if label in ncpolys:
            refs[label] = canonical_trace(ncpolys[label])
        elif isinstance(op, Toeplitz):
            refs[label] = dict(op.coeffs).get(0, 0j)
    return refs


def cmd_szego(args) -> int:
    if args.nodes < 1:
        raise ConfigError("--nodes must be at least 1")
    if not 0 <= args.herm_tol < math.inf:
        raise ConfigError("--herm-tol must be a finite number >= 0")
    _check_phi(args.phi)
    ops, ncpolys = _load_operators(args.op, phi=args.phi)
    seq = _sequence_for(ops, parse_n_list(args.n))
    fam = parse_f_family(args.f) if args.f else None
    order = polynomial_family(fam)[1] if ncpolys else None

    refs = {}
    for label, op in ops:
        if label in ncpolys:
            refs[label] = moments_reference(ncpolys[label], order=order)
        elif isinstance(op, Toeplitz):
            refs[label] = reference_pushforward(op, grid_size=args.nodes)
        else:
            raise MissingReferenceError(
                f"no reference measure available for {label!r} "
                "(toeplitz and ncpoly specs only)"
            )

    report = szego_pair_test(ops, seq, refs, f_family=fam,
                             trace_refs=_trace_references(ops, ncpolys), sa_tol=args.herm_tol)
    if args.plot_out:
        _emit(report.plot_csv(), args.plot_out)
    _emit(report.to_csv() if args.format == "csv" else report.to_json(), args.out)
    return 0


def cmd_trace(args) -> int:
    _check_phi(args.phi)
    ops, ncpolys = _load_operators(args.op, phi=args.phi)
    seq = _sequence_for(ops, parse_n_list(args.n))
    report = trace_convergence_report(ops, seq, refs=_trace_references(ops, ncpolys))
    _emit(report.to_csv() if args.format == "csv" else report.to_json(), args.out)
    return 0


def cmd_tensor(args) -> int:
    loaded, _ = _load_operators([args.op_a, args.op_b])
    (label_a, op_a), (label_b, op_b) = loaded
    rows = []
    for n in parse_n_list(args.n):
        p = finite_section(op_a.lattice, n)
        q = finite_section(op_b.lattice, n)
        rec = tensor_bound_check(op_a, p, op_b, q)
        rows.append(
            {
                "label": f"{label_a}(x){label_b}",
                "n": n,
                "d_n": p.rank * q.rank,
                "lhs": rec.lhs,
                "middle": rec.middle,
                "rhs": rec.rhs,
                "slack": rec.slack,
            }
        )
    if args.format == "csv":
        _emit(report_csv(rows, ("label", "n", "d_n", "lhs", "middle", "rhs", "slack")), args.out)
    else:
        _emit(report_json({"rows": rows}), args.out)
    return 0


def cmd_demo_shift(args) -> int:
    """Print the unilateral-shift table: exact 1/sqrt(n+1) commutator decay."""
    lines = [
        f"folner-lab {VERSION} -- unilateral shift S on l2(N0), windows {{0..n}}",
        f"{'n':>6} {'d_n':>6} {'ratio_p2':>22} {'1/sqrt(n+1)':>22} {'qd_gap':>8}",
    ]
    seq = finite_section_sequence(N0, parse_n_list(args.n))
    for row in folner_profile([("shift", Shift())], seq, p_list=(2,)).rows:
        n, d, r, g = (row[c] for c in ("n", "d_n", "ratio", "qd_gap"))
        lines.append(
            f"{n:>6} {d:>6} {r:>22.16f} {1.0 / math.sqrt(n + 1):>22.16f} {g:>8.4f}"
        )
    lines.append("the Hilbert-Schmidt ratio vanishes while the operator-norm gap stays at 1")
    _emit("\n".join(lines) + "\n", args.out)
    return 0


def cmd_validate(args) -> int:
    bad = []
    for path in args.files:
        try:
            load_spec_file(path)
        except SpecValidationError as exc:
            bad.append(str(exc))
    if bad:
        for msg in bad:
            print(msg, file=sys.stderr)
        return 3
    print(f"{len(args.files)} spec file(s) valid")
    return 0


# -- parser -----------------------------------------------------------------


def build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(
        prog="folner-lab",
        description="Finite-section diagnostics, Szego-type spectral tests, trace estimates.",
        epilog="exit codes: 0 success, 1 numerical failure, 2 configuration error or a "
               "run too large for physical memory, 3 spec validation error",
    )
    ap.add_argument("--version", action="version", version=f"folner-lab {VERSION}")
    sub = ap.add_subparsers(dest="command", required=True)

    def common(p):
        p.add_argument("--format", choices=("json", "csv"), default="csv")
        p.add_argument("--out", default="-", help="output path, '-' for stdout")

    p = sub.add_parser("folner", help="commutator-norm ratio grid")
    p.add_argument("--op", action="append", required=True, help="operator spec file (repeatable)")
    p.add_argument("--n", required=True, help="'1,3,7' or 'dyadic:LO:HI'")
    p.add_argument("--p", default="1,2", help="Schatten exponents, e.g. '2' or '1,2'")
    common(p)
    p.set_defaults(func=cmd_folner)

    p = sub.add_parser("szego", help="empirical-vs-reference spectral integrals")
    p.add_argument("--op", action="append", required=True)
    p.add_argument("--n", required=True)
    p.add_argument("--f", default=None, help="'poly:K' and/or 'hat:COUNT:LO:HI'")
    p.add_argument("--nodes", type=int, default=1 << 16, help="pushforward quadrature nodes")
    p.add_argument("--phi", type=float, default=0.0, help="representation phase for ncpoly specs")
    p.add_argument("--herm-tol", type=float, default=1e-10)
    p.add_argument("--plot-out", default=None, help="write n-vs-error CSV here")
    common(p)
    p.set_defaults(func=cmd_szego)

    p = sub.add_parser("trace", help="normalized compression traces")
    p.add_argument("--op", action="append", required=True)
    p.add_argument("--n", required=True)
    p.add_argument("--phi", type=float, default=0.0)
    common(p)
    p.set_defaults(func=cmd_trace)

    p = sub.add_parser(
        "tensor", help="tensor-product off-corner bound records",
        description="Both sides of the Hilbert-Schmidt bound for P(x)Q, from one padded "
                    "section per factor; no Kronecker product is formed.  A factor section "
                    "too large for physical memory is a configuration error (exit 2).",
    )
    p.add_argument("--op-a", required=True)
    p.add_argument("--op-b", required=True)
    p.add_argument("--n", required=True)
    common(p)
    p.set_defaults(func=cmd_tensor)

    p = sub.add_parser("demo-shift", help="print the unilateral-shift ratio table")
    p.add_argument("--n", default="1,3,7,15,31,63,127", help="window orders for the table")
    p.add_argument("--out", default="-")
    p.set_defaults(func=cmd_demo_shift)

    p = sub.add_parser("validate", help="lint spec files")
    p.add_argument("files", nargs="+")
    p.set_defaults(func=cmd_validate)

    return ap


# one parser a process: building it costs about 1.6 ms, and parsing leaves
# it unchanged (each call gets fresh defaults and a fresh namespace)
_parser = functools.cache(build_parser)


def main(argv=None) -> int:
    args = _parser().parse_args(argv)
    # the subcommand is looked up by name at each call, so that a cmd_*
    # rebound after the parser was built (patched or wrapped) is what runs
    command = globals()[args.func.__name__]
    try:
        # overflow and invalid operations are numerical failures, not warnings
        with np.errstate(over="raise", invalid="raise"):
            return command(args)
    except (ConfigError, MemoryError) as exc:
        print(f"config error: {str(exc) or 'out of memory'}", file=sys.stderr)
        return 2
    except (
        SpecValidationError,
        RankZeroError,
        LatticeMismatchError,
        MissingReferenceError,
        NotSelfAdjointError,
        NonHermitianError,
        ComplexSymbolError,
    ) as exc:
        print(f"spec error: {exc}", file=sys.stderr)
        return 3
    except (ResidualError, np.linalg.LinAlgError, FloatingPointError) as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
