"""The four workloads: CLI invocations and the checks run on their outputs.

Each invocation is an argv for `folner_lab.cli.main` plus a check that
compares the captured output against values from `oracles` (computed once,
when the plan is built).  Every workload ends with the same smoke round of
tiny invocations, one per subcommand, so that every layer runs on every
workload and no per-layer figure is an unmeasured zero.
"""
from __future__ import annotations

import json
import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

import gen
import oracles as orc

WORKLOADS = ("szego-spectral", "poly-sections", "banded-grid", "tensor-bound")
NODES = 1 << 16  # the CLI's default pushforward grid


def dyadic(lo: int, hi: int) -> list:
    return [2**k for k in range(lo, hi + 1)]


# window lists per workload: (full, quick)
SIZES = {
    "szego-spectral": {
        "hopping": ([256, 1024, 2048], [8, 32]),
        "symbols": ([32, 128, 512], [8, 32]),
        "harper": ([32, 128, 256], [4, 16]),
    },
    "poly-sections": {
        "normal": ([64, 256, 1024, 2048], [4, 16]),
        "n0": ([16, 64, 256, 1024], [4, 16]),
        "z": ([8, 32, 128, 512], [2, 8]),
    },
    "banded-grid": {
        "n0": (dyadic(0, 17), dyadic(0, 6)),
        "z": (dyadic(0, 16), dyadic(0, 5)),
        "trace": (dyadic(4, 18), dyadic(4, 7)),
        "demo": (dyadic(0, 12), dyadic(0, 5)),
    },
    "tensor-bound": {
        "n0": ([3, 7, 15, 31, 62], [1, 3, 7]),
        "z": ([3, 7, 15, 30], [1, 3]),
    },
}


class Checker:
    """Counts checks and keeps a message for each one that fails."""

    def __init__(self):
        self.count = 0
        self.failures = []

    def ok(self, cond, what: str):
        self.count += 1
        if not cond:
            self.failures.append(what)

    def close(self, what: str, got, want, rtol=1e-9, atol=1e-12):
        good = abs(got - want) <= atol + rtol * abs(want)
        self.ok(good, f"{what}: got {got!r}, want {want!r}")


@dataclass
class Invocation:
    argv: list
    check: Callable  # (stdout text, Checker) -> None


def _csv(text: str) -> list:
    lines = text.splitlines()
    if not lines or not lines[0].startswith("# folner-lab"):
        raise ValueError("missing version stamp line")
    cols = lines[1].split(",")
    return [dict(zip(cols, line.split(","))) for line in lines[2:]]


def _checked(parse, body):
    """Wrap a check so that unparsable output counts as one failed check."""
    def check(text, ck):
        try:
            data = parse(text)
        except (ValueError, KeyError, IndexError) as exc:
            ck.ok(False, f"unparsable output: {exc!r}")
            return
        body(data, ck)
    return check


class Plan:
    def __init__(self, paths: dict, docs: dict):
        self.paths, self.docs = paths, docs
        self.invocations = []

    def _ops(self, labels, flag="--op"):
        argv = []
        for label in labels:
            argv += [flag, self.paths[label]]
        return argv

    # -- folner ---------------------------------------------------------------

    def folner(self, labels, ns):
        expect = {(lab, n): orc.folner_row(self.docs[lab], n) for lab in labels for n in ns}
        closed = {}
        for lab in labels:  # closed forms for the l2(N0) leaves
            doc = self.docs[lab]
            for n in ns:
                if doc["kind"] == "toeplitz":
                    closed[(lab, n, 2)] = orc.n0_toeplitz_ratio_p2(doc["coeffs"], n)
                elif doc["kind"] == "shift":
                    w = abs(orc._cplx(doc.get("weight", 1.0)))
                    closed[(lab, n, 2)] = w / math.sqrt(n + 1)
                    closed[(lab, n, 1)] = w / (n + 1)
                elif lab == "normal_poly":  # S*S - I is zero on l2(N0)
                    closed[(lab, n, 1)] = closed[(lab, n, 2)] = 0.0

        def body(rows, ck):
            ck.ok(len(rows) == 2 * len(expect), f"folner row count {len(rows)}")
            for r in rows:
                n, p = int(r["n"]), int(r["p"])
                exp = expect.get((r["label"], n))
                if exp is None:
                    ck.ok(False, f"unexpected folner row {r}")
                    continue
                where = f"folner {r['label']} n={n} p={p}"
                ck.ok(int(r["d_n"]) == exp["d_n"], f"{where} d_n {r['d_n']}")
                ck.close(f"{where} ratio", float(r["ratio"]), exp[p][0])
                ck.close(f"{where} off_corner", float(r["off_corner"]), exp[p][1])
                ck.close(f"{where} qd_gap", float(r["qd_gap"]), exp["qd_gap"])
                if (r["label"], n, p) in closed:
                    ck.close(f"{where} closed form", float(r["ratio"]),
                             closed[(r["label"], n, p)])

        self.invocations.append(Invocation(
            ["folner", *self._ops(labels), "--n", _nlist(ns), "--p", "1,2"],
            _checked(_csv, body)))

    # -- trace ----------------------------------------------------------------

    def trace(self, labels, ns):
        expect = {(lab, n): orc.trace_estimate(self.docs[lab], n) for lab in labels for n in ns}
        refs = {lab: self._trace_ref(lab) for lab in labels}

        def body(rows, ck):
            ck.ok(len(rows) == len(expect), f"trace row count {len(rows)}")
            for r in rows:
                n = int(r["n"])
                want = expect.get((r["label"], n))
                if want is None:
                    ck.ok(False, f"unexpected trace row {r}")
                    continue
                _check_trace_row(r, want, refs[r["label"]], ck)

        self.invocations.append(Invocation(
            ["trace", *self._ops(labels), "--n", _nlist(ns)], _checked(_csv, body)))

    def _trace_ref(self, label):
        doc = self.docs[label]
        if doc["kind"] == "toeplitz":
            return orc._cplx(doc["coeffs"].get("0", 0.0))
        if doc["kind"] == "ncpoly":
            return sum((orc._cplx(t["coeff"]) for t in doc["terms"] if t["m"] == t["k"] == 0), 0j)
        return None

    # -- szego ----------------------------------------------------------------

    def szego(self, labels, ns, degree, hats=None, phi=0.0):
        f_spec = f"poly:{degree}"
        fam = {}
        if hats is not None:
            count, lo, hi = hats
            f_spec += f",hat:{count}:{lo!r}:{hi!r}"
            fam = orc.hat_family(lo, hi, count)
        expect = {lab: {n: self._szego_expect(lab, n, degree, fam, phi) for n in ns}
                  for lab in labels}

        def body(rep, ck):
            nrows = sum(len(e["rows"]) for per in expect.values() for e in per.values())
            ck.ok(len(rep["rows"]) == nrows, f"szego row count {len(rep['rows'])}")
            for r in rep["rows"]:
                e = expect.get(r["label"], {}).get(r["n"])
                if e is None or r["f"] not in e["rows"]:
                    ck.ok(False, f"unexpected szego row {r}")
                    continue
                where = f"szego {r['label']} n={r['n']} {r['f']}"
                ck.ok(r["d_n"] == e["d_n"], f"{where} d_n")
                emp, ref, emp_tol, ref_tol = e["rows"][r["f"]]
                for name, got, want, tol in (("empirical", r["empirical"], emp, emp_tol),
                                             ("reference", r["reference"], ref, ref_tol)):
                    if want is None:
                        ck.ok(-1e-12 <= got <= 1 + 1e-12, f"{where} {name} {got} outside [0, 1]")
                    else:
                        ck.close(f"{where} {name}", got, want, rtol=0.0, atol=tol)
                ck.close(f"{where} error", r["error"], abs(r["empirical"] - r["reference"]),
                         rtol=1e-12, atol=1e-15)
            ks_rows = sum(e["cdf"] for per in expect.values() for e in per.values())
            ck.ok(len(rep["kolmogorov"]) == ks_rows, "kolmogorov row count")
            for r in rep["kolmogorov"]:
                e = expect[r["label"]][r["n"]]
                where = f"kolmogorov {r['label']} n={r['n']}"
                if e["ks"] is None:
                    ck.ok(0.0 <= r["kolmogorov"] <= 1.0, f"{where} outside [0, 1]")
                else:
                    ck.close(where, r["kolmogorov"], e["ks"], rtol=0.0, atol=3.0 / NODES)
            for lab in labels:
                s = rep["summary"][lab]
                ck.ok(s["largest_n"] == ns[-1], f"summary {lab} largest_n")
                top = [r["error"] for r in rep["rows"] if r["label"] == lab and r["n"] == ns[-1]]
                ck.ok(bool(top) and s["max_error_at_largest_n"] == max(top),
                      f"summary {lab} max error")
            for r in rep["folner"]["rows"]:
                row = expect[r["label"]][r["n"]]["folner"]
                where = f"szego folner {r['label']} n={r['n']}"
                ck.close(f"{where} ratio", r["ratio"], row[2][0])
                ck.close(f"{where} off_corner", r["off_corner"], row[2][1])
                ck.close(f"{where} qd_gap", r["qd_gap"], row["qd_gap"])
            ck.ok(len(rep["folner"]["rows"]) == len(labels) * len(ns), "szego folner rows")
            for r in rep["trace"]["rows"]:
                want = expect[r["label"]][r["n"]]["trace"]
                _check_trace_row(r, want, self._trace_ref(r["label"]), ck)

        argv = ["szego", *self._ops(labels), "--n", _nlist(ns), "--f", f_spec, "--format", "json"]
        if phi:
            argv += ["--phi", repr(phi)]
        self.invocations.append(Invocation(argv, _checked(json.loads, body)))

    def _szego_expect(self, label, n, degree, fam, phi):
        """Expected szego output at one window.

        rows: per f, (empirical, reference, tolerances), None meaning a range
        check only; ks: the Kolmogorov distance, None meaning a range check
        only; cdf: whether a Kolmogorov row exists (CDF references only);
        folner, trace: the coupled p=2 ratio row and trace estimate.
        """
        doc = self.docs[label]
        lat = orc.lattice_of(doc)
        lo, hi = orc.window(lat, n)
        d = hi - lo + 1
        rows = {}
        if doc == gen.HOPPING:
            eig = orc.hopping_eigenvalues(d)
            for k in range(degree + 1):
                rows[f"x^{k}"] = (float(np.mean(eig**k)), float(math.comb(k, k // 2) * (k % 2 == 0)),
                                  1e-9 * 2.0**k, 1e-9 * 2.0**k)
            for name, (a, c, b) in fam.items():
                grid_tol = 4 * math.pi / (c - a) / NODES  # rectangle rule on a Lipschitz hat
                rows[name] = (float(np.mean(orc.hat(eig, a, c, b))),
                              orc.arcsine_hat_integral(a, c, b), 1e-9, grid_tol)
            ks = orc.kolmogorov_to_cdf(eig, orc.arcsine_cdf)
        elif doc["kind"] == "toeplitz":
            scale = sum(abs(orc._cplx(a)) for a in doc["coeffs"].values())
            moments = orc.section_moments(doc, lo, hi, degree)
            for k in range(degree + 1):
                tol = 1e-9 * max(1.0, scale) ** k
                rows[f"x^{k}"] = (moments[k], orc.symbol_moment(doc["coeffs"], k), tol, tol)
            for name in fam:
                rows[name] = (None, None, None, None)
            ks = None
        else:  # rotation-algebra element: moments only, no CDF
            moments = orc.section_moments(doc, lo, hi, degree, phi)
            tau = orc.ncpoly_trace_moments(doc, degree)
            for k in range(degree + 1):
                tol = 1e-9 * 3.0**k
                rows[f"x^{k}"] = (moments[k], tau[k], tol, tol)
            ks = None
        return {"d_n": d, "rows": rows, "ks": ks, "cdf": doc["kind"] == "toeplitz",
                "folner": orc.folner_row(doc, n, phi), "trace": orc.trace_estimate(doc, n, phi)}

    # -- tensor and demo-shift ------------------------------------------------

    def tensor(self, label_a, label_b, ns):
        expect = {n: orc.tensor_row(self.docs[label_a], self.docs[label_b], n) for n in ns}

        def body(rows, ck):
            ck.ok(len(rows) == len(ns), "tensor row count")
            for r in rows:
                n = int(r["n"])
                e = expect[n]
                lhs, mid, rhs = float(r["lhs"]), float(r["middle"]), float(r["rhs"])
                where = f"tensor {r['label']} n={n}"
                ck.ok(r["label"] == f"{label_a}(x){label_b}", f"{where} label")
                ck.ok(int(r["d_n"]) == e["d_n"], f"{where} d_n")
                ck.close(f"{where} lhs", lhs, e["lhs"])
                ck.close(f"{where} middle", mid, e["middle"])
                ck.close(f"{where} rhs", rhs, e["rhs"])
                ck.ok(lhs <= mid * (1 + 1e-12) + 1e-15, f"{where} lhs {lhs} > middle {mid}")
                ck.ok(mid <= rhs * (1 + 1e-12) + 1e-15, f"{where} middle {mid} > rhs {rhs}")
                ck.close(f"{where} slack", float(r["slack"]), rhs - lhs, rtol=1e-12, atol=1e-15)

        self.invocations.append(Invocation(
            ["tensor", "--op-a", self.paths[label_a], "--op-b", self.paths[label_b],
             "--n", _nlist(ns)], _checked(_csv, body)))

    def demo_shift(self, ns):
        def parse(text):
            lines = text.splitlines()
            return [line.split() for line in lines[2:-1]], lines

        def body(data, ck):
            table, lines = data
            ck.ok(len(table) == len(ns), "demo-shift row count")
            ck.ok(lines[-1].startswith("the Hilbert-Schmidt ratio vanishes"), "demo-shift footer")
            for n, row in zip(ns, table):
                ck.ok(row[0] == str(n) and row[1] == str(n + 1), f"demo-shift n={n} sizes")
                ck.close(f"demo-shift n={n} ratio", float(row[2]), 1 / math.sqrt(n + 1),
                         rtol=1e-15, atol=1e-16)
                ck.ok(row[4] == "1.0000", f"demo-shift n={n} qd_gap {row[4]}")

        self.invocations.append(Invocation(["demo-shift", "--n", _nlist(ns)],
                                           _checked(parse, body)))


def _nlist(ns) -> str:
    return ",".join(str(n) for n in ns)


def _check_trace_row(r, want: complex, ref, ck):
    where = f"trace {r['label']} n={r['n']}"
    re_, im_ = float(r["estimate_re"]), float(r["estimate_im"])
    ck.close(f"{where} estimate_re", re_, want.real)
    ck.close(f"{where} estimate_im", im_, want.imag)
    if ref is None:
        ck.ok(r["reference_re"] == "" and r["abs_error"] == "", f"{where} has a reference")
    else:
        ck.close(f"{where} reference_re", float(r["reference_re"]), ref.real)
        ck.close(f"{where} reference_im", float(r["reference_im"]), ref.imag)
        ck.close(f"{where} abs_error", float(r["abs_error"]), abs(complex(re_, im_) - ref),
                 rtol=1e-12, atol=1e-15)


def build(workload: str, paths: dict, docs: dict, params: dict, quick: bool) -> list:
    """The ordered invocations of one pass of `workload`."""
    pick = 1 if quick else 0
    size = {k: v[pick] for k, v in SIZES[workload].items()}
    plan = Plan(paths, docs)
    if workload == "szego-spectral":
        plan.szego(["hopping"], size["hopping"], 4, hats=(8, -2.0, 2.0))
        bound = max(sum(abs(orc._cplx(a)) for a in docs[s]["coeffs"].values())
                    for s in ("sym0", "sym1"))
        plan.szego(["sym0", "sym1"], size["symbols"], 4, hats=(8, -bound, bound))
        plan.szego(["harper"], size["harper"], 6, phi=params["phi"])
    elif workload == "poly-sections":
        plan.folner(["normal_poly"], size["normal"])
        plan.trace(["normal_poly"], size["normal"])
        for lat in ("n0", "z"):
            labels = [f"poly_{lat}_0", f"poly_{lat}_1"]
            plan.folner(labels, size[lat])
            plan.trace(labels, size[lat])
    elif workload == "banded-grid":
        plan.folner(["shift", "hopping", "wshift", "toep3"], size["n0"])
        z_specs = ["almost_mathieu", "modulated_band", "harper", "band0", "band1", "band2"]
        plan.folner(z_specs, size["z"])
        plan.trace(z_specs, size["trace"])
        plan.demo_shift(size["demo"])
    elif workload == "tensor-bound":
        for a, b in (("shift", "shift"), ("shift", "hopping"), ("dense8", "hopping")):
            plan.tensor(a, b, size["n0"])
        plan.tensor("am", "mband", size["z"])
    else:
        raise ValueError(f"unknown workload {workload!r}")
    # smoke round: every subcommand once, at the smallest windows
    plan.szego(["hopping"], [2, 4], 2, hats=(2, -2.0, 2.0))
    plan.szego(["harper"], [1, 2], 4)
    plan.folner(["normal_poly"], [1, 2])
    plan.trace(["hopping"], [1, 2])
    plan.tensor("shift", "hopping", [1, 2])
    plan.demo_shift([1, 3])
    return plan.invocations
