"""Seeded input generator: writes the JSON spec files a workload runs on.

Only the standard library is used, so that the set-up probe imports nothing
before `folner_lab` and its import time is measured in full.  The same
(workload, seed) pair always gives byte-identical files.  Random values vary
with the seed, the structure does not: bandwidths, tree shapes and matrix
sizes are fixed per slot, so that the cost of a pass does not depend on the
seed.
"""
from __future__ import annotations

import json
import random
from pathlib import Path

GOLDEN = 0.6180339887498949

# fixed corpus-style specs, identical to tests/corpus/valid
HOPPING = {"kind": "toeplitz", "coeffs": {"1": 1.0, "-1": 1.0}, "selfadjoint": True}
SHIFT = {"kind": "shift"}
HARPER = {
    "kind": "ncpoly",
    "alpha": GOLDEN,
    "terms": [
        {"m": 1, "k": 0, "coeff": 1.0},
        {"m": -1, "k": 0, "coeff": 1.0},
        {"m": 0, "k": 1, "coeff": 0.5},
        {"m": 0, "k": -1, "coeff": 0.5},
    ],
}
ALMOST_MATHIEU = {"kind": "almost_mathieu", "coupling": 0.5, "freq": GOLDEN, "phase": 0.0}
MODULATED_BAND = {
    "kind": "band",
    "bandwidth": 1,
    "diagonals": [
        {"offset": -1, "fn": 1.0},
        {"offset": 0, "fn": {"type": "cos", "amp": 1.0, "freq": GOLDEN}},
        {"offset": 1, "fn": 1.0},
    ],
}
NORMAL_POLY = {
    "kind": "poly",
    "expr": {
        "sum": [
            {"prod": [{"adj": {"op": {"kind": "shift"}}}, {"op": {"kind": "shift"}}]},
            {"scale": -1.0, "of": {"op": {"kind": "identity", "lattice": "n0"}}},
        ]
    },
}


def _c(rng) -> list:
    return [rng.uniform(-1.0, 1.0), rng.uniform(-1.0, 1.0)]


def sa_toeplitz(rng, bw: int = 3) -> dict:
    """Self-adjoint Toeplitz symbol with a_{-k} = conj(a_k), a_0 real."""
    coeffs = {"0": rng.uniform(-1.0, 1.0)}
    for k in range(1, bw + 1):
        re, im = _c(rng)
        coeffs[str(k)] = [re, im]
        coeffs[str(-k)] = [re, -im]
    return {"kind": "toeplitz", "coeffs": coeffs, "selfadjoint": True}


def toeplitz(rng, bw: int) -> dict:
    return {"kind": "toeplitz", "coeffs": {str(k): _c(rng) for k in range(-bw, bw + 1)}}


def weighted_shift(rng) -> dict:
    return {"kind": "shift", "weight": _c(rng)}


def _band_fn(rng, kind: str):
    if kind == "const":
        return _c(rng)
    if kind == "cos":
        return {"type": "cos", "amp": rng.uniform(0.5, 2.0), "freq": rng.random(),
                "phase": rng.random()}
    return {"type": "exp", "freq": rng.random(), "phase": rng.random()}


# diagonal function type by |offset|: fixed, so evaluation cost is seed-independent
BAND_KINDS = ("cos", "exp", "const")


def band(rng, bw: int) -> dict:
    diags = [{"offset": off, "fn": _band_fn(rng, BAND_KINDS[abs(off) % 3])}
             for off in range(-bw, bw + 1)]
    return {"kind": "band", "bandwidth": bw, "diagonals": diags}


def dense(rng, size: int) -> dict:
    return {"kind": "dense", "matrix": [[_c(rng) for _ in range(size)] for _ in range(size)]}


def random_poly(rng, leaves) -> dict:
    """c1 * X1 Y1 + c2 * X2 Y2 + Z: two matrix products, one factor adjointed.

    `leaves` gives the leaf builder of each of the five slots; the tree shape
    is fixed, so each pass evaluates the same number of products whatever
    the seed.
    """
    x1, y1, x2, y2, z = ({"op": leaf(rng)} for leaf in leaves)
    first = [{"adj": x1}, y1] if rng.random() < 0.5 else [x1, {"adj": y1}]
    return {
        "kind": "poly",
        "expr": {
            "sum": [
                {"scale": _c(rng), "of": {"prod": first}},
                {"scale": _c(rng), "of": {"prod": [x2, y2]}},
                z,
            ]
        },
    }


def _toeplitz1(rng):
    return toeplitz(rng, 1)


def _band2(rng):
    return band(rng, 2)


# leaf slots of the random polynomials; every leaf has the same bandwidth on its
# lattice, so the padded window is seed-independent
N0_LEAVES = (weighted_shift, _toeplitz1, _toeplitz1, weighted_shift, _toeplitz1)
Z_LEAVES = (_band2,) * 5


def docs_for(workload: str, seed: int) -> tuple[dict, dict]:
    """Spec documents by label, plus seeded run parameters (e.g. the phase phi)."""
    rng = random.Random(f"{workload}:{seed}")
    params = {}
    docs = {"hopping": HOPPING, "harper": HARPER, "shift": SHIFT, "normal_poly": NORMAL_POLY}
    if workload == "szego-spectral":
        docs["sym0"] = sa_toeplitz(rng)
        docs["sym1"] = sa_toeplitz(rng)
        params["phi"] = rng.random()
    elif workload == "poly-sections":
        for i in range(2):
            docs[f"poly_n0_{i}"] = random_poly(rng, N0_LEAVES)
        for i in range(2):
            docs[f"poly_z_{i}"] = random_poly(rng, Z_LEAVES)
    elif workload == "banded-grid":
        docs["almost_mathieu"] = ALMOST_MATHIEU
        docs["modulated_band"] = MODULATED_BAND
        docs["wshift"] = weighted_shift(rng)
        docs["toep3"] = toeplitz(rng, 3)
        for i in range(3):
            docs[f"band{i}"] = band(rng, 2)
    elif workload == "tensor-bound":
        docs["dense8"] = dense(rng, 8)
        docs["am"] = {"kind": "almost_mathieu", "coupling": rng.uniform(0.5, 2.0),
                      "freq": GOLDEN, "phase": rng.random()}
        docs["mband"] = {
            "kind": "band",
            "bandwidth": 1,
            "diagonals": [
                {"offset": -1, "fn": 1.0},
                {"offset": 0, "fn": {"type": "cos", "amp": rng.uniform(0.5, 2.0),
                                     "freq": GOLDEN, "phase": rng.random()}},
                {"offset": 1, "fn": 1.0},
            ],
        }
    else:
        raise ValueError(f"unknown workload {workload!r}")
    return docs, params


def write_specs(docs: dict, outdir: Path) -> dict:
    """Write each document to <outdir>/<label>.json; returns label -> path."""
    outdir.mkdir(parents=True, exist_ok=True)
    paths = {}
    for label, doc in docs.items():
        path = outdir / f"{label}.json"
        path.write_text(json.dumps(doc, indent=1, sort_keys=True) + "\n", encoding="utf-8")
        paths[label] = str(path)
    return paths
