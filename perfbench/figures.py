"""Reference figures from the span files of traced runs.

    python3 perfbench/figures.py .bench_work/spans-*.tsv

Prints, for the paths that the ROADMAP baseline table times, the median
span time per input size (d_n) as a markdown table.
"""
from __future__ import annotations

import statistics
import sys

# (row title, span name, test on the invocation's argv)
ROWS = (
    ("`compress` of `Poly` S*S - I (its `trace` invocation)", "operators.exact_entries",
     lambda cmd: cmd.startswith("trace ") and "/normal_poly.json" in cmd),
    ("`empirical_measure`, hopping Toeplitz", "spectral.empirical_measure",
     lambda cmd: cmd.startswith("szego ") and "/hopping.json" in cmd),
    ("`folner_ratio`, `Shift` (`demo-shift`)", "diagnostics.folner_ratio",
     lambda cmd: cmd.startswith("demo-shift ")),
    ("`tensor_bound_check`, Shift (x) Shift", "tensor.tensor_bound_check",
     lambda cmd: cmd.startswith("tensor ") and cmd.count("/shift.json") == 2),
)


def load(path):
    commands, spans = {}, []
    with open(path, encoding="utf-8") as fh:
        for line in fh:
            if line.startswith("# "):
                k, cmd = line[2:].rstrip("\n").split(" ", 1)
                commands[int(k)] = cmd
            elif not line.startswith("id\t"):
                f = line.rstrip("\n").split("\t")
                spans.append((f[2], float(f[5]) - float(f[4]), int(f[6]), int(f[9])))
    return commands, spans


def main(paths) -> int:
    print("| path | size d_n: median ms (spans) |")
    print("|---|---|")
    for title, name, wanted in ROWS:
        by_size = {}
        for path in paths:
            commands, spans = load(path)
            for span_name, dt, size, tag in spans:
                if span_name == name and wanted(commands.get(tag, "")):
                    by_size.setdefault(size, []).append(dt)
        top = sorted(by_size)[-3:]
        cells = ", ".join(f"{n}: {1e3 * statistics.median(by_size[n]):.3g} ({len(by_size[n])})"
                          for n in top)
        print(f"| {title} | {cells or 'not in these files'} |")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
