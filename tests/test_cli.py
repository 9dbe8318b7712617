import json
import math
import os
import resource
import subprocess
import sys
import time
import warnings
from pathlib import Path

import numpy as np
import pytest

import folner_lab as fl
from folner_lab.cli import ConfigError, build_parser, main, parse_f_family, parse_n_list
from folner_lab.specio import load_spec_file

CORPUS = Path(__file__).parent / "corpus"


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


class TestArgParsing:
    def test_n_list_explicit(self):
        assert parse_n_list("1,3,7") == [1, 3, 7]

    def test_n_list_dyadic(self):
        assert parse_n_list("dyadic:2:5") == [4, 8, 16, 32]

    def test_n_list_rejects_decreasing(self):
        with pytest.raises(ConfigError):
            parse_n_list("4,2")
        with pytest.raises(ConfigError):
            parse_n_list("0,1")
        with pytest.raises(ConfigError):
            parse_n_list("dyadic:5:2")

    def test_f_family(self):
        fam = parse_f_family("poly:2,hat:3:-1:1")
        assert [f.kind for f in fam] == ["poly"] * 3 + ["hat"] * 3
        with pytest.raises(ConfigError):
            parse_f_family("spline:3")
        with pytest.raises(ConfigError):
            parse_f_family(" , ")

    def test_parser_built_once_keeps_no_state(self, capsys):
        # two --op and then one in the same process: the second run's output
        # is a fresh parser's, so no appended --op survives a call
        shift = str(CORPUS / "valid" / "shift.json")
        hopping = str(CORPUS / "valid" / "hopping.json")
        fl.cli._parser.cache_clear()
        assert run(capsys, "trace", "--op", shift, "--op", hopping, "--n", "1,2")[0] == 0
        second = run(capsys, "trace", "--op", hopping, "--n", "1,2")
        assert fl.cli._parser.cache_info().misses == 1
        fl.cli._parser.cache_clear()
        fresh = run(capsys, "trace", "--op", hopping, "--n", "1,2")
        assert second == fresh
        assert second[0] == 0 and len(second[1].splitlines()) == 4


class TestFolnerCommand:
    def test_shift_csv_values(self, capsys):
        code, out, _ = run(
            capsys,
            "folner",
            "--op", str(CORPUS / "valid" / "shift.json"),
            "--n", "1,3,7,15",
            "--p", "2",
        )
        assert code == 0
        lines = out.strip().splitlines()
        assert lines[0] == "# folner-lab 0.1.0"
        assert lines[1] == "label,n,d_n,p,ratio,off_corner,qd_gap"
        ratios = [float(line.split(",")[4]) for line in lines[2:]]
        want = [1.0 / math.sqrt(n + 1) for n in (1, 3, 7, 15)]
        assert ratios == pytest.approx(want, abs=1e-14)
        gaps = [float(line.split(",")[6]) for line in lines[2:]]
        assert gaps == [1.0] * 4

    def test_byte_identical_reruns(self, capsys, tmp_path):
        argv = [
            "folner",
            "--op", str(CORPUS / "valid" / "almost_mathieu.json"),
            "--n", "2,4,8",
        ]
        paths = [tmp_path / "a.csv", tmp_path / "b.csv"]
        for path in paths:
            assert main(argv + ["--out", str(path)]) == 0
        capsys.readouterr()
        assert paths[0].read_bytes() == paths[1].read_bytes()

    def test_bad_p(self, capsys):
        code, _, err = run(
            capsys,
            "folner", "--op", str(CORPUS / "valid" / "shift.json"), "--n", "2", "--p", "3",
        )
        assert code == 2 and "config error" in err


class TestSzegoCommand:
    def test_toeplitz_json_summary(self, capsys):
        code, out, _ = run(
            capsys,
            "szego",
            "--op", str(CORPUS / "valid" / "hopping.json"),
            "--n", "64,256",
            "--f", "poly:2",
            "--format", "json",
        )
        assert code == 0
        payload = json.loads(out)
        assert payload["summary"]["hopping"]["max_error_at_largest_n"] == pytest.approx(
            2.0 / 257.0, abs=1e-9
        )
        assert payload["kolmogorov"][-1]["kolmogorov"] <= 0.02
        assert "folner" in payload and "trace" in payload

    def test_ncpoly_moments(self, capsys):
        code, out, _ = run(
            capsys,
            "szego",
            "--op", str(CORPUS / "valid" / "harper.json"),
            "--n", "128",
            "--f", "poly:2",
            "--format", "json",
        )
        assert code == 0
        payload = json.loads(out)
        assert payload["kolmogorov"] == []
        assert payload["summary"]["harper"]["max_error_at_largest_n"] <= 0.05
        assert payload["trace"]["rows"][0]["reference_re"] == 0.0

    def test_no_reference_available(self, capsys):
        code, _, err = run(
            capsys,
            "szego", "--op", str(CORPUS / "valid" / "shift.json"), "--n", "4",
        )
        assert code == 3 and "spec error" in err

    def test_complex_symbol_is_spec_error(self, capsys, tmp_path):
        spec = tmp_path / "complex_symbol.json"
        spec.write_text('{"kind": "toeplitz", "coeffs": {"1": [0.0, 1.0]}}')
        code, _, err = run(capsys, "szego", "--op", str(spec), "--n", "4")
        assert code == 3
        assert err.startswith("spec error:") and len(err.strip().splitlines()) == 1

    def test_residual_breach_is_numerical_failure(self, capsys, monkeypatch):
        eigh = np.linalg.eigh

        def perturbed(h, *args, **kwargs):
            vals, vecs = eigh(h, *args, **kwargs)
            return vals, vecs + 1e-3

        monkeypatch.setattr(np.linalg, "eigh", perturbed)
        code, out, err = run(
            capsys, "szego", "--op", str(CORPUS / "valid" / "hopping.json"), "--n", "4,8",
        )
        assert code == 1 and out == ""
        assert err.startswith("numerical failure:") and len(err.strip().splitlines()) == 1

    def test_non_hermitian_compression_is_spec_error(self, capsys, tmp_path):
        # the symbol's imaginary part (1e-11) passes the pushforward check,
        # but the compression's Hermiticity defect exceeds --herm-tol
        spec = tmp_path / "skew.json"
        spec.write_text('{"kind": "toeplitz", "coeffs": {"1": 1.0, "-1": 1.00000000001}}')
        code, out, err = run(
            capsys, "szego", "--op", str(spec), "--n", "4,8", "--herm-tol", "1e-14",
        )
        assert code == 3 and out == ""
        assert err.startswith("spec error:") and "Hermiticity" in err
        assert len(err.strip().splitlines()) == 1

    def test_plot_out(self, capsys, tmp_path):
        plot = tmp_path / "plot.csv"
        code, _, _ = run(
            capsys,
            "szego",
            "--op", str(CORPUS / "valid" / "hopping.json"),
            "--n", "16,32",
            "--f", "poly:2",
            "--plot-out", str(plot),
        )
        assert code == 0
        assert "label,n,d_n,max_error" in plot.read_text()


class TestTraceCommand:
    def test_identity_like_toeplitz(self, capsys):
        code, out, _ = run(
            capsys,
            "trace",
            "--op", str(CORPUS / "valid" / "hopping.json"),
            "--n", "4,16",
        )
        assert code == 0
        rows = [line.split(",") for line in out.strip().splitlines()[2:]]
        assert all(float(r[3]) == 0.0 for r in rows)  # estimate_re of zero-mean symbol


class TestTensorCommand:
    def test_shift_pair(self, capsys):
        code, out, _ = run(
            capsys,
            "tensor",
            "--op-a", str(CORPUS / "valid" / "shift.json"),
            "--op-b", str(CORPUS / "valid" / "shift.json"),
            "--n", "7",
        )
        assert code == 0
        row = out.strip().splitlines()[-1].split(",")
        assert float(row[3]) == pytest.approx(15.0 / 64.0, abs=1e-12)
        assert float(row[5]) == pytest.approx(0.25, abs=1e-12)

    def test_window_past_the_old_cap(self, capsys):
        # padded factor orders 102 x 102, formerly refused by a 4096 cap
        code, out, err = run(
            capsys,
            "tensor",
            "--op-a", str(CORPUS / "valid" / "shift.json"),
            "--op-b", str(CORPUS / "valid" / "shift.json"),
            "--n", "100",
        )
        assert code == 0 and err == ""
        row = out.strip().splitlines()[-1].split(",")
        assert int(row[2]) == 101 * 101
        assert float(row[5]) == pytest.approx(2.0 / 101.0, abs=1e-12)

    def test_window_too_large_for_memory(self, capsys, monkeypatch):
        # the n = 10 sections (order 12) are built; the n = 100000 section
        # (order 100002, 640 GB for four complex copies) is refused unbuilt
        sizes = []
        dense_entries = fl.operators.dense_entries

        def spy(src, rows, cols):
            sizes.append((rows.size, cols.size))
            return dense_entries(src, rows, cols)

        monkeypatch.setattr(fl.operators, "dense_entries", spy)
        monkeypatch.setattr(fl._util, "_physical_memory", lambda: 64 << 30)
        code, out, err = run(
            capsys,
            "tensor",
            "--op-a", str(CORPUS / "valid" / "shift.json"),
            "--op-b", str(CORPUS / "valid" / "shift.json"),
            "--n", "10,100000",
        )
        assert code == 2 and out == ""
        lines = err.splitlines()
        assert len(lines) == 1 and lines[0].startswith("config error:")
        assert "100002" in lines[0]
        assert sizes == [(12, 12), (12, 12)]

    def test_options(self):
        args = build_parser().parse_args(["tensor", "--op-a", "a", "--op-b", "b", "--n", "1"])
        assert set(vars(args)) == {"command", "func", "op_a", "op_b", "n", "format", "out"}

    def test_kron_factor_rejected(self, capsys):
        code, _, err = run(
            capsys,
            "tensor",
            "--op-a", str(CORPUS / "invalid" / "lattice_pair.json"),
            "--op-b", str(CORPUS / "valid" / "shift.json"),
            "--n", "3",
        )
        assert code == 3
        assert len(err.splitlines()) == 1 and "tensor --op-a" in err


class TestDemoShift:
    def test_table(self, capsys):
        code, out, _ = run(capsys, "demo-shift", "--n", "1,3")
        assert code == 0
        assert "1/sqrt(n+1)" in out
        assert "0.7071067811865475" in out  # n = 1 row


class TestValidate:
    def test_whole_valid_corpus(self, capsys):
        files = sorted(str(p) for p in (CORPUS / "valid").glob("*.json"))
        code, out, _ = run(capsys, "validate", *files)
        assert code == 0
        assert f"{len(files)} spec file(s) valid" in out

    @pytest.mark.parametrize(
        "name",
        sorted(p.name for p in (CORPUS / "invalid").glob("*.json")),
    )
    def test_each_invalid_file(self, capsys, name):
        code, _, err = run(capsys, "validate", str(CORPUS / "invalid" / name))
        assert code == 3
        assert err.strip()


class TestExitCodes:
    def test_missing_file_is_spec_error(self, capsys):
        code, _, _ = run(capsys, "validate", "/nonexistent/spec.json")
        assert code == 3

    def test_unparseable_arguments(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["folner", "--n", "2"])
        assert exc.value.code == 2
        capsys.readouterr()


class TestOneLineFailures:
    """Every run refused for its size or options exits 2 with exactly one
    stderr line and no traceback."""

    HOPPING = str(CORPUS / "valid" / "hopping.json")
    HARPER = str(CORPUS / "valid" / "harper.json")
    AM = str(CORPUS / "valid" / "almost_mathieu.json")
    NORMAL_POLY = str(CORPUS / "valid" / "normal_poly.json")

    @pytest.mark.parametrize("argv", [
        pytest.param(["trace", "--op", NORMAL_POLY, "--n", "dyadic:40:40"], id="trace-2^40"),
    ])
    def test_oversized_index_array(self, capsys, argv):
        # 8 TiB of indices for a polynomial's diagonal: refused against this
        # machine's real memory before the array is built
        code, out, err = run(capsys, *argv)
        assert code == 2 and out == ""
        lines = err.splitlines()
        assert len(lines) == 1 and lines[0].startswith("config error: the index array")

    def test_folner_window_of_rank_2_62(self, capsys):
        # the commutator lives on the window's boundary: one column leaks on
        # each side, whatever the rank d = 2^62 + 1
        code, out, err = run(capsys, "folner", "--op", self.HOPPING, "--n", "dyadic:62:62")
        assert code == 0 and err == ""
        rows = out.splitlines()[2:]
        assert len(rows) == 2
        d = 2**62 + 1
        for line, p, ratio, off in zip(rows, (1, 2), (2 / d, math.sqrt(2) / math.sqrt(d)),
                                       (1 / d, 1 / math.sqrt(d))):
            label, n, d_n, p_, *vals = line.split(",")
            assert (label, int(n), int(d_n), int(p_)) == ("hopping", 2**62, d, p)
            assert [float(v) for v in vals] == [ratio, off, 1.0]

    def test_trace_window_of_rank_2_62(self, capsys):
        # a trigonometric diagonal is summed over the window's one run in
        # closed form, whatever its rank d = 2^62 + 1
        code, out, err = run(capsys, "trace", "--op", self.HARPER, "--n", "dyadic:61:61")
        assert code == 0 and err == ""
        (row,) = out.splitlines()[2:]
        label, n, d_n, *_, abs_error = row.split(",")
        assert (label, int(n), int(d_n)) == ("harper", 2**61, 2**62 + 1)
        assert float(abs_error) <= 1e-15

    @pytest.mark.parametrize("argv", [
        pytest.param(["folner", "--op", HOPPING, "--n", "dyadic:63:63"], id="n0-2^63"),
        pytest.param(["folner", "--op", AM, "--n", "dyadic:63:63"], id="z-2^63"),
        pytest.param(["folner", "--op", HOPPING, "--n", str(2**63 - 1)], id="n0-pad-past-2^63"),
        pytest.param(["folner", "--op", AM, "--n", str(2**63 - 1)], id="z-pad-past-2^63"),
        pytest.param(["trace", "--op", AM, "--n", "dyadic:63:63"], id="trace-z-2^63"),
    ])
    def test_padded_indices_leave_int64(self, capsys, argv):
        code, out, err = run(capsys, *argv)
        assert code == 2 and out == ""
        lines = err.splitlines()
        assert len(lines) == 1 and lines[0].startswith("config error:")

    def test_poly_storage_too_large_for_memory(self, capsys, monkeypatch):
        # S*S - 1 at n = 1000: 1001 indices of 8 bytes fit; one offset of
        # 16 bytes on 1003 padded indices does not, and is refused before
        # the storage is built
        poly = str(CORPUS / "valid" / "normal_poly.json")
        monkeypatch.setattr(fl._util, "_physical_memory", lambda: 16 * 1003 - 1)
        code, out, err = run(capsys, "trace", "--op", poly, "--n", "1000")
        assert code == 2 and out == ""
        lines = err.splitlines()
        assert len(lines) == 1 and lines[0].startswith("config error: the diagonal storage")
        monkeypatch.setattr(fl._util, "_physical_memory", lambda: 16 * 1003)
        code, out, err = run(capsys, "trace", "--op", poly, "--n", "1000")
        assert code == 0 and err == ""

    def test_pushforward_too_large_for_memory(self, capsys, monkeypatch):
        # 1000 nodes peak at 43 bytes each; the reference is refused before
        # its arrays are built, the window's own storage is far smaller
        monkeypatch.setattr(fl._util, "_physical_memory", lambda: 43 * 1000 - 1)
        code, out, err = run(capsys, "szego", "--op", self.HOPPING, "--n", "4", "--nodes", "1000")
        assert code == 2 and out == ""
        lines = err.splitlines()
        assert len(lines) == 1
        assert lines[0].startswith("config error: the pushforward reference of 1000 nodes")
        monkeypatch.setattr(fl._util, "_physical_memory", lambda: 43 * 1000)
        code, out, err = run(capsys, "szego", "--op", self.HOPPING, "--n", "4", "--nodes", "1000")
        assert code == 0 and err == ""

    def test_f_family_too_large_for_memory(self, capsys, monkeypatch):
        # poly:100000 holds 100001 * 100002 / 2 coefficients, 37 GiB: refused
        # at once, before any monomial is built
        def unreachable(k):
            raise AssertionError("a monomial was built")

        monkeypatch.setattr(fl._util, "_physical_memory", lambda: 16 << 30)
        monkeypatch.setattr(fl.cli, "monomial", unreachable)
        start = time.perf_counter()
        code, out, err = run(capsys, "szego", "--op", self.HARPER, "--n", "4", "--f", "poly:100000")
        assert time.perf_counter() - start < 5.0
        assert code == 2 and out == ""
        lines = err.splitlines()
        assert len(lines) == 1 and lines[0].startswith("config error: the f family item 'poly:100000'")

    def test_f_family_footprint_threshold(self, monkeypatch):
        # poly:3 holds 1 + 2 + 3 + 4 = 10 coefficients of 8 bytes
        monkeypatch.setattr(fl._util, "_physical_memory", lambda: 79)
        with pytest.raises(ConfigError, match="poly:3"):
            parse_f_family("poly:3,hat:2:-1:1")
        monkeypatch.setattr(fl._util, "_physical_memory", lambda: 80)
        assert [f.name for f in parse_f_family("poly:3")] == ["x^0", "x^1", "x^2", "x^3"]

    def test_f_family_hat_footprint_threshold(self, monkeypatch):
        # hat:2 counts 310 bytes a hat, checked before any hat is built
        def unreachable(*args):
            raise AssertionError("hats built")

        monkeypatch.setattr(fl._util, "_physical_memory", lambda: 619)
        monkeypatch.setattr(fl.cli, "hat_family", unreachable)
        with pytest.raises(ConfigError, match="hat:2:-1:1"):
            parse_f_family("hat:2:-1:1,poly:0")
        monkeypatch.undo()
        monkeypatch.setattr(fl._util, "_physical_memory", lambda: 620)
        assert len(parse_f_family("hat:2:-1:1")) == 2

    @pytest.mark.parametrize("argv", [
        pytest.param(["szego", "--op", HOPPING, "--n", "4", "--nodes", "0"], id="nodes-0"),
        pytest.param(["szego", "--op", HOPPING, "--n", "4", "--nodes", "-5"], id="nodes-neg"),
        pytest.param(["szego", "--op", HOPPING, "--n", "4", "--herm-tol", "nan"], id="herm-tol-nan"),
        pytest.param(["szego", "--op", HOPPING, "--n", "4", "--herm-tol", "inf"], id="herm-tol-inf"),
        pytest.param(["szego", "--op", HOPPING, "--n", "4", "--herm-tol=-1e-10"],
                     id="herm-tol-neg"),
        pytest.param(["szego", "--op", HARPER, "--n", "4", "--phi", "nan"], id="szego-phi-nan"),
        pytest.param(["trace", "--op", HARPER, "--n", "4", "--phi", "inf"], id="trace-phi-inf"),
        pytest.param(["folner", "--op", HOPPING, "--n", "4", "--p", "2,2"], id="p-repeated"),
        pytest.param(["folner", "--op", HOPPING, "--n", "4", "--p", "x"], id="p-unparsable"),
        pytest.param(["szego", "--op", HOPPING, "--n", "4", "--f", "hat:2:-inf:inf"],
                     id="hat-infinite"),
        pytest.param(["szego", "--op", HOPPING, "--n", "4", "--f", "hat:3:1:-1"], id="hat-reversed"),
        pytest.param(["szego", "--op", HOPPING, "--n", "4", "--f", "hat:2:-1:1:junk"],
                     id="hat-five-fields"),
        pytest.param(["szego", "--op", HOPPING, "--n", "4", "--f", "hat:2:-1"], id="hat-three-fields"),
        pytest.param(["szego", "--op", HOPPING, "--n", "4", "--f", "hat:0:0:1"], id="hat-count-0"),
        pytest.param(["szego", "--op", HOPPING, "--n", "4", "--f", "hat:-1:0:1"], id="hat-count-neg"),
        pytest.param(["szego", "--op", HOPPING, "--n", "4", "--f", "poly:2,poly:-3"], id="poly-neg"),
    ])
    def test_bad_numeric_option(self, capsys, argv):
        code, out, err = run(capsys, *argv)
        assert code == 2 and out == ""
        lines = err.splitlines()
        assert len(lines) == 1 and lines[0].startswith("config error:")

    @pytest.mark.parametrize("argv, message", [
        pytest.param(["--f", "hat:2:-1:1"], "the f family has no polynomial", id="hats-only"),
    ])
    def test_moments_reference_family(self, capsys, monkeypatch, argv, message):
        # refused before any numerics: no compression moment is taken
        def unreachable(*args, **kwargs):
            raise AssertionError("numerics ran")

        monkeypatch.setattr(fl.cli, "szego_pair_test", unreachable)
        code, out, err = run(capsys, "szego", "--op", self.HARPER, "--n", "4", *argv)
        assert code == 2 and out == ""
        lines = err.splitlines()
        assert len(lines) == 1 and lines[0].startswith(f"config error: {message}")

    def test_moment_order_is_no_option(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["szego", "--op", self.HARPER, "--n", "4", "--moment-order", "6"])
        assert exc.value.code == 2
        assert "unrecognized arguments: --moment-order" in capsys.readouterr().err

    def test_moment_order_is_the_family_degree(self, capsys):
        # the reference now holds moments to degree 3 only; the rows are those
        # of a reference to the former default order 6
        code, out, err = run(capsys, "szego", "--op", self.HARPER, "--n", "4,8",
                             "--f", "poly:3")
        _, a = load_spec_file(self.HARPER)
        want = fl.szego_pair_test(
            [("harper", fl.represent_nc(a))], fl.finite_section_sequence(fl.Z, [4, 8]),
            {"harper": fl.moments_reference(a, order=6)}, f_family=parse_f_family("poly:3"),
            trace_refs={"harper": fl.canonical_trace(a)})
        assert code == 0 and err == ""
        assert out == want.to_csv() and out.count(",x^") == 8

    def test_memory_error_is_config_error(self, capsys, monkeypatch):
        def exhausted(*args, **kwargs):
            raise MemoryError()

        monkeypatch.setattr(fl.cli, "trace_convergence_report", exhausted)
        code, out, err = run(capsys, "trace", "--op", self.HOPPING, "--n", "4")
        assert code == 2 and out == ""
        assert err.splitlines() == ["config error: out of memory"]

    @pytest.mark.parametrize("flag", ["--out", "--plot-out"])
    def test_unwritable_output(self, capsys, flag):
        code, _, err = run(capsys, "szego", "--op", self.HOPPING, "--n", "4",
                           flag, "/nonexistent/dir/out.csv")
        assert code == 2
        lines = err.splitlines()
        assert len(lines) == 1 and lines[0].startswith("config error: cannot write")

    def test_negative_dyadic_exponent(self, capsys):
        code, out, err = run(capsys, "folner", "--op", self.HOPPING, "--n", "dyadic:-1:2")
        assert code == 2 and out == ""
        lines = err.splitlines()
        assert len(lines) == 1 and lines[0].startswith("config error: dyadic exponents")

    def test_huge_dyadic_exponent_refused_before_the_list(self):
        # 2^0 .. 2^99999999 would fill any memory before the range check;
        # the child runs under an address-space limit and a time bound
        def limit():
            resource.setrlimit(resource.RLIMIT_AS, (2 << 30, 2 << 30))

        code = ("import sys; from folner_lab.cli import main; "
                f"sys.exit(main(['folner', '--op', {self.HOPPING!r}, "
                "'--n', 'dyadic:0:99999999']))")
        env = {**os.environ, "PYTHONPATH": str(Path(fl.__file__).parents[1]),
               "OPENBLAS_NUM_THREADS": "1"}
        start = time.perf_counter()
        proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                              env=env, preexec_fn=limit, timeout=60)
        assert time.perf_counter() - start < 5.0
        assert proc.returncode == 2 and proc.stdout == ""
        lines = proc.stderr.splitlines()
        assert len(lines) == 1 and lines[0].startswith("config error: dyadic exponents")


class TestNumericalFailures:
    """Finite spec numbers whose entries or sums overflow: one numerical
    failure line, exit 1, no warning text and no inf or nan printed."""

    HUGE = '{"kind": "toeplitz", "coeffs": {"0": 1e308, "1": 1e308, "-1": 1e308}, ' \
           '"selfadjoint": true}'
    HUGE_AM = '{"kind": "almost_mathieu", "coupling": 1e308, "freq": 0.3}'

    @pytest.mark.parametrize("spec, argv", [
        pytest.param(HUGE, ["trace", "--n", "4"], id="trace"),
        pytest.param(HUGE, ["trace", "--n", "4", "--format", "json"], id="trace-json"),
        pytest.param(HUGE, ["folner", "--n", "4"], id="folner"),
        pytest.param(HUGE, ["folner", "--n", "4", "--format", "json"], id="folner-json"),
        pytest.param(HUGE, ["szego", "--n", "4"], id="szego"),
        pytest.param(HUGE, ["tensor", "--n", "2"], id="tensor"),
        pytest.param(HUGE, ["tensor", "--n", "2", "--format", "json"], id="tensor-json"),
        pytest.param(HUGE_AM, ["trace", "--n", "4"], id="trace-almost-mathieu"),
    ])
    def test_one_numerical_failure_line(self, capsys, tmp_path, spec, argv):
        path = tmp_path / "huge.json"
        path.write_text(spec)
        ops = ["--op-a", str(path), "--op-b", str(path)] if argv[0] == "tensor" \
            else ["--op", str(path)]
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            code, out, err = run(capsys, argv[0], *ops, *argv[1:])
        assert code == 1 and out == ""
        lines = err.splitlines()
        assert len(lines) == 1 and lines[0].startswith("numerical failure:")

    @pytest.mark.parametrize("spec", [HUGE, HUGE_AM])
    def test_spec_is_valid(self, capsys, tmp_path, spec):
        path = tmp_path / "huge.json"
        path.write_text(spec)
        assert run(capsys, "validate", str(path))[0] == 0

    def test_error_state_is_restored(self, capsys):
        # overflow raises inside main only; its caller keeps its own setting
        before = np.geterr()
        run(capsys, "trace", "--op", str(CORPUS / "valid" / "hopping.json"), "--n", "4")
        assert np.geterr() == before


def _nested_adjoints(depth: int) -> str:
    return ('{"kind": "poly", "expr": ' + '{"adj": ' * depth + '{"op": {"kind": "shift"}}'
            + "}" * (depth + 1))


class TestSpecDecodeFailures:
    """A spec file that cannot be read, decoded or built is one spec error
    line with exit 3."""

    @pytest.mark.parametrize("data", [
        pytest.param(b'{"kind": "shift", "weight": 1.0}\xff', id="non-utf8"),
        pytest.param(b'{"kind": "shift", "weight": 1e400}', id="float-overflow"),
        pytest.param(b'{"kind": "band", "bandwidth": 1e400, "diagonals": []}',
                     id="bandwidth-overflow"),
        pytest.param(_nested_adjoints(3000).encode(), id="nested-3000"),
        pytest.param(_nested_adjoints(600).encode(), id="nested-600"),
    ])
    @pytest.mark.parametrize("command", ["validate", "folner"])
    def test_one_spec_error_line(self, capsys, tmp_path, data, command):
        path = tmp_path / "spec.json"
        path.write_bytes(data)
        argv = [str(path)] if command == "validate" else ["--op", str(path), "--n", "2"]
        code, out, err = run(capsys, command, *argv)
        assert code == 3 and out == ""
        lines = err.splitlines()
        assert len(lines) == 1 and str(path) in lines[0]
        if command == "folner":
            assert lines[0].startswith("spec error:")

    def test_kron_spec_points_to_the_tensor_subcommand(self, capsys):
        code, _, err = run(capsys, "validate", str(CORPUS / "invalid" / "lattice_pair.json"))
        assert code == 3
        lines = err.splitlines()
        assert len(lines) == 1 and "tensor --op-a" in lines[0]
