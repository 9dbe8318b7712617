import json
import math
from pathlib import Path

import numpy as np
import pytest

import folner_lab as fl
from folner_lab.cli import ConfigError, build_parser, main, parse_f_family, parse_n_list

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
        code, _, _ = run(
            capsys,
            "tensor",
            "--op-a", str(CORPUS / "valid" / "lattice_pair.json"),
            "--op-b", str(CORPUS / "valid" / "shift.json"),
            "--n", "3",
        )
        assert code == 3


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

    @pytest.mark.parametrize("argv", [
        pytest.param(["trace", "--op", HOPPING, "--n", "dyadic:40:40"], id="trace-2^40"),
        pytest.param(["folner", "--op", HOPPING, "--n", "dyadic:62:62"], id="folner-2^62"),
    ])
    def test_oversized_index_array(self, capsys, argv):
        # 8 TiB and 32 EiB of indices: refused against this machine's real
        # memory before the array is built
        code, out, err = run(capsys, *argv)
        assert code == 2 and out == ""
        lines = err.splitlines()
        assert len(lines) == 1 and lines[0].startswith("config error: the index array")

    @pytest.mark.parametrize("argv", [
        pytest.param(["szego", "--op", HOPPING, "--n", "4", "--nodes", "0"], id="nodes-0"),
        pytest.param(["szego", "--op", HOPPING, "--n", "4", "--nodes", "-5"], id="nodes-neg"),
        pytest.param(["szego", "--op", HARPER, "--n", "4", "--moment-order", "-1"],
                     id="moment-order-neg"),
        pytest.param(["szego", "--op", HOPPING, "--n", "4", "--herm-tol", "nan"], id="herm-tol-nan"),
        pytest.param(["szego", "--op", HOPPING, "--n", "4", "--herm-tol", "inf"], id="herm-tol-inf"),
        pytest.param(["szego", "--op", HOPPING, "--n", "4", "--herm-tol=-1e-10"],
                     id="herm-tol-neg"),
        pytest.param(["szego", "--op", HARPER, "--n", "4", "--phi", "nan"], id="szego-phi-nan"),
        pytest.param(["trace", "--op", HARPER, "--n", "4", "--phi", "inf"], id="trace-phi-inf"),
        pytest.param(["folner", "--op", HOPPING, "--n", "4", "--p", "2,2"], id="p-repeated"),
        pytest.param(["folner", "--op", HOPPING, "--n", "4", "--p", "x"], id="p-unparsable"),
    ])
    def test_bad_numeric_option(self, capsys, argv):
        code, out, err = run(capsys, *argv)
        assert code == 2 and out == ""
        lines = err.splitlines()
        assert len(lines) == 1 and lines[0].startswith("config error:")

    def test_memory_error_is_config_error(self, capsys, monkeypatch):
        def exhausted(*args, **kwargs):
            raise MemoryError()

        monkeypatch.setattr(fl.cli, "trace_convergence_report", exhausted)
        code, out, err = run(capsys, "trace", "--op", self.HOPPING, "--n", "4")
        assert code == 2 and out == ""
        assert err.splitlines() == ["config error: out of memory"]
