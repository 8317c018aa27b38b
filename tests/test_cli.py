import json
from pathlib import Path

import numpy as np
import pytest

from orbfree.cli import COMMANDS, main
from orbfree.matrices import MatrixTuple
from orbfree.poly import FamilyLayout

BASE_SPEC = {
    "h": "0.05*x[1,1]*x[2,1] + 0.05*x[2,1]*x[1,1]",
    "families": ["semicircle:2", "semicircle:2"],
    "R": 2.0,
    "Ns": [2, 4],
    "gibbs": {"samples": 20, "sweeps": 60, "burn_in": 20},
    "m": 2,
    "seed": 7,
}

SD_D2 = {"sd": {"D": 2}, "h": "0.01*x[1,1]*x[2,1] + 0.01*x[2,1]*x[1,1]"}
FAMILY_FILE = {"families": ["semicircle:2", "fam.json"], "Ns": [2]}


def matrix_file(sa) -> str:
    """A matrix-tuple JSON file at N=2 filling the given slots."""
    return json.dumps(MatrixTuple(FamilyLayout(2, (1, 1), 2.0), 2, sa=sa).to_json())


def write_spec(tmp_path, extra=None, **overrides):
    spec = dict(BASE_SPEC)
    spec.update(overrides)
    if extra:
        spec.update(extra)
    p = tmp_path / "spec.json"
    p.write_text(json.dumps(spec))
    return p


def run(tmp_path, command, spec_path, subdir="out", *flags):
    out = tmp_path / subdir
    code = main([command, "--spec", str(spec_path), "--out", str(out), *flags])
    return code, out


class TestVerify:
    def test_valid_spec(self, tmp_path):
        spec = write_spec(tmp_path)
        code, out = run(tmp_path, "pressure", spec, "out", "--verify")
        assert code == 0
        report = json.loads((out / "report.json").read_text())
        assert report["ok"]
        manifest = json.loads((out / "manifest.json").read_text())
        assert manifest["config_hash"] == report["config_hash"]

    def test_malformed_polynomial_exits_2(self, tmp_path, capsys):
        spec = write_spec(tmp_path, h="x[1,1 + 2")
        code, _ = run(tmp_path, "pressure", spec, "out", "--verify")
        assert code == 2
        assert "position" in capsys.readouterr().err

    def test_non_selfadjoint_names_word(self, tmp_path, capsys):
        spec = write_spec(tmp_path, h="x[1,1]*x[2,1]")
        code, _ = run(tmp_path, "pressure", spec, "out", "--verify")
        assert code == 2
        assert "self-adjoint" in capsys.readouterr().err
        # the self-adjoint term x[1,1] comes first but is not the offender
        spec = write_spec(tmp_path, h="x[1,1] + x[1,1]*x[2,1]")
        code, _ = run(tmp_path, "pressure", spec, "out", "--verify")
        assert code == 2
        assert capsys.readouterr().err.rstrip().endswith("offending word x[1,1]*x[2,1]")

    def test_index_out_of_range_exits_2(self, tmp_path):
        spec = write_spec(tmp_path, h="x[3,1]^2")
        code, _ = run(tmp_path, "pressure", spec, "out", "--verify")
        assert code == 2

    def test_unsupported_measure_exits_2(self, tmp_path):
        spec = write_spec(tmp_path, families=["semicircle:2", "nosuch:1"])
        code, _ = run(tmp_path, "pressure", spec, "out", "--verify")
        assert code == 2

    def test_missing_spec_file_exits_2(self, tmp_path):
        code, _ = run(tmp_path, "pressure", tmp_path / "absent.json")
        assert code == 2

    @pytest.mark.parametrize("command, spec", [
        ("pressure", {"Ns": [0]}),
        ("pressure", {"Ns": [-3]}),
        ("pressure", [1, 2]),
        ("gibbs", {"gibbs": {"sweeps": 5, "burn_in": 10}}),
        ("relation-check", {"h": "0.1*x[1,1]^2", "gibbs": {"sweeps": 100}}),
    ])
    @pytest.mark.parametrize("flags", [(), ("--verify",)])
    def test_invalid_sizes_exit_2(self, tmp_path, capsys, command, spec, flags):
        p = tmp_path / "spec.json"
        p.write_text(json.dumps(spec if isinstance(spec, list) else {**BASE_SPEC, **spec}))
        code, _ = run(tmp_path, command, p, "out", *flags)
        err = capsys.readouterr().err
        assert code == 2
        assert err.startswith("validation error:")
        assert "Traceback" not in err

    @pytest.mark.parametrize("command, spec, key", [
        *((command, {"R": "two"}, "R") for command in sorted(COMMANDS)),
        ("pressure", {"gibbs": {"samples": "ten"}}, "samples"),
        ("gibbs", {"gibbs": {"eps": "big"}}, "eps"),
        ("gibbs", {"gibbs": {"colour": 1}}, "colour"),
        ("gibbs", {"m": "four"}, "m"),
        ("sd", {"m": "four"}, "m"),
        ("pressure", {"h": 3}, "h"),
        ("pressure", {"families": "semicircle:2"}, "families"),
        ("pressure", {"seed": "x"}, "seed"),
    ])
    @pytest.mark.parametrize("flags", [(), ("--verify",)])
    def test_wrong_types_exit_2(self, tmp_path, capsys, command, spec, key, flags):
        p = tmp_path / "spec.json"
        p.write_text(json.dumps({**BASE_SPEC, **spec}))
        code, _ = run(tmp_path, command, p, "out", *flags)
        err = capsys.readouterr().err
        assert code == 2
        assert err.startswith("validation error:")
        assert repr(key) in err
        assert "Traceback" not in err

    @pytest.mark.parametrize("command, spec, family_file, names", [
        ("sd", SD_D2, None, ["'sd'", "'D'"]),
        ("liberation", SD_D2, None, ["'sd'", "'D'"]),
        ("pressure", FAMILY_FILE, "not json", ["'fam.json'"]),
        ("pressure", FAMILY_FILE, json.dumps({"N": 2}), ["'fam.json'", "'families'"]),
        ("pressure", FAMILY_FILE, json.dumps(
            {"n": 2, "N": 2, "families": [[], [[[0, 0], [1, 0], [0, 0], [0, 0]]]]}),
         ["'fam.json'", "Hermitian"]),
        # the file fills family 1, but the spec reads it for family 2
        ("pressure", FAMILY_FILE, matrix_file({(1, 1): np.diag([1.0, -1.0])}),
         ["'fam.json'", "family 2"]),
    ])
    @pytest.mark.parametrize("flags", [(), ("--verify",)])
    def test_bad_inputs_exit_2(self, tmp_path, capsys, command, spec, family_file, names,
                               flags):
        if family_file is not None:
            (tmp_path / "fam.json").write_text(family_file)
        p = tmp_path / "spec.json"
        p.write_text(json.dumps({**BASE_SPEC, **spec}))
        code, _ = run(tmp_path, command, p, "out", *flags)
        err = capsys.readouterr().err
        assert code == 2
        assert err.startswith("validation error:")
        assert all(name in err for name in names)
        assert "Traceback" not in err

    @pytest.mark.parametrize("flags", [(), ("--verify",)])
    def test_matrix_family_file(self, tmp_path, flags):
        (tmp_path / "fam.json").write_text(matrix_file({(2, 1): np.diag([1.0, -1.0])}))
        p = tmp_path / "spec.json"
        p.write_text(json.dumps({**BASE_SPEC, **FAMILY_FILE}))
        code, out = run(tmp_path, "pressure", p, "out", *flags)
        assert code == 0
        report = json.loads((out / "report.json").read_text())
        if flags:
            assert "family 2: matrix file with N=2" in report["checks"]
        else:
            assert [row["N"] for row in report["per_N"]] == [2]

class TestCommands:
    def test_pressure(self, tmp_path):
        spec = write_spec(tmp_path)
        code, out = run(tmp_path, "pressure", spec)
        assert code == 0
        report = json.loads((out / "report.json").read_text())
        assert len(report["per_N"]) == 2
        rows = (out / "pressure.csv").read_text().strip().splitlines()
        assert rows[0] == "N,logZ,stderr,normalized"
        assert len(rows) == 3

    def test_gibbs_trace_columns(self, tmp_path):
        spec = write_spec(tmp_path, Ns=[3])
        code, out = run(tmp_path, "gibbs", spec)
        assert code == 0
        rows = (out / "energy_trace.csv").read_text().strip().splitlines()
        assert rows[0] == "sweep,beta,energy,acceptance"
        assert len(rows) > 10
        report = json.loads((out / "report.json").read_text())
        assert "1" in report["mean_state"]

    def test_sd(self, tmp_path):
        spec = write_spec(tmp_path, extra={"sd": {"D": 8, "tol": 1e-10}}, m=2)
        code, out = run(tmp_path, "sd", spec)
        assert code == 0
        report = json.loads((out / "report.json").read_text())
        assert report["converged"]
        assert report["residual"] <= 1e-10
        assert (out / "sd_convergence.csv").exists()

    def test_sd_nonconvergence_exits_3_with_artifacts(self, tmp_path):
        spec = write_spec(tmp_path, extra={"sd": {"D": 8, "max_iter": 1, "tol": 1e-14}},
                          h="0.2*x[1,1]*x[2,1] + 0.2*x[2,1]*x[1,1]", m=2)
        code, out = run(tmp_path, "sd", spec)
        assert code == 3
        assert (out / "report.json").exists()  # partial artifacts written
        report = json.loads((out / "report.json").read_text())
        assert not report["converged"]

    def test_freeness(self, tmp_path):
        spec = write_spec(tmp_path, Ns=[40], extra={"conjugations": 5})
        code, out = run(tmp_path, "freeness", spec)
        assert code == 0
        report = json.loads((out / "report.json").read_text())
        assert len(report["distances"]) == 5
        assert report["mean_distance"] < 1.0

    def test_liberation(self, tmp_path):
        spec = write_spec(tmp_path, extra={"sd": {"D": 8}}, m=2)
        code, out = run(tmp_path, "liberation", spec)
        assert code == 0
        report = json.loads((out / "report.json").read_text())
        assert report["pass"]

    def test_property_suite(self, tmp_path):
        spec = write_spec(tmp_path, extra={"h2": "0.1*x[1,1]^2"}, Ns=[2, 4])
        code, out = run(tmp_path, "property-suite", spec)
        assert code == 0
        report = json.loads((out / "report.json").read_text())
        assert report["pass"]

    def test_relation_check(self, tmp_path):
        spec = write_spec(tmp_path, h="0.1*x[1,1]^2", Ns=[3],
                          gibbs={"sweeps": 120, "burn_in": 30, "samples": 40})
        code, out = run(tmp_path, "relation-check", spec)
        assert code == 0
        report = json.loads((out / "report.json").read_text())
        assert not report["any_significant_violation"]

    def test_eta(self, tmp_path):
        spec = write_spec(tmp_path, h="0*x[1,1]", Ns=[8],
                          basis_degree=1,
                          gibbs={"samples": 20, "budget": 10})
        code, out = run(tmp_path, "eta", spec)
        assert code == 0
        report = json.loads((out / "report.json").read_text())
        assert report["value"] <= 0.0


class TestReproducibility:
    def test_byte_identical_reports(self, tmp_path):
        spec = write_spec(tmp_path)
        _, out1 = run(tmp_path, "pressure", spec, "a")
        _, out2 = run(tmp_path, "pressure", spec, "b", "--threads", "4")
        for name in ("report.json", "pressure.csv"):
            assert (out1 / name).read_bytes() == (out2 / name).read_bytes()

    def test_seed_override_changes_hash(self, tmp_path):
        spec = write_spec(tmp_path)
        _, out1 = run(tmp_path, "pressure", spec, "a")
        _, out2 = run(tmp_path, "pressure", spec, "b", "--seed", "99")
        m1 = json.loads((out1 / "manifest.json").read_text())
        m2 = json.loads((out2 / "manifest.json").read_text())
        assert m1["config_hash"] != m2["config_hash"]
