import contextlib
import importlib
import io
import json
import math
import pathlib
import sys
import tempfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from orbfree import sdsolver
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

    @pytest.mark.parametrize("h, pos", [
        pytest.param("(" * 3000 + "x[1,1]" + ")" * 3000, 100, id="deep-parentheses"),
        pytest.param("x[1,1]^4000", 7, id="power-degree"),
        pytest.param("(x[1,1]+x[2,1])^12", 16, id="power-terms"),
        pytest.param("(x[1,1]+x[2,1])^10*(x[1,1]+x[2,1])^10", 18, id="power-product"),
    ])
    @pytest.mark.parametrize("flags", [(), ("--verify",)])
    def test_parser_limits_exit_2(self, tmp_path, capsys, h, pos, flags):
        spec = write_spec(tmp_path, h=h)
        code, _ = run(tmp_path, "pressure", spec, "out", *flags)
        err = capsys.readouterr().err
        assert code == 2
        assert f"'h' rejected at position {pos}" in err

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
        ("pressure", {"Ns": [4, 4]}),
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
        # negative seeds reach numpy's generator as seed + N
        ("pressure", {"seed": -10}, "seed"),
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
        ("pressure", {"families": ["semicircle:2", "semicircle:nan"]}, None,
         ["family 2", "'semicircle:nan'", "finite"]),
        ("pressure", FAMILY_FILE, '{"n": 2, "N": 1e999, "families": [[], []]}', ["'fam.json'"]),
        ("pressure", {"h": "1/0*x[1,1]"}, None, ["'h'", "position 0"]),
        # "--out" here is the flag, not a spec key: a directory below a regular file
        ("pressure", {"--out": "fam.json/out"}, "a regular file",
         ["output directory", "fam.json/out", "Not a directory"]),
        # the pressure methods are 'sample' and 'thermodynamic' only
        ("pressure", {"gibbs": {**BASE_SPEC["gibbs"], "method": "direct"}}, None,
         ["'method'", "'gibbs'"]),
    ])
    @pytest.mark.parametrize("flags", [(), ("--verify",)])
    def test_bad_inputs_exit_2(self, tmp_path, capsys, command, spec, family_file, names,
                               flags):
        if family_file is not None:
            (tmp_path / "fam.json").write_text(family_file)
        p = tmp_path / "spec.json"
        p.write_text(json.dumps({**BASE_SPEC, **{k: v for k, v in spec.items() if k != "--out"}}))
        code, _ = run(tmp_path, command, p, spec.get("--out", "out"), *flags)
        err = capsys.readouterr().err
        assert code == 2
        assert err.startswith("validation error:")
        assert all(name in err for name in names)
        assert "Traceback" not in err

    @pytest.mark.parametrize("command, spec", [
        ("pressure", {}),
        ("property-suite", {}),
        ("relation-check", {}),
        ("gibbs", {"gibbs": {**BASE_SPEC["gibbs"], "kind": "matrix"}}),
        # R**2 for h is finite, but the stderr squares the degree-2 moments
        ("gibbs", {"gibbs": {**BASE_SPEC["gibbs"], "kind": "matrix"}, "R": 1e100}),
    ])
    @pytest.mark.parametrize("flags", [(), ("--verify",)])
    def test_overflowing_R_exits_2(self, tmp_path, capsys, command, spec, flags):
        # these commands raise R to the degree they evaluate; R**d beyond the
        # float range crashed them, or reported NaN sides as no violation
        p = tmp_path / "spec.json"
        p.write_text(json.dumps({**BASE_SPEC, "R": 1e200, "Ns": [3],
                                 "h": "0.1*x[1,1]*x[2,1] + 0.1*x[2,1]*x[1,1]", **spec}))
        code, _ = run(tmp_path, command, p, "out", *flags)
        err = capsys.readouterr().err
        assert code == 2
        assert err.startswith("validation error:") and "'R'" in err
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
        assert report["plan_residual"] <= 1e-10
        rows = (out / "sd_convergence.csv").read_text().splitlines()
        assert rows[0] == "iteration,max_delta,contraction_ratio"
        assert rows[1].endswith(",")  # no ratio on the first sweep
        for prev, row in zip(rows[1:], rows[2:]):
            k, delta, ratio = row.split(",")
            assert float(ratio) == float(delta) / float(prev.split(",")[1])

    def test_sd_nonconvergence_exits_3_with_artifacts(self, tmp_path):
        spec = write_spec(tmp_path, extra={"sd": {"D": 8, "max_iter": 1, "tol": 1e-14}},
                          h="0.2*x[1,1]*x[2,1] + 0.2*x[2,1]*x[1,1]", m=2)
        code, out = run(tmp_path, "sd", spec)
        assert code == 3
        assert (out / "report.json").exists()  # partial artifacts written
        report = json.loads((out / "report.json").read_text())
        assert not report["converged"]

    def test_liberation_nonconvergence_writes_sd_artifacts(self, tmp_path):
        spec = write_spec(tmp_path, extra={"sd": {"D": 8, "max_iter": 1}}, m=2)
        codes = {command: run(tmp_path, command, spec, command)[0]
                 for command in ("sd", "liberation")}
        assert codes == {"sd": 3, "liberation": 3}
        sd = json.loads((tmp_path / "sd" / "report.json").read_text())
        lib = json.loads((tmp_path / "liberation" / "report.json").read_text())
        assert lib["sd_converged"] is False
        for key in ("iterations", "residual", "plan_residual"):
            assert lib[key] == sd[key]
        rows = [(tmp_path / command / "sd_convergence.csv").read_text().splitlines()
                for command in ("sd", "liberation")]
        assert rows[0] == rows[1] and len(rows[1]) == 2

    def test_booleans_are_json_booleans(self, tmp_path):
        spec = write_spec(tmp_path, extra={"sd": {"D": 8, "tol": 1e-10}}, m=2)
        assert run(tmp_path, "pressure", spec, "verify", "--verify")[0] == 0
        assert run(tmp_path, "sd", spec, "sd")[0] == 0
        assert run(tmp_path, "liberation", spec, "liberation")[0] == 0
        stalled = write_spec(tmp_path, extra={"sd": {"D": 8, "max_iter": 1}}, m=2)
        assert run(tmp_path, "sd", stalled, "stalled")[0] == 3
        reports = {name: json.loads((tmp_path / name / "report.json").read_text())
                   for name in ("verify", "sd", "liberation", "stalled")}
        assert reports["verify"]["ok"] is True
        assert reports["sd"]["converged"] is True
        assert reports["liberation"]["pass"] is True
        assert reports["stalled"]["converged"] is False

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

    @pytest.mark.parametrize("samples", [1, 2, 3])
    def test_eta_with_too_few_samples_reports_divergence(self, tmp_path, capsys, samples):
        # degree 3 has 3 mixed words, and 3 samples span at most 2 directions,
        # so the Hessian is singular and the objective is unbounded below
        spec = write_spec(tmp_path, Ns=[8], basis_degree=3,
                          gibbs={"samples": samples, "budget": 20})
        code, out = run(tmp_path, "eta", spec)
        captured = capsys.readouterr()
        assert code == 0
        assert "Traceback" not in captured.out + captured.err
        report = json.loads((out / "report.json").read_text())
        assert report["diverged"] and not report["converged"]
        assert report["value"] == "-inf" and report["witness"]


ONE_FAMILY = json.loads((Path(__file__).parent / "data" / "one_family_reports.json").read_text())


class TestOneFamily:
    """One-family specs, whose samples carry no unitary at all, write the
    report and trace bytes recorded when each sample was drawn and scored
    on its own."""

    @pytest.mark.parametrize("command", ["eta", "property-suite"])
    def test_writes_recorded_bytes(self, tmp_path, command):
        case = ONE_FAMILY[command]
        spec = tmp_path / "spec.json"
        spec.write_text(json.dumps(case["spec"]))
        code, out = run(tmp_path, command, spec)
        assert code == 0
        assert {name: (out / name).read_text() for name in case["files"]} == case["files"]


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


def n3_file() -> str:
    """A matrix-tuple JSON file at N=3 filling family 2."""
    layout = FamilyLayout(2, (1, 1), 2.0)
    return json.dumps(MatrixTuple(layout, 3, sa={(2, 1): np.diag([1.0, 0.0, -1.0])}).to_json())


FAMILY_2 = matrix_file({(2, 1): np.diag([1.0, -1.0])})
U_H = {"h": "u[1] + u'[1]"}
Z_H = {"h": "0.3*z[1,1]*x[1,1]*x[2,1] + 0.3*x[2,1]*x[1,1]*z[1,1]"}


class TestResolution:
    """--verify runs the same resolution as a run, so the two agree."""

    @pytest.mark.parametrize("command, spec, family_file, names", [
        # a matrix file whose N is not a size the command builds microstates at
        ("pressure", {**FAMILY_FILE, "Ns": [2]}, n3_file(), ["'fam.json'", "family 2", "N=3"]),
        ("pressure", {"families": ["semicircle:2", "fam.json"], "Ns": [2, 4]}, FAMILY_2,
         ["'fam.json'", "family 2", "N=4"]),
        ("property-suite", {"families": ["semicircle:2", "fam.json"], "Ns": [2, 4]}, FAMILY_2,
         ["'fam.json'", "family 2", "N=4"]),
        ("freeness", {"families": ["semicircle:2", "fam.json"], "Ns": [2, 3]}, FAMILY_2,
         ["'fam.json'", "family 2", "N=3"]),
        ("gibbs", {"families": ["semicircle:2", "fam.json"], "Ns": [3, 2]}, FAMILY_2,
         ["'fam.json'", "family 2", "N=3"]),
        # the default Ns of pressure, [4, 8]
        ("pressure", {"families": ["semicircle:2", "fam.json"], "Ns": None}, FAMILY_2,
         ["'fam.json'", "family 2", "N=4"]),
        # moment targets need measures
        ("eta", {**FAMILY_FILE, "h": "0*x[1,1]"}, FAMILY_2, ["'fam.json'", "family 2", "eta"]),
        # unitary letters in h
        ("pressure", U_H, None, ["'h'", "unitary"]),
        ("gibbs", U_H, None, ["'h'", "unitary"]),
        ("relation-check", U_H, None, ["'h'", "unitary"]),
        ("property-suite", {"h2": "x[1,1]*u[2] + u'[2]*x[1,1]"}, None, ["'h2'", "unitary"]),
        # non-finite measure parameters
        *(("pressure", {"families": ["semicircle:2", measure]}, None, ["family 2", repr(measure)])
          for measure in ("semicircle:nan", "bernoulli:nan", "arcsine:nan,1", "atomic:1@nan")),
        # z letters in h or h2, which take x letters only
        *(("pressure", {**Z_H, "gibbs": {**BASE_SPEC["gibbs"], "method": method}}, None,
           ["'h'", "z[1,1]"]) for method in ("sample", "thermodynamic")),
        ("gibbs", Z_H, None, ["'h'", "z[1,1]"]),
        ("relation-check", Z_H, None, ["'h'", "z[1,1]"]),
        ("property-suite", {"h2": "z[1,1]*x[2,1] + x[2,1]*z[1,1]"}, None, ["'h2'", "z[1,1]"]),
    ])
    @pytest.mark.parametrize("flags", [(), ("--verify",)])
    def test_verify_rejects_what_the_run_rejects(self, tmp_path, capsys, command, spec,
                                                 family_file, names, flags):
        if family_file is not None:
            (tmp_path / "fam.json").write_text(family_file)
        full = {k: v for k, v in {**BASE_SPEC, **spec}.items() if v is not None}
        p = tmp_path / "spec.json"
        p.write_text(json.dumps(full))
        code, _ = run(tmp_path, command, p, "out", *flags)
        err = capsys.readouterr().err
        assert code == 2
        assert err.startswith("validation error:")
        assert all(name in err for name in names), err
        assert "Traceback" not in err

    @pytest.mark.parametrize("command, gibbs", [
        ("relation-check", {"budget": 5}),
        ("relation-check", {"kind": "unitary-orbital"}),
        ("pressure", {"method": "thermodynamic", "budget": 5, "kind": "matrix"}),
    ])
    def test_gibbs_keys_a_chain_does_not_read_are_ignored(self, tmp_path, command, gibbs):
        spec = write_spec(tmp_path, Ns=[2], gibbs={"sweeps": 30, "burn_in": 10, "samples": 10,
                                                   **gibbs})
        assert run(tmp_path, command, spec, "v", "--verify")[0] == 0
        assert run(tmp_path, command, spec, "run")[0] == 0

    @pytest.mark.parametrize("flags", [(), ("--verify",)])
    def test_negative_seed_flag_exits_2(self, tmp_path, capsys, flags):
        code, _ = run(tmp_path, "pressure", write_spec(tmp_path), "out", "--seed", "-10", *flags)
        assert code == 2
        assert capsys.readouterr().err.startswith("validation error: the seed")

    @pytest.mark.parametrize("command, spec, key", [
        ("pressure", {"Ns": [100000]}, "'Ns'"),
        ("property-suite", {"Ns": [2, 100000]}, "'Ns'"),
        ("eta", {"Ns": [100000]}, "'Ns'"),
        ("gibbs", {"Ns": [64], "gibbs": {"sweeps": 10**8}}, "'sweeps'"),
        ("gibbs", {"Ns": [64], "gibbs": {"kind": "matrix", "sweeps": 10**8, "thinning": 1}},
         "'sweeps'"),
        ("relation-check", {"Ns": [8, 64], "gibbs": {"sweeps": 10**8}}, "'sweeps'"),
    ])
    def test_oversized_spec_exits_2(self, tmp_path, capsys, command, spec, key):
        # under --verify only: a run that passed this check would try to
        # allocate what the spec asks for
        p = tmp_path / "spec.json"
        p.write_text(json.dumps({**BASE_SPEC, **spec}))
        code, _ = run(tmp_path, command, p, "out", "--verify")
        err = capsys.readouterr().err
        assert code == 2
        assert err.startswith("validation error:") and key in err and "GiB bound" in err

    @pytest.mark.parametrize("command, spec, key", [
        ("pressure", {"gibbs": {"samples": 10**12}}, "'samples'"),
        ("eta", {"gibbs": {"samples": 10**12}}, "'samples'"),
        ("eta", {"basis_degree": 40}, "'basis_degree'"),
        ("freeness", {"conjugations": 10**12}, "'conjugations'"),
        ("property-suite", {"gibbs": {"samples": 10**12}}, "'samples'"),
        ("relation-check", {"gibbs": {"samples": 10**12}}, "'samples'"),
    ])
    def test_oversized_sample_set_exits_2(self, tmp_path, capsys, command, spec, key):
        # under --verify only: the run would hold 8 bytes per sample value
        p = tmp_path / "spec.json"
        p.write_text(json.dumps({**BASE_SPEC, **spec}))
        code, _ = run(tmp_path, command, p, "out", "--verify")
        err = capsys.readouterr().err
        assert code == 2
        assert err.startswith("validation error:") and key in err and "GiB bound" in err

    @pytest.mark.parametrize("command, spec", [
        ("pressure", {"gibbs": {"samples": 2**29}}),
        ("pressure", {"gibbs": {"samples": 10**12, "method": "thermodynamic"}}),
        ("freeness", {"conjugations": 2**29}),
        ("gibbs", {"gibbs": {"samples": 10**12}}),
    ])
    def test_sample_bound_counts_only_what_is_held(self, tmp_path, command, spec):
        # 2^29 values of 8 bytes are 4 GiB, the bound itself; a chain reads
        # no 'samples'
        p = tmp_path / "spec.json"
        p.write_text(json.dumps({**BASE_SPEC, **spec}))
        assert run(tmp_path, command, p, "out", "--verify")[0] == 0

    @pytest.mark.parametrize("N, code", [(16384, 0), (16385, 2)])
    def test_size_bound_is_inclusive(self, tmp_path, N, code):
        # one family at N = 2^14 holds 16 N^2 = 4 GiB, the bound itself
        spec = write_spec(tmp_path, families=["semicircle:2"], h="0.1*x[1,1]", Ns=[N])
        assert run(tmp_path, "pressure", spec, "out", "--verify")[0] == code

    def test_every_benchmark_spec_verifies(self, tmp_path, monkeypatch):
        # the size bounds and every other check pass the benchmark's specs;
        # no bytecode is written into perfbench/
        monkeypatch.setattr(sys, "dont_write_bytecode", True)
        monkeypatch.syspath_prepend(str(Path(__file__).resolve().parents[1] / "perfbench"))
        workloads = importlib.import_module("workloads")
        for name in workloads.WORKLOADS:
            for step, seed in workloads.steps(name, 0):
                if step.command == "chi":  # a library call, not a CLI command
                    continue
                spec = workloads.write_spec(step, seed, tmp_path)
                assert run(tmp_path, step.command, spec, step.name, "--verify")[0] == 0, step.name

    def test_each_family_file_read_once(self, tmp_path, monkeypatch):
        for k in (1, 2):
            (tmp_path / f"fam{k}.json").write_text(
                matrix_file({(k, 1): np.diag([1.0, -1.0])}))
        spec = write_spec(tmp_path, families=["fam1.json", "fam2.json"], Ns=[2])
        reads = []
        real_open = pathlib.Path.open

        def counting_open(path, *args, **kwargs):
            reads.append(path.name)
            return real_open(path, *args, **kwargs)

        monkeypatch.setattr(pathlib.Path, "open", counting_open)
        code, out = run(tmp_path, "pressure", spec)
        assert code == 0
        assert [row["N"] for row in json.loads((out / "report.json").read_text())["per_N"]] == [2]
        assert sorted(name for name in reads if name.startswith("fam")) == ["fam1.json", "fam2.json"]

    @pytest.mark.parametrize("command", ["sd", "liberation"])
    def test_sd_problem_built_once(self, tmp_path, monkeypatch, command):
        builds = []
        real = sdsolver.SDProblem.__post_init__

        def counting(problem):
            builds.append(problem)
            real(problem)

        monkeypatch.setattr(sdsolver.SDProblem, "__post_init__", counting)
        spec = write_spec(tmp_path, h="0.01*x[1,1]", extra={"sd": {"D": 5}})
        assert run(tmp_path, command, spec)[0] == 0
        assert len(builds) == 1


# ---------------------------------------------------------------------------
# spec fuzzer: one mutation of a small valid spec per example

FUZZ_SPEC = {
    "h": "0.05*x[1,1]*x[2,1] + 0.05*x[2,1]*x[1,1]",
    "families": ["semicircle:2", "bernoulli:1"],
    "R": 2.0,
    "Ns": [2],
    "m": 2,
    "seed": 1,
    "basis_degree": 1,
    "conjugations": 2,
    "gibbs": {"samples": 4, "budget": 4, "sweeps": 6, "burn_in": 2, "thinning": 2},
    "sd": {"D": 6, "max_iter": 20},
}
# sd and liberation solve a single-family h, which converges in a few sweeps
FUZZ_SD_H = "0.02*x[1,1]^2 + 0.01*x[2,1]"

TOP_KEYS = ("Ns", "seed", "R", "m", "h", "h2", "basis_degree", "conjugations", "families")
GIBBS_KEYS = ("kind", "method", "samples", "budget", "beta", "eps", "sweeps", "burn_in",
              "thinning")
SD_KEYS = ("D", "damping", "max_iter", "tol")
BAD_VALUES = ("x", 0, -1, -2.5, math.nan, math.inf, -math.inf, True, None, [], {})

FAMILY_FILES = {
    "not json": "not json",
    "no families key": json.dumps({"N": 2}),
    "not Hermitian": json.dumps(
        {"n": 2, "N": 2, "families": [[], [[[0, 0], [1, 0], [0, 0], [0, 0]]]]}),
    "N=3": n3_file(),
    "fills family 1": matrix_file({(1, 1): np.diag([1.0, -1.0])}),
    "valid": FAMILY_2,
}

params = st.sampled_from(["0", "1", "2", "-1", "0.5", "3", "nan", "inf", "-inf", "x"])
measures = st.one_of(
    st.builds("semicircle:{}".format, params),
    st.builds("bernoulli:{}".format, params),
    st.builds("arcsine:{},{}".format, params, params),
    st.builds("atomic:{}@{},{}@{}".format, params, params, params, params),
    st.builds("atomic:1@{}".format, params),
)
# (letter, its adjoint); x[3,1] is outside the two-family layout
letters = st.sampled_from([("x[1,1]", "x[1,1]"), ("x[2,1]", "x[2,1]"), ("z[1,1]", "z[1,1]"),
                           ("z[2,1]", "z[2,1]"), ("u[1]", "u'[1]"), ("u'[2]", "u[2]"),
                           ("x[3,1]", "x[3,1]")])


def term(coeff: str, word: list, with_adjoint: bool) -> str:
    """c*w, or c*w + c*w*, so that some drawn h are self-adjoint."""
    text = f"{coeff}*" + "*".join(letter for letter, _ in word)
    if with_adjoint:
        text += f" + {coeff}*" + "*".join(adj for _, adj in reversed(word))
    return text


terms = st.builds(term, st.sampled_from(["0.05", "-0.1", "1/3"]),
                  st.lists(letters, min_size=1, max_size=3), st.booleans())
polys = st.lists(terms, min_size=1, max_size=2).map(" + ".join)

mutations = st.one_of(
    st.tuples(st.just("top"), st.sampled_from(TOP_KEYS), st.sampled_from(BAD_VALUES)),
    st.tuples(st.just("gibbs"), st.sampled_from(GIBBS_KEYS), st.sampled_from(BAD_VALUES)),
    st.tuples(st.just("sd"), st.sampled_from(SD_KEYS), st.sampled_from(BAD_VALUES)),
    st.tuples(st.just("unknown"), st.sampled_from(["gibbs", "sd"]), st.just("colour")),
    st.tuples(st.just("measure"), st.sampled_from([0, 1]), measures),
    st.tuples(st.just("file"), st.sampled_from([0, 1]), st.sampled_from(sorted(FAMILY_FILES))),
    st.tuples(st.just("Ns"), st.just("Ns"), st.lists(st.integers(-1, 4), max_size=3)),
    st.tuples(st.just("h"), st.sampled_from(["h", "h2"]), polys),
)


def mutate(spec: dict, mutation, directory: Path) -> dict:
    where, key, value = mutation
    spec = json.loads(json.dumps(spec))
    if where in ("top", "Ns", "h"):
        spec[key] = value
    elif where in ("gibbs", "sd"):
        spec[where][key] = value
    elif where == "unknown":
        spec[key][value] = 1
    elif where == "measure":
        spec["families"][key] = value
    else:
        (directory / "fam.json").write_text(FAMILY_FILES[value])
        spec["families"][key] = "fam.json"
    return spec


def quiet_main(argv) -> int:
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
        return main(argv)


class TestSpecFuzz:
    @settings(max_examples=400, deadline=None, derandomize=True, database=None)
    @given(st.sampled_from(sorted(COMMANDS)), mutations)
    def test_verify_and_run_agree_on_exit_codes(self, command, mutation):
        base = dict(FUZZ_SPEC, h=FUZZ_SD_H) if command in ("sd", "liberation") else FUZZ_SPEC
        with tempfile.TemporaryDirectory() as tmp:
            directory = Path(tmp)
            spec_path = directory / "spec.json"
            spec_path.write_text(json.dumps(mutate(base, mutation, directory)))
            argv = [command, "--spec", str(spec_path), "--out", str(directory / "out")]
            verified = quiet_main(argv + ["--verify"])
            ran = quiet_main(argv)
        assert verified in (0, 2)
        assert ran in (0, 2, 3)
        assert (verified == 2) == (ran == 2)
