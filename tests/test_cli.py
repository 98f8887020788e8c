import json

import pytest

from phasefit import SamplerState, model_from_json, sample_n
from phasefit.cli import main


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestFit:
    def test_hypo_fit(self, capsys):
        code, out, err = run_cli(capsys, "fit", "--mean", "1", "--var", "0.4")
        assert code == 0
        model = model_from_json(out)
        assert len(model.branches) == 1
        assert model.branches[0].length == 3
        assert "family=AlmostErlang" in err
        assert "n_transient=3" in err

    def test_hyper_fit(self, capsys):
        code, out, err = run_cli(capsys, "fit", "--mean", "1", "--var", "4")
        assert code == 0
        model = model_from_json(out)
        assert len(model.branches) == 2
        assert model.branches[1].instantaneous
        assert "family=SimplestHyper" in err

    def test_deterministic_exits_2(self, capsys):
        code, _, err = run_cli(capsys, "fit", "--mean", "1", "--var", "0")
        assert code == 2
        assert "DeterministicUnrepresentable" in err

    def test_approx_deterministic_escape_hatch(self, capsys):
        code, out, _ = run_cli(capsys, "fit", "--mean", "1", "--var", "0",
                               "--approx-deterministic", "8")
        assert code == 0
        assert model_from_json(out).branches[0].length == 8

    def test_explicit_families(self, capsys):
        for family, expect in [("sauer-chandy", "SauerChandy"),
                               ("hyper:0.2", "HyperFamily")]:
            code, _, err = run_cli(capsys, "fit", "--mean", "1", "--var", "4",
                                   "--family", family)
            assert code == 0
            assert f"family={expect}" in err

    def test_fit_from_data(self, capsys, tmp_path):
        path = tmp_path / "obs.csv"
        path.write_text("# comment\n1.0\n2.0\n3.0\n4.0\n")
        code, out, err = run_cli(capsys, "fit", "--data", str(path))
        assert code == 0
        model = model_from_json(out)
        assert "achieved_mean=2.5" in err


def _write_model(capsys, tmp_path, mean, var):
    code, out, _ = run_cli(capsys, "fit", "--mean", str(mean), "--var", str(var))
    assert code == 0
    path = tmp_path / "model.json"
    path.write_text(out)
    return path


class TestSample:
    def test_reproducible(self, capsys, tmp_path):
        path = _write_model(capsys, tmp_path, 1, 4)
        _, out1, _ = run_cli(capsys, "sample", "--model", str(path), "-n", "100",
                             "--seed", "7")
        _, out2, _ = run_cli(capsys, "sample", "--model", str(path), "-n", "100",
                             "--seed", "7")
        assert out1 == out2
        lines = out1.strip().splitlines()
        assert lines[0].startswith("# seed=7")
        assert any("generator=pcg64" in line for line in lines[:3])
        assert len([line for line in lines if not line.startswith("#")]) == 100

    def test_n_zero_empty(self, capsys, tmp_path):
        path = _write_model(capsys, tmp_path, 1, 4)
        code, out, _ = run_cli(capsys, "sample", "--model", str(path), "-n", "0",
                               "--seed", "7")
        assert code == 0
        assert out == ""

    def test_stdout_is_header_then_one_repr_per_draw(self, capsys, tmp_path):
        path = _write_model(capsys, tmp_path, 1, 0.4)
        _, out, _ = run_cli(capsys, "sample", "--model", str(path), "-n", "1000",
                            "--seed", "7")
        model = model_from_json(path.read_text())
        xs = sample_n(model, SamplerState(7), 1000)
        lines = out.split("\n")
        assert all(line.startswith("# ") for line in lines[:3])
        assert lines[3:] == [repr(float(x)) for x in xs] + [""]

    def test_negative_n_prints_nothing(self, capsys, tmp_path):
        path = _write_model(capsys, tmp_path, 1, 4)
        code, out, err = run_cli(capsys, "sample", "--model", str(path), "-n", "-1")
        assert code == 2
        assert out == ""
        assert err.startswith("error: NegativeCount")


class TestMoments:
    def test_exponential_k3(self, capsys, tmp_path):
        path = tmp_path / "exp.json"
        path.write_text(json.dumps({"branches": [{"prob": 1.0, "rates": [2.0]}]}))
        code, out, _ = run_cli(capsys, "moments", "--model", str(path), "-k", "3")
        assert code == 0
        rows = dict(line.split("\t") for line in out.strip().splitlines())
        assert float(rows["1"]) == pytest.approx(0.5)
        assert float(rows["3"]) == pytest.approx(6 / 8)

    def test_fitted_second_moment(self, capsys, tmp_path):
        path = _write_model(capsys, tmp_path, 1, 4)
        _, out, _ = run_cli(capsys, "moments", "--model", str(path), "-k", "2")
        rows = dict(line.split("\t") for line in out.strip().splitlines())
        assert float(rows["2"]) == pytest.approx(5.0)

    def test_atom_only_zeros(self, capsys, tmp_path):
        path = tmp_path / "atom.json"
        path.write_text(json.dumps({"branches": [{"prob": 1.0, "rates": []}]}))
        _, out, _ = run_cli(capsys, "moments", "--model", str(path), "-k", "3")
        assert all(float(line.split("\t")[1]) == 0.0
                   for line in out.strip().splitlines())


class TestExport:
    def test_ctmc_json(self, capsys, tmp_path):
        path = _write_model(capsys, tmp_path, 1, 4)
        code, out, _ = run_cli(capsys, "export", "--model", str(path),
                               "--format", "ctmc-json")
        assert code == 0
        data = json.loads(out)
        assert data["labels"] == ["B1.S1", "E"]
        assert data["absorbing"] == 1

    def test_dot(self, capsys, tmp_path):
        path = _write_model(capsys, tmp_path, 1, 0.4)
        code, out, _ = run_cli(capsys, "export", "--model", str(path),
                               "--format", "dot")
        assert code == 0
        assert out.startswith("digraph")

    def test_approx_routing(self, capsys, tmp_path):
        path = _write_model(capsys, tmp_path, 1, 4)
        code, out, _ = run_cli(capsys, "export", "--model", str(path),
                               "--approx-routing", "1e5")
        assert code == 0
        assert json.loads(out)["labels"][0] == "I"


class TestVerify:
    def test_fitted_model_passes(self, capsys, tmp_path):
        path = _write_model(capsys, tmp_path, 1, 0.4)
        code, out, _ = run_cli(capsys, "verify", "--model", str(path),
                               "-n", "200000", "--seed", "1")
        assert code == 0
        assert out.strip() == "PASS"

    def test_corrupted_model_fails_against_targets(self, capsys, tmp_path):
        # halving the rates doubles the mean; verifying against the original
        # targets must FAIL with exit code 1
        code, out, _ = run_cli(capsys, "fit", "--mean", "1", "--var", "0.4")
        model = json.loads(out)
        model["branches"][0]["rates"] = [r / 2 for r in model["branches"][0]["rates"]]
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps(model))
        code, out, _ = run_cli(capsys, "verify", "--model", str(bad),
                               "-n", "100000", "--seed", "1",
                               "--expect-mean", "1", "--expect-var", "0.4")
        assert code == 1
        assert out.strip() == "FAIL"

    def test_small_n_exits_2(self, capsys, tmp_path):
        path = _write_model(capsys, tmp_path, 1, 0.4)
        code, _, err = run_cli(capsys, "verify", "--model", str(path),
                               "-n", "1", "--seed", "1")
        assert code == 2
        assert "InsufficientData" in err


class TestSimulate:
    def test_report_keys(self, capsys, tmp_path):
        path = _write_model(capsys, tmp_path, 0.5, 1)
        code, out, _ = run_cli(capsys, "simulate", "--service", str(path),
                               "--arrival-rate", "1.0", "--customers", "20000",
                               "--seed", "2")
        assert code == 0
        report = dict(line.split("=", 1) for line in out.strip().splitlines())
        assert report["n_served"] == "20000"
        assert float(report["pk_mean_wait"]) == pytest.approx(1.25)
        assert abs(float(report["mean_wait"]) - 1.25) <= 6 * float(report["se_wait"])


def test_pipeline_fit_sample_verify(capsys, tmp_path):
    for mu, var in [(1, 0.4), (1, 4), (2, 4)]:
        path = _write_model(capsys, tmp_path, mu, var)
        code, out, _ = run_cli(capsys, "verify", "--model", str(path),
                               "-n", "100000", "--seed", "3")
        assert code == 0
        assert out.strip() == "PASS"


@pytest.mark.parametrize("argv, lines", [
    (("--mean", "1.1", "--var", "19.36"),
     ["min_second_moment_ratio=16.999999999999996", "lower_bound=2.0"]),
    (("--mean", "1", "--var", "0.4"),
     ["min_second_moment_ratio=1.3333333333333333", "lower_bound=1.3333333333333333"]),
    (("--mean", "1", "--var", "4", "--family", "sauer-chandy"),
     ["min_second_moment_ratio=2.0", "lower_bound=2.0"]),
])
def test_fit_bound_diagnostics(capsys, argv, lines):
    code, _, err = run_cli(capsys, "fit", *argv)
    assert code == 0
    assert err.splitlines()[-2:] == lines


def test_fit_extreme_magnitude_exits_cleanly(capsys):
    code, out, err = run_cli(capsys, "fit", "--mean", "1e-200", "--var", "1e-300")
    assert code in (0, 2)
    assert (code == 0) == bool(out)


MALFORMED_MODELS = ["{}", '{"branches": 5}', '{"branches": [{"rates": [1.0]}]}']
MODEL_COMMANDS = [
    ("moments", "--model"),
    ("sample", "-n", "10", "--model"),
    ("export", "--model"),
    ("verify", "-n", "100", "--model"),
    ("simulate", "--arrival-rate", "0.5", "--customers", "100", "--service"),
]


@pytest.mark.parametrize("text", MALFORMED_MODELS)
@pytest.mark.parametrize("argv", MODEL_COMMANDS, ids=lambda a: a[0])
def test_malformed_model_exits_2(capsys, tmp_path, text, argv):
    path = tmp_path / "model.json"
    path.write_text(text)
    code, out, err = run_cli(capsys, *argv, str(path))
    assert code == 2
    assert err.startswith("error:")
    assert "Traceback" not in err
    assert out == ""
