import json
import math

import pytest

from phasefit import (SamplerState, exact_absorbing_ctmc, export_json, markov, model_from_json,
                      model_to_json, sample_n, sampling, sauer_chandy)
from phasefit.cli import main
from tests.test_sampling import HUGE, run_limited


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

    def test_approx_deterministic_past_max_stages_exits_2(self, capsys):
        code, out, err = run_cli(capsys, "fit", "--mean", "1", "--var", "0",
                                 "--approx-deterministic", "2000000")
        assert code == 2
        assert out == ""
        assert "DomainError" in err and "Traceback" not in err

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

    @pytest.mark.parametrize("value, error", [("nan", "NonFiniteObservation"),
                                              ("-inf", "NonFiniteObservation"),
                                              ("-1.0", "NegativeObservation")])
    def test_fit_from_data_refuses_a_bad_observation(self, capsys, tmp_path, value, error):
        path = tmp_path / "obs.csv"
        path.write_text(f"1.0\n{value}\n3.0\n")
        code, out, err = run_cli(capsys, "fit", "--data", str(path))
        assert (code, out) == (2, "")
        assert err.startswith(f"error: {error}: observations must be")


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

    @pytest.mark.parametrize("k", ["0", "-2"])
    def test_order_below_one_exits_2(self, capsys, tmp_path, k):
        path = _write_model(capsys, tmp_path, 1, 4)
        code, out, err = run_cli(capsys, "moments", "--model", str(path), "-k", k)
        assert (code, out) == (2, "")
        assert err.startswith("error: NonPositiveInput")


class TestExport:
    def test_ctmc_json(self, capsys, tmp_path):
        path = _write_model(capsys, tmp_path, 1, 4)
        code, out, _ = run_cli(capsys, "export", "--model", str(path),
                               "--format", "ctmc-json")
        assert code == 0
        data = json.loads(out)
        assert data["labels"] == ["B1.S1", "E"]
        assert data["absorbing"] == 1
        # written a row at a time, with the bytes of the whole text
        ctmc = exact_absorbing_ctmc(model_from_json(path.read_text()))
        assert out == export_json(ctmc) + "\n"

    def test_ctmc_json_failing_partway_leaves_the_rows_written(self, capsys, tmp_path,
                                                                 monkeypatch):
        # streamed, so stdout keeps what came before the failure, and the exit is still 2
        def pieces(ctmc):
            yield "first"
            raise MemoryError
        path = _write_model(capsys, tmp_path, 1, 4)
        monkeypatch.setattr(markov, "export_json_pieces", pieces)
        assert run_cli(capsys, "export", "--model", str(path), "--format", "ctmc-json") == (
            2, "first", "error: MemoryError\n")

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

    def test_huge_routing_rate(self, capsys, tmp_path):
        path = tmp_path / "model.json"
        path.write_text(model_to_json(sauer_chandy(1e-3, 4e-6).model))
        code, out, _ = run_cli(capsys, "export", "--model", str(path),
                               "--approx-routing", "1e8")
        assert code == 0
        assert json.loads(out)["generator"][0][0] == -1e8

    @pytest.mark.parametrize("big", ["nan", "inf", "-1"])
    def test_nonfinite_routing_rate_exits_2(self, capsys, tmp_path, big):
        path = _write_model(capsys, tmp_path, 1, 4)
        code, out, err = run_cli(capsys, "export", "--model", str(path),
                                 "--approx-routing", big)
        assert (code, out) == (2, "")
        assert err.startswith("error: NonPositiveRate")


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

    @pytest.mark.parametrize("target", [("--expect-mean", "nan"), ("--expect-var", "-1"),
                                        ("--expect-mean", "inf")], ids=["nan", "negative", "inf"])
    def test_target_not_finite_or_negative_exits_2(self, capsys, tmp_path, target):
        path = _write_model(capsys, tmp_path, 1, 0.4)
        code, out, err = run_cli(capsys, "verify", "--model", str(path), "-n", "100", *target)
        assert (code, out) == (2, "")
        assert err.startswith("error: NonPositiveInput: targets must be finite and nonnegative")

    @pytest.mark.filterwarnings("error")
    def test_wide_scale_model_passes(self, capsys, tmp_path):
        # mean 1e80, variance 1e160: the fourth central moment, 9e320, is past
        # the float range, and once gave se_variance=nan and a false FAIL
        path = tmp_path / "model.json"
        path.write_text(json.dumps({"branches": [{"prob": 1.0, "rates": [1e-80]}]}))
        code, out, err = run_cli(capsys, "verify", "--model", str(path), "-n", "100000")
        assert (code, out) == (0, "PASS\n")
        se_variance = float(err.split("se_variance=")[1].split()[0])
        assert 0.0 < se_variance < 1e158

    @pytest.mark.filterwarnings("error")
    def test_sample_variance_past_float_range_exits_2(self, capsys, tmp_path):
        # variance 1.78e308, just under the float maximum; the sample variance
        # of these 1000 draws is past it, and once raised a bare OverflowError
        path = tmp_path / "model.json"
        path.write_text(json.dumps({"branches": [{"prob": 1.0, "rates": [7.5e-155]}]}))
        code, out, err = run_cli(capsys, "verify", "--model", str(path), "-n", "1000", "--seed", "2")
        assert (code, out) == (2, "")
        assert err == "error: MomentOverflow: the sample variance exceeds the float range\n"

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

    @pytest.mark.parametrize("mean, arrival_rate", [(0.5, 1.0), (2.0, 0.9)],
                             ids=["stable", "unstable"])
    @pytest.mark.filterwarnings("ignore::phasefit.errors.UnstableSystemWarning")
    def test_every_value_is_a_plain_number_or_bool(self, capsys, tmp_path, mean, arrival_rate):
        path = _write_model(capsys, tmp_path, mean, 1)
        code, out, _ = run_cli(capsys, "simulate", "--service", str(path),
                               "--arrival-rate", str(arrival_rate),
                               "--customers", "2000", "--seed", "2")
        assert code == 0
        for line in out.strip().splitlines():
            key, value = line.split("=", 1)
            if value not in ("True", "False"):
                float(value)  # also parses an int

    # rate-1 service at a 1e306 mean gap: the arrival times pass the float
    # range; rate-1e-306 service at rho = 10: the work in the system does
    @pytest.mark.parametrize("rate, arrival_rate, customers", [
        (1.0, "1e-306", "2000"), (1e-306, "1e-305", "200")], ids=["arrivals", "services"])
    @pytest.mark.filterwarnings("ignore::phasefit.errors.UnstableSystemWarning")
    @pytest.mark.filterwarnings("error")
    def test_times_past_float_range_exit_2(self, capsys, tmp_path, rate, arrival_rate,
                                           customers):
        path = tmp_path / "service.json"
        path.write_text(json.dumps({"branches": [{"prob": 1.0, "rates": [rate]}]}))
        code, out, err = run_cli(capsys, "simulate", "--service", str(path),
                                 "--arrival-rate", arrival_rate, "--customers", customers)
        assert (code, out) == (2, "")
        assert err == "error: MomentOverflow: the last departure time exceeds the float range\n"


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


def test_fit_cv2_past_float_range_exits_2(capsys):
    code, out, err = run_cli(capsys, "fit", "--mean", "1e-10", "--var", "1e300")
    assert (code, out) == (2, "")
    assert err.startswith("error: DomainError: Cv^2")


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


# 1e-308 rates: the mean passes the float range; 1e-160: only the second moment
OVERFLOW_MODEL = {"branches": [{"prob": 1.0, "rates": [1e-308, 1e-308]}]}
OVERFLOW_COMMANDS = [
    ("moments", "-k", "2", "--model"),
    ("verify", "-n", "100", "--model"),
    ("simulate", "--arrival-rate", "0.5", "--customers", "100", "--service"),
]


@pytest.mark.parametrize("argv", OVERFLOW_COMMANDS, ids=lambda a: a[0])
@pytest.mark.filterwarnings("error")
def test_moment_overflow_exits_2(capsys, tmp_path, argv):
    path = tmp_path / "model.json"
    path.write_text(json.dumps(OVERFLOW_MODEL))
    code, out, err = run_cli(capsys, *argv, str(path))
    assert (code, out) == (2, "")
    assert err.startswith("error: MomentOverflow")


# each draw at rate 1e-320 passes the float range, and about 16 in 100 at 1e-308
INFINITE_DRAW_COMMANDS = [
    (1e-320, ("sample", "-n", "100", "--seed", "0", "--model")),
    (1e-308, ("sample", "-n", "100", "--seed", "0", "--model")),
    (1.0, ("simulate", "--arrival-rate", "1e-320", "--customers", "100", "--service")),
]


@pytest.mark.parametrize("rate, argv", INFINITE_DRAW_COMMANDS,
                         ids=["sample_rate_1e-320", "sample_rate_1e-308", "simulate_arrival_rate_1e-320"])
@pytest.mark.filterwarnings("error")
def test_draws_past_float_range_exit_2(capsys, tmp_path, rate, argv):
    path = tmp_path / "model.json"
    path.write_text(json.dumps({"branches": [{"prob": 1.0, "rates": [rate]}]}))
    code, out, err = run_cli(capsys, *argv, str(path))
    assert (code, out) == (2, "")
    assert err == "error: MomentOverflow: a draw exceeds the float range\n"


@pytest.mark.filterwarnings("error")
def test_verify_refuses_overflow_before_drawing(capsys, tmp_path):
    path = tmp_path / "model.json"
    path.write_text(json.dumps(OVERFLOW_MODEL))
    code, out, err = run_cli(capsys, "verify", "--model", str(path))
    assert (code, out) == (2, "")
    assert err.startswith("error: MomentOverflow")


def test_export_past_the_state_cap_exits_2(capsys, tmp_path):
    # its dense generator would be 4098^2 rates; much larger ones once ended in a MemoryError
    path = tmp_path / "model.json"
    path.write_text(json.dumps({"branches": [{"prob": 1.0, "rates": [4097.0] * 4097}]}))
    code, out, err = run_cli(capsys, "export", "--model", str(path))
    assert (code, out) == (2, "")
    assert err.startswith("error: DomainError")


@pytest.mark.filterwarnings("error")
def test_moments_past_order_170(capsys, tmp_path):
    path = tmp_path / "model.json"
    path.write_text(json.dumps({"branches": [{"prob": 1.0, "rates": [2.0]}]}))
    code, out, err = run_cli(capsys, "moments", "--model", str(path), "-k", "171")
    assert (code, err) == (0, "")
    k, value = out.splitlines()[-1].split("\t")
    assert k == "171"
    assert float(value) == pytest.approx(math.factorial(171) / 2**171, rel=1e-13)


@pytest.mark.filterwarnings("error")
def test_verify_variance_near_the_float_range(capsys, tmp_path):
    # mean 1.25e153, variance 1.56e306: the squared deviations sum past 1e308
    path = tmp_path / "model.json"
    path.write_text(json.dumps({"branches": [{"prob": 1.0, "rates": [8e-154]}]}))
    code, out, err = run_cli(capsys, "verify", "--model", str(path), "-n", "100000")
    assert (code, out) == (0, "PASS\n")
    fields = dict(f.split("=") for f in err.split())  # the report goes to stderr
    assert math.isfinite(float(fields["sample_variance"]))


@pytest.mark.filterwarnings("error")
def test_moments_print_nothing_when_a_higher_moment_overflows(capsys, tmp_path):
    path = tmp_path / "model.json"
    path.write_text(json.dumps({"branches": [{"prob": 1.0, "rates": [1e-160]}]}))
    code, out, err = run_cli(capsys, "moments", "--model", str(path), "-k", "2")
    assert (code, out) == (2, "")
    assert err.startswith("error: MomentOverflow: moment_k")


SEEDLESS_COMMANDS = [
    ("fit", "--mean", "1", "--var", "0.4"),
    ("moments", "-k", "3", "--model"),
    ("export", "--format", "dot", "--model"),
]
SEEDED_COMMANDS = [
    ("sample", "-n", "5", "--model"),
    ("verify", "-n", "1000", "--model"),
    ("simulate", "--arrival-rate", "0.5", "--customers", "100", "--service"),
]


def _with_model(capsys, tmp_path, argv):
    if argv[-1] in ("--model", "--service"):
        argv += (str(_write_model(capsys, tmp_path, 1, 4)),)
    return argv


@pytest.mark.parametrize("argv", SEEDLESS_COMMANDS, ids=lambda a: a[0])
def test_invalid_seed_variable_is_ignored_by_commands_without_a_seed(capsys, tmp_path,
                                                                     monkeypatch, argv):
    argv = _with_model(capsys, tmp_path, argv)
    expected = run_cli(capsys, *argv)
    monkeypatch.setenv("PHASEFIT_SEED", "abc")
    assert run_cli(capsys, *argv) == expected
    assert expected[0] == 0


@pytest.mark.parametrize("argv", SEEDED_COMMANDS, ids=lambda a: a[0])
def test_invalid_seed_variable_is_a_usage_error(capsys, tmp_path, monkeypatch, argv):
    argv = _with_model(capsys, tmp_path, argv)
    monkeypatch.setenv("PHASEFIT_SEED", "abc")
    with pytest.raises(SystemExit) as exc:
        main(list(argv))
    out, err = capsys.readouterr()
    assert (exc.value.code, out) == (2, "")
    assert "argument --seed: invalid int value: 'abc'" in err and "Traceback" not in err


def test_seed_variable_sets_the_default_seed(capsys, tmp_path, monkeypatch):
    path = _write_model(capsys, tmp_path, 1, 4)
    expected = run_cli(capsys, "sample", "--model", str(path), "-n", "50", "--seed", "11")
    monkeypatch.setenv("PHASEFIT_SEED", "11")
    assert run_cli(capsys, "sample", "--model", str(path), "-n", "50") == expected


# Counts written as integers: argparse refuses 1e10 for its own reason.
HUGE_COMMANDS = [("sample", "--model", "{model}", "-n", str(HUGE)),
                 ("verify", "--model", "{model}", "-n", str(HUGE)),
                 ("simulate", "--service", "{model}", "--arrival-rate", "0.5",
                  "--customers", str(HUGE))]


@pytest.mark.parametrize("argv", HUGE_COMMANDS, ids=lambda a: a[0])
def test_huge_count_exits_2_without_a_traceback(capsys, tmp_path, argv):
    model = _write_model(capsys, tmp_path, 1, 0.051)  # an almost-Erlang of 20 stages
    proc = run_limited("import sys\nfrom phasefit.cli import main\nsys.exit(main(sys.argv[1:]))",
                       *(a.format(model=model) for a in argv))
    noun = "customers" if argv[0] == "simulate" else "draws"
    assert (proc.returncode, proc.stdout) == (2, "")
    assert proc.stderr == f"error: DomainError: {HUGE} {noun} do not fit in memory\n"


def test_memory_error_past_the_arrays_exits_2(capsys, tmp_path, monkeypatch):
    # as when the text of a sample does not fit: Python's MemoryError has no message
    def fail(*args):
        raise MemoryError
    path = _write_model(capsys, tmp_path, 1, 4)
    monkeypatch.setattr(sampling, "sample_n", fail)
    assert run_cli(capsys, "sample", "--model", str(path), "-n", "5") == (2, "", "error: MemoryError\n")
