import csv
import json
import math

import numpy as np
import pytest

from predgrad.analysis import CostModel, q_objective
from predgrad.cli import main

TRAIN = ["train", "--task", "regression", "--n", "400", "--input-dim", "6", "--hidden", "8",
         "--eval-every", "0"]


def run(capsys, args):
    code = main(args)
    return code, capsys.readouterr().err


def error_type(err):
    """The error type of the machine-readable error line."""
    lines = [line for line in err.splitlines() if line.startswith("error:")]
    assert len(lines) == 1, err
    return lines[0].split(":")[1]


def test_train_runs(tmp_path, capsys):
    code, err = run(capsys, TRAIN + ["--max-steps", "3", "--outdir", str(tmp_path)])
    assert code == 0, err
    assert (tmp_path / "metrics.csv").exists() and (tmp_path / "checkpoint.npz").exists()


@pytest.mark.parametrize("extra", [["--batch-size", "0"], ["--control-fraction", "2"],
                                   ["--outdir", "a-file"]])
def test_bad_config_exits_2(tmp_path, capsys, monkeypatch, extra):
    monkeypatch.chdir(tmp_path)
    (tmp_path / "a-file").write_text("")
    code, err = run(capsys, TRAIN + ["--outdir", str(tmp_path)] + extra)
    assert code == 2 and error_type(err) == "ConfigError"
    assert len(err.splitlines()) == 1, err


def test_unknown_config_file_key_exits_2(tmp_path, capsys):
    cfg = tmp_path / "run.cfg"
    cfg.write_text("no_such_key = 1\n")
    code, err = run(capsys, ["--config", str(cfg)] + TRAIN + ["--outdir", str(tmp_path)])
    assert code == 2 and error_type(err) == "ConfigError"


def test_bad_data_exits_3(tmp_path, capsys):
    code, err = run(capsys, ["train", "--data", str(tmp_path / "missing.csv"),
                             "--outdir", str(tmp_path)])
    assert code == 3 and error_type(err) == "DataError"
    bad = tmp_path / "bad.csv"
    bad.write_text("x0,target\n1.0,2.0\n1.0,oops\n")
    code, err = run(capsys, ["train", "--data", str(bad), "--outdir", str(tmp_path)])
    assert code == 3 and error_type(err) == "FormatError"
    code, err = run(capsys, ["train", "--data", str(tmp_path), "--outdir", str(tmp_path)])
    assert code == 3 and error_type(err) == "DataError" and len(err.splitlines()) == 1


def test_divergence_exits_4(tmp_path, capsys):
    with np.errstate(all="ignore"):
        code, err = run(capsys, TRAIN + ["--learning-rate", "1e4", "--epochs", "10",
                                         "--max-steps", "50", "--outdir", str(tmp_path)])
    assert code == 4 and error_type(err) == "NumericError"
    assert "at step" in err
    assert (tmp_path / "config.txt").exists()   # the run went ahead: its record stays


COMMANDS = {
    "gen-data": ["gen-data", "--task", "blobs", "--n", "50"],
    "train": TRAIN + ["--max-steps", "2"],
    "compare": ["compare"] + TRAIN[1:] + ["--budget", "300", "--max-steps", "2"],
    "analyze": ["analyze", "--f", "0.25", "--rho", "0.9"],
    "simulate": ["simulate", "--trials", "100", "--kappa", "0.5"],
}


def test_written_config_is_a_valid_config_file(tmp_path, capsys):
    # each command's resolved options, read back from its config.txt, resolve
    # to the same options
    for command, argv in COMMANDS.items():
        first, second = tmp_path / command / "first", tmp_path / command / "second"
        code, err = run(capsys, argv + ["--seed", "3", "--outdir", str(first)])
        assert code == 0, err
        code, err = run(capsys, ["--config", str(first / "config.txt"), command,
                                 "--outdir", str(second)])
        assert code == 0, err
        assert (second / "config.txt").read_text() == \
            (first / "config.txt").read_text().replace(str(first), str(second))


# config files written by older versions set these options, now removed:
# (key, value, the command the file is for)
RETIRED = {"warmup": ("warmup", "true", TRAIN), "loss": ("loss", "auto", TRAIN),
           "smoothing": ("smoothing", "0.0", TRAIN), "lr_decay": ("lr_decay", "0.0", TRAIN),
           "algo": ("algo", "vanilla", TRAIN), "ridge_lambda": ("ridge_lambda", "0.5", TRAIN),
           "compare-epochs": ("epochs", "3", COMMANDS["compare"]),
           "sigma_h": ("sigma_h", "2.0", COMMANDS["simulate"]),
           "tau": ("tau", "0.5", COMMANDS["simulate"]),
           "mu": ("mu", "0.3", COMMANDS["simulate"]),
           "mu_h": ("mu_h", "-1.0", COMMANDS["simulate"]),
           "momentum": ("momentum", "0.9", TRAIN),
           "compare-momentum": ("momentum", "0.9", COMMANDS["compare"])}


@pytest.mark.parametrize("key, value, argv", RETIRED.values(), ids=RETIRED)
def test_a_retired_option_exits_2(tmp_path, capsys, key, value, argv):
    # as a config file line, and as a flag
    cfg, flag = tmp_path / "old.cfg", f"--{key.replace('_', '-')}={value}"
    cfg.write_text(f"seed = 1\n{key} = {value}\n")
    code, err = run(capsys, ["--config", str(cfg)] + argv + ["--outdir", str(tmp_path)])
    assert code == 2 and error_type(err) == "ConfigError"
    assert f"old.cfg:2: unrecognized arguments: {flag}" in err
    code, err = run(capsys, argv + [flag, "--outdir", str(tmp_path)])
    assert code == 2 and error_type(err) == "ConfigError"
    assert err == f"error:ConfigError:unrecognized arguments: {flag}\n"
    assert not (tmp_path / "config.txt").exists()


def test_compare_writes_the_report(tmp_path, capsys):
    code = main(["compare"] + TRAIN[1:] + ["--budget", "1000", "--outdir", str(tmp_path)])
    out, err = capsys.readouterr()
    assert code == 0, err
    report = json.loads((tmp_path / "report.json").read_text())
    assert set(report) == {
        "control_fraction", "budget", "gamma_f", "vanilla_steps", "predicted_steps",
        "vanilla_final_loss", "predicted_final_loss", "vanilla_final_val",
        "predicted_final_val", "vanilla_cost_units", "predicted_cost_units",
        "rho_hat_trunk_mean", "kappa_hat_mean", "phi_hat_mean", "rho_star_measured",
        "break_even_verdict"}
    # one ledger, the budget's, covers every pass; the printout has no other
    printed = dict(line.split(" ", 1) for line in out.splitlines())
    assert not any("warmup" in key or "total" in key for key in printed)
    assert 0 < report["predicted_cost_units"] <= 1000


def test_analyze_writes_the_default_grid(tmp_path, capsys):
    code, err = run(capsys, ["analyze", "--outdir", str(tmp_path)])
    assert code == 0, err
    with open(tmp_path / "sweep.csv", newline="") as fh:
        rows = list(csv.DictReader(fh))
    assert len(rows) == 20 * 21   # f in 0.05..1, rho in 0..1, kappa 1
    for row in rows:
        f, rho, kappa = (float(row[key]) for key in ("f", "rho", "kappa"))
        assert float(row["Q"]) == q_objective(CostModel(), f, rho, kappa)


def test_analyze_at_kappa_0_reports_the_limits(tmp_path, capsys):
    # a prediction that does not vary: rho_star and rho_switch are +inf, and
    # Q = gamma(f) / f is least at f = 1
    code = main(["analyze", "--f", "0.25", "--kappa", "0", "--rho", "0.9",
                 "--outdir", str(tmp_path)])
    out, err = capsys.readouterr()
    assert code == 0, err
    printed = dict(line.split(" ", 1) for line in out.splitlines())
    assert (printed["rho_star"], printed["rho_switch"], printed["f_star"]) \
        == ("inf", "inf", "1.0")
    assert printed["break_even"] == "False"


@pytest.mark.parametrize("extra", [[], ["--kappa", "0"]])  # kappa 0: h does not vary
def test_simulate_writes_a_finite_ratio(tmp_path, capsys, extra):
    trials, dim = 2000, 8
    code, err = run(capsys, ["simulate", "--trials", str(trials), "--dim", str(dim),
                             "--outdir", str(tmp_path)] + extra)
    assert code == 0, err
    with open(tmp_path / "simulation.csv", newline="") as fh:
        (row,) = csv.DictReader(fh)
    ratio = float(row["ratio"])
    assert math.isfinite(ratio)
    assert abs(ratio - 1.0) <= 6.0 * math.sqrt(2.0 / (dim * trials))


@pytest.mark.parametrize("first, then, code", [
    ([], ["--predictor", "feedback"], 2),
    (["--predictor", "structured"], ["--predictor", "feedback"], 2),
    (["--predictor", "feedback"], ["--predictor", "feedback"], 0),
], ids=["vanilla-to-feedback", "structured-to-feedback", "feedback-to-feedback"])
def test_resume_checks_the_requested_algorithm(tmp_path, capsys, first, then, code):
    first_dir, second_dir = tmp_path / "first", tmp_path / "second"
    got, err = run(capsys, TRAIN + first + ["--max-steps", "2", "--outdir", str(first_dir)])
    assert got == 0, err
    got, err = run(capsys, TRAIN + then + [
        "--max-steps", "4", "--resume", str(first_dir / "checkpoint.npz"),
        "--outdir", str(second_dir)])
    assert got == code, err
    if code:
        assert error_type(err) == "ConfigError"
        held = first[-1] if first else "none"
        assert repr(held) in err and repr(then[-1]) in err


def test_a_fit_buffer_below_d_plus_1_rows_exits_2(tmp_path, capsys):
    code, err = run(capsys, ["train", "--task", "blobs", "--n", "400", "--hidden", "16",
                             "--predictor", "structured", "--buffer-capacity", "8",
                             "--max-steps", "2", "--outdir", str(tmp_path)])
    assert code == 2 and error_type(err) == "ConfigError"
    assert "capacity 8 is below the D+1 = 17" in err and "ring" in err


def test_a_wide_feedback_run_needs_no_d_plus_1_rows(tmp_path, capsys):
    # D+1 = 257 is above the ring's 256 rows, but a feedback fit needs only C = 3
    code, err = run(capsys, ["train", "--task", "blobs", "--n", "3000", "--hidden", "256,256",
                             "--predictor", "feedback", "--max-steps", "3",
                             "--outdir", str(tmp_path)])
    assert code == 0, err
    with open(tmp_path / "metrics.csv", newline="") as fh:
        assert [row["refit"] for row in csv.DictReader(fh)] == ["1", "0", "0"]


BAD_ARGUMENTS = {"bad-choice": ("predictor", "structred"), "bad-number": ("batch_size", "abc"),
                 "unknown-option": ("no_such_option", "1")}


@pytest.mark.parametrize("source", ["flag", "config-file"])
@pytest.mark.parametrize("key, value", BAD_ARGUMENTS.values(), ids=BAD_ARGUMENTS)
def test_a_bad_argument_exits_2_with_one_error_line(tmp_path, capsys, source, key, value):
    # a config file in both cases; the error names it, and the bad line
    # (its third), exactly when the bad value came from it
    cfg = tmp_path / "run.cfg"
    good = "max_steps = 2\n# a comment\n"
    if source == "flag":
        cfg.write_text(good)
        argv = ["--config", str(cfg)] + TRAIN + [f"--{key.replace('_', '-')}", value]
    else:
        cfg.write_text(good + f"{key} = {value}\nseed = 1\n")
        argv = ["--config", str(cfg)] + TRAIN
    code, err = run(capsys, argv + ["--outdir", str(tmp_path)])
    assert code == 2 and error_type(err) == "ConfigError"
    assert len(err.splitlines()) == 1, err   # no usage text, no traceback
    assert not (tmp_path / "metrics.csv").exists()
    assert err.startswith(f"error:ConfigError:{cfg}:3: ") == (source == "config-file"), err
    assert ("run.cfg" in err) == (source == "config-file"), err


def test_flags_override_the_config_file_and_none_keeps_the_default(tmp_path, capsys):
    # none is the default of --budget, and no value of --learning-rate
    cfg = tmp_path / "run.cfg"
    cfg.write_text("batch_size = 8\nbudget = none\nmax_steps = 2\n")
    code, err = run(capsys, ["--config", str(cfg)] + TRAIN + ["--batch-size", "16",
                                                               "--outdir", str(tmp_path)])
    assert code == 0, err
    written = dict(line.split(" = ") for line in
                   (tmp_path / "config.txt").read_text().splitlines())
    assert (written["batch_size"], written["budget"], written["max_steps"]) \
        == ("16", "none", "2")
    cfg.write_text("max_steps = 2\nlearning_rate = none\n")
    code, err = run(capsys, ["--config", str(cfg)] + TRAIN + ["--outdir", str(tmp_path)])
    assert code == 2 and err.startswith(f"error:ConfigError:{cfg}:2: "), err


def test_a_predictor_none_line_means_none(tmp_path, capsys):
    cfg = tmp_path / "run.cfg"
    cfg.write_text("predictor = none\nmax_steps = 2\n")
    code, err = run(capsys, ["--config", str(cfg), "compare"] + TRAIN[1:] + [
        "--budget", "1000", "--outdir", str(tmp_path / "compare")])
    assert code == 2 and error_type(err) == "ConfigError"
    assert len(err.splitlines()) == 1 and err.startswith(f"error:ConfigError:{cfg}:1: "), err
    assert not (tmp_path / "compare" / "metrics_vanilla.csv").exists()
    code, err = run(capsys, ["--config", str(cfg)] + TRAIN + ["--outdir", str(tmp_path)])
    assert code == 0, err
    with np.load(tmp_path / "checkpoint.npz") as z:
        header = json.loads(bytes(z["header"]).decode("utf-8"))
    assert header["predictor_kind"] == "none"


def test_config_equals_form_is_read_and_an_abbreviation_is_refused(tmp_path, capsys):
    cfg = tmp_path / "run.cfg"
    cfg.write_text("predictor = structred\n")
    for flag in ([f"--config={cfg}"], ["--conf", str(cfg)]):
        code, err = run(capsys, flag + TRAIN + ["--outdir", str(tmp_path)])
        assert code == 2 and error_type(err) == "ConfigError", flag


def test_train_runs_the_predictor_it_is_given(tmp_path, capsys):
    code = main(TRAIN + ["--predictor", "feedback", "--max-steps", "3",
                         "--outdir", str(tmp_path)])
    out, err = capsys.readouterr()
    assert code == 0, err
    with np.load(tmp_path / "checkpoint.npz") as z:
        header = json.loads(bytes(z["header"]).decode("utf-8"))
    assert header["predictor_kind"] == "feedback"
    # batches of 32 at f = 0.25: after a vanilla opening step, 32 forwards and
    # backwards, 8 control rows a forward and a backward and 24 predicted rows
    # a cheap forward
    printed = dict(line.split(" ", 1) for line in out.splitlines())
    cm = CostModel()
    assert float(printed["cost_units"]) == pytest.approx(
        32 * cm.vanilla_per_example + 2 * (8 * cm.vanilla_per_example + 24 * cm.cheap_forward))
    written = dict(line.split(" = ") for line in
                   (tmp_path / "config.txt").read_text().splitlines())
    assert written["predictor"] == "feedback" and "algo" not in written


@pytest.mark.parametrize("budget, steps, units", [("326.4", 8, 326.4),
                                                   ("122.39999999999999", 2, 81.6)])
def test_train_stops_at_the_last_step_the_ledger_prices_within_the_budget(
        tmp_path, capsys, budget, steps, units):
    # batches of 32 at f = 0.25 cost 40.8 units a step: 8 steps are exactly
    # 326.4 by the ledger, and 3 steps, 122.4, exceed 122.39999999999999. The
    # perfect predictor takes no opening steps, so every step costs that
    code = main(["train", "--task", "regression", "--n", "1000", "--predictor", "perfect",
                 "--epochs", "5", "--budget", budget, "--outdir", str(tmp_path)])
    out, err = capsys.readouterr()
    assert code == 0, err
    printed = dict(line.split(" ", 1) for line in out.splitlines())
    assert int(printed["steps"]) == steps and float(printed["cost_units"]) == units


def test_compare_refuses_the_none_predictor(tmp_path, capsys):
    code, err = run(capsys, ["compare"] + TRAIN[1:] + ["--predictor", "none",
                                                       "--budget", "1000",
                                                       "--outdir", str(tmp_path)])
    assert code == 2 and error_type(err) == "ConfigError"
    assert len(err.splitlines()) == 1, err
    assert not (tmp_path / "metrics_vanilla.csv").exists()


def rewrite_checkpoint(path, drop=(), arrays=None, **header):
    """Rewrite the checkpoint at ``path`` without the entries named in
    ``drop``, an array's name or "header:<key>", with the ``arrays`` and the
    ``header`` keys set; a callable value is applied to the value held."""
    def value(new, held):
        return new(held) if callable(new) else new

    with np.load(path) as z:
        kept = {key: z[key] for key in z.files if key not in drop}
    held = json.loads(bytes(kept["header"]).decode("utf-8"))
    held.update((key, value(new, held.get(key))) for key, new in header.items())
    held = {key: v for key, v in held.items() if f"header:{key}" not in drop}
    kept.update((key, value(new, kept.get(key))) for key, new in (arrays or {}).items())
    kept["header"] = np.frombuffer(json.dumps(held).encode(), dtype=np.uint8)
    np.savez(path, **kept)


def rewrite_header(path, text):
    """Rewrite the checkpoint at ``path`` with the header bytes ``text``."""
    with np.load(path) as z:
        kept = dict(z)
    kept["header"] = np.frombuffer(text.encode(), dtype=np.uint8)
    np.savez(path, **kept)


def test_the_retired_scalar_predictor_exits_2(tmp_path, capsys):
    # older versions had a scalar predictor; its checkpoints and flag are refused
    code, err = run(capsys, TRAIN + ["--predictor", "structured", "--max-steps", "2",
                                     "--outdir", str(tmp_path)])
    assert code == 0, err
    ckpt = tmp_path / "checkpoint.npz"
    rewrite_checkpoint(ckpt, arrays={"pred_coef": np.zeros((8 * 6 + 8, 9))},
                       predictor_kind="scalar")
    for then in ([], ["--predictor", "scalar"]):
        code, err = run(capsys, TRAIN + then + ["--max-steps", "4", "--resume", str(ckpt),
                                                "--outdir", str(tmp_path / "resumed")])
        assert code == 2 and error_type(err) == "ConfigError"
        assert "'scalar'" in err
    assert not (tmp_path / "resumed" / "metrics.csv").exists()


BAD_CHECKPOINTS = {
    "missing-file": (lambda ckpt: ckpt.unlink(), "No such file"),
    "not-an-archive": (lambda ckpt: ckpt.write_text("step = 2\n"), "cannot read"),
    "no-array": (lambda ckpt: rewrite_checkpoint(ckpt, ["head_bias"]), "'head_bias'"),
    "no-header-key": (lambda ckpt: rewrite_checkpoint(ckpt, ["header:cfg"]), "'cfg'"),
    "no-predictor-field": (lambda ckpt: rewrite_checkpoint(ckpt, ["pred_n_fit"]),
                           "'pred_n_fit'"),
    "format-1": (lambda ckpt: rewrite_checkpoint(ckpt, format=1), "format 1"),
    "format-2": (lambda ckpt: rewrite_checkpoint(ckpt, format=2), "format 2"),
    "format-3": (lambda ckpt: rewrite_checkpoint(ckpt, format=3), "format 3"),
    "format-4": (lambda ckpt: rewrite_checkpoint(ckpt, format=4), "format 4"),
    # a header that is JSON, but not an object
    "header-not-an-object-number": (lambda ckpt: rewrite_header(ckpt, "5"), "'header'"),
    "header-not-an-object-null": (lambda ckpt: rewrite_header(ckpt, "null"), "'header'"),
    # entries of a shape the network does not take
    "net-extra-key": (lambda ckpt: rewrite_checkpoint(ckpt, net=lambda net: {**net, "x": 1}),
                      "'net'"),
    # the three counts of the format-4 ledger
    "three-stepping-counts": (lambda ckpt: rewrite_checkpoint(
        ckpt, arrays={"stepping_counts": lambda counts: np.append(counts, 0)}),
        "'stepping_counts'"),
    "short-trunk-params": (lambda ckpt: rewrite_checkpoint(
        ckpt, arrays={"trunk_params": lambda theta: theta[:-3]}), "trunk_params has shape"),
    "short-feedback-map": (lambda ckpt: rewrite_checkpoint(
        ckpt, arrays={"pred_b": lambda b: b[:-1]}), "'pred_b'"),
    "short-ring": (lambda ckpt: rewrite_checkpoint(
        ckpt, arrays={"ring_rows": lambda rows: rows[:-1]}), "'ring_rows'"),
    "ring-count-not-a-number": (lambda ckpt: rewrite_checkpoint(
        ckpt, arrays={"ring_pushed": np.array([32, 8])}), "'ring_pushed'"),
    "step-not-a-number": (lambda ckpt: rewrite_checkpoint(
        ckpt, arrays={"step": np.array([2, 2])}), "'step'"),
    "step-a-string": (lambda ckpt: rewrite_checkpoint(ckpt, arrays={"step": np.array("2")}),
                      "'step'"),
    "step-a-fraction": (lambda ckpt: rewrite_checkpoint(ckpt, arrays={"step": np.float64(2.5)}),
                        "'step'"),
    # header entries of another JSON type
    "cfg-a-list": (lambda ckpt: rewrite_checkpoint(ckpt, cfg=lambda cfg: list(cfg)), "'cfg'"),
    "net-a-list": (lambda ckpt: rewrite_checkpoint(ckpt, net=lambda net: list(net)), "'net'"),
    "kind-a-list": (lambda ckpt: rewrite_checkpoint(ckpt, predictor_kind=["feedback"]),
                    "'predictor_kind'"),
    # counters out of their range
    "negative-step": (lambda ckpt: rewrite_checkpoint(ckpt, arrays={"step": np.int64(-4)}),
                      "'step'"),
    "negative-stepping-counts": (lambda ckpt: rewrite_checkpoint(
        ckpt, arrays={"stepping_counts": np.full(2, -1)}), "'stepping_counts'"),
    "negative-ring-pushed": (lambda ckpt: rewrite_checkpoint(
        ckpt, arrays={"ring_pushed": np.int64(-1)}), "'ring_pushed'"),
    "negative-ring-fitted": (lambda ckpt: rewrite_checkpoint(
        ckpt, arrays={"ring_fitted": np.int64(-5)}), "'ring_fitted'"),
    "ring-fitted-beyond-pushed": (lambda ckpt: rewrite_checkpoint(
        ckpt, arrays={"ring_fitted": np.int64(10 ** 6)}), "'ring_fitted'"),
}


@pytest.mark.parametrize("spoil, named", BAD_CHECKPOINTS.values(), ids=BAD_CHECKPOINTS)
def test_an_unreadable_checkpoint_exits_2_naming_it(tmp_path, capsys, spoil, named):
    code, err = run(capsys, TRAIN + ["--predictor", "feedback", "--max-steps", "2",
                                     "--outdir", str(tmp_path)])
    assert code == 0, err
    ckpt = tmp_path / "checkpoint.npz"
    spoil(ckpt)
    code, err = run(capsys, TRAIN + ["--predictor", "feedback", "--max-steps", "4",
                                     "--resume", str(ckpt), "--outdir", str(tmp_path / "resumed")])
    assert code == 2 and error_type(err) == "ConfigError"
    assert len(err.splitlines()) == 1 and str(ckpt) in err and named in err, err
    assert not (tmp_path / "resumed" / "metrics.csv").exists()


@pytest.mark.parametrize("data", [["--task", "blobs"], ["--input-dim", "5"]],
                         ids=["labels", "input-dim"])
def test_resuming_on_data_the_network_does_not_fit_exits_3(tmp_path, capsys, data):
    code, err = run(capsys, TRAIN + ["--input-dim", "8", "--hidden", "16", "--max-steps", "2",
                                     "--outdir", str(tmp_path)])
    assert code == 0, err
    code, err = run(capsys, TRAIN + ["--input-dim", "8", "--hidden", "16"] + data + [
        "--max-steps", "4", "--resume", str(tmp_path / "checkpoint.npz"),
        "--outdir", str(tmp_path / "resumed")])
    assert code == 3 and error_type(err) == "DataError"
    assert "input width 8 and output width 1" in err
    assert not (tmp_path / "resumed" / "metrics.csv").exists()


def test_a_resume_with_the_runs_options_continues_it_bit_exactly(tmp_path, capsys):
    feedback = TRAIN + ["--predictor", "feedback"]
    for steps, outdir in ((3, "run"), (6, "whole")):
        code, err = run(capsys, feedback + ["--max-steps", str(steps),
                                            "--outdir", str(tmp_path / outdir)])
        assert code == 0, err
    code, err = run(capsys, feedback + ["--max-steps", "6", "--resume",
                                        str(tmp_path / "run" / "checkpoint.npz"),
                                        "--outdir", str(tmp_path / "run")])
    assert code == 0, err
    assert (tmp_path / "run" / "metrics.csv").read_text() \
        == (tmp_path / "whole" / "metrics.csv").read_text()
    with np.load(tmp_path / "run" / "checkpoint.npz") as resumed, \
            np.load(tmp_path / "whole" / "checkpoint.npz") as whole:
        assert resumed.files == whole.files
        for key in whole.files:
            assert np.array_equal(resumed[key], whole[key]), key


# options that build another network from the same data, and other data
OTHER_RUNS = {"network": (["--activation", "relu", "--hidden", "32"], 2, "ConfigError",
                          "holds another network: activation, hidden_widths"),
              "data": (["--n", "900", "--noise-sd", "0.5"], 3, "DataError",
                       "was written on other data")}


@pytest.mark.parametrize("extra, code, kind, named", OTHER_RUNS.values(), ids=OTHER_RUNS)
def test_a_resume_is_the_run_it_resumes(tmp_path, capsys, extra, code, kind, named):
    feedback = TRAIN + ["--predictor", "feedback"]
    got, err = run(capsys, feedback + ["--max-steps", "3", "--outdir", str(tmp_path)])
    assert got == 0, err
    record = {name: (tmp_path / name).read_text() for name in ("metrics.csv", "config.txt")}
    got, err = run(capsys, feedback + extra + [
        "--max-steps", "6", "--resume", str(tmp_path / "checkpoint.npz"),
        "--outdir", str(tmp_path)])
    assert got == code and error_type(err) == kind
    assert len(err.splitlines()) == 1 and named in err, err
    # a refused resume leaves the run's record as it was
    assert {name: (tmp_path / name).read_text() for name in record} == record


OUT_OF_RANGE = {
    "analyze-f-0": ["analyze", "--f", "0,0.5"],
    "analyze-f-above-1": ["analyze", "--f", "1.5"],
    "analyze-negative-kappa": ["analyze", "--kappa", "-1", "--f", "0.5"],
    "analyze-rho-above-1": ["analyze", "--rho", "1.5", "--f", "0.5"],
    "simulate-rho-above-1": ["simulate", "--rho", "1.5"],
    "simulate-sigma-g-nan": ["simulate", "--sigma-g", "nan"],
    "simulate-rho-nan": ["simulate", "--rho", "nan"],
    "simulate-kappa-nan": ["simulate", "--kappa", "nan"],
    "simulate-sigma-g-inf": ["simulate", "--sigma-g", "inf"],
    "simulate-sigma-g-1e200": ["simulate", "--sigma-g", "1e200"],   # tau and sigma_g^2 overflow
    "simulate-sigma-g-1e300": ["simulate", "--sigma-g", "1e300"],   # sigma_g^2 overflows
    "simulate-sigma-g-1e-200": ["simulate", "--sigma-g", "1e-200"],  # sigma_g^2 underflows
    # sigma_g^2 is finite, the predicted variance sigma_g^2 phi / m overflows
    "simulate-sigma-g-1e154": ["simulate", "--sigma-g", "1e154", "--trials", "100"],
    "simulate-m-1": ["simulate", "--m", "1"],
    "simulate-dim-0": ["simulate", "--dim", "0"],
    "train-negative-cost": ["train", "--task", "regression", "--cost-backward", "-1"],
}


@pytest.mark.parametrize("argv", OUT_OF_RANGE.values(), ids=OUT_OF_RANGE)
def test_an_argument_out_of_its_range_exits_2(tmp_path, capsys, argv):
    code, err = run(capsys, argv + ["--outdir", str(tmp_path)])
    assert code == 2 and error_type(err) in ("DomainError", "MomentError"), err
    assert len(err.splitlines()) == 1, err
    assert list(tmp_path.iterdir()) == []   # no config.txt, no table, no metrics
