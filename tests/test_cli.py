import numpy as np
import pytest

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


@pytest.mark.parametrize("extra", [["--batch-size", "0"], ["--control-fraction", "2"]])
def test_bad_config_exits_2(tmp_path, capsys, extra):
    code, err = run(capsys, TRAIN + extra + ["--outdir", str(tmp_path)])
    assert code == 2 and error_type(err) == "ConfigError"


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


def test_divergence_exits_4(tmp_path, capsys):
    with np.errstate(all="ignore"):
        code, err = run(capsys, TRAIN + ["--learning-rate", "1e4", "--epochs", "10",
                                         "--max-steps", "50", "--outdir", str(tmp_path)])
    assert code == 4 and error_type(err) == "NumericError"
    assert "at step" in err
