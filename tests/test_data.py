import numpy as np
import pytest

from predgrad.data import Dataset, gen_blobs, gen_regression, load_csv, save_csv
from predgrad.errors import DataError, FormatError


@pytest.mark.parametrize("make", [
    lambda: gen_regression(50, 3, 0.1, 4, val_fraction=0.3),
    lambda: gen_blobs(50, 4, 3, 5.0, 4, val_fraction=0.3),
])
def test_csv_round_trip_is_exact(tmp_path, make):
    ds = make()
    path = tmp_path / "data.csv"
    save_csv(ds, path)
    back = load_csv(path, kind=ds.kind)
    assert back.kind == ds.kind
    assert np.array_equal(back.features, ds.features)
    assert back.targets.dtype == ds.targets.dtype
    assert np.array_equal(back.targets, ds.targets)
    assert np.array_equal(back.train_idx, ds.train_idx)
    assert np.array_equal(back.val_idx, ds.val_idx)


def test_csv_without_split_column_uses_the_tail(tmp_path):
    path = tmp_path / "data.csv"
    path.write_text("x0,x1,target\n" + "".join(f"{i},{-i},{2 * i}\n" for i in range(10)))
    ds = load_csv(path, kind="regression", val_fraction=0.2)
    assert ds.features.shape == (10, 2) and ds.targets.shape == (10, 1)
    assert list(ds.val_idx) == [8, 9]


def test_the_data_decides_the_loss():
    assert gen_blobs(50, 4, 3, 5.0, 4).loss_kind == "cross_entropy"
    assert gen_regression(50, 3, 0.1, 4).loss_kind == "squared_scalar"
    rng = np.random.default_rng(0)
    two = Dataset(features=rng.standard_normal((10, 3)), targets=rng.standard_normal((10, 2)),
                  kind="regression", train_idx=np.arange(8), val_idx=np.arange(8, 10))
    assert two.loss_kind == "squared_vector"


def test_csv_errors_name_the_problem(tmp_path):
    path = tmp_path / "bad.csv"
    path.write_text("x0,target\n1.0,2.0\nabc,3.0\n")
    with pytest.raises(FormatError, match="row 3"):
        load_csv(path, kind="regression")
    path.write_text("x0,target\n1.0,-1\n2.0,0\n")
    with pytest.raises(DataError):
        load_csv(path, kind="classification")
