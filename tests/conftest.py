import pytest

from oracles import gradient_rows, predict_structured


def _predicted_rows(net, pred, rows):
    """The flat-layout predicted gradient rows of ``pred`` on ``FitRows``
    (a ring's, or a pass's as ``oracles.pass_rows`` gives them), from its
    row reference: the feedback predictor's ``trunk_rows`` formed, with the
    exact head, ``predict_structured``, or for the perfect predictor the
    true rows formed."""
    if pred.kind == "structured":
        return predict_structured(pred, rows.llh, rows.residual, net.head_weight)
    trunk = pred.trunk_rows(net, rows) if pred.kind == "feedback" else rows.trunk_grad
    return gradient_rows(trunk.dense(), rows.llh, rows.residual)


@pytest.fixture
def predicted_rows():
    return _predicted_rows
