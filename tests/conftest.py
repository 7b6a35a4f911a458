import pytest

from oracles import backward, gradient_rows, predict_structured


def _predicted_rows(net, pred, cache, residuals):
    """The flat-layout predicted gradient rows of ``pred`` on a forward cache,
    from its row reference: the feedback predictor's ``trunk_rows`` formed,
    with the exact head, ``predict_structured``, or for the perfect predictor
    ``backward``."""
    if pred.kind == "feedback":
        return gradient_rows(pred.trunk_rows(net, cache, residuals).dense(), cache.act[-1],
                             residuals)
    if pred.kind == "structured":
        return predict_structured(pred, cache.act[-1], residuals, net.head_weight)
    return backward(net, cache, residuals)


@pytest.fixture
def predicted_rows():
    return _predicted_rows
