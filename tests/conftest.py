import pytest

from predgrad.network import backward
from predgrad.predictor import predict_scalar, predict_structured


def _predicted_rows(net, pred, cache, residuals):
    """The flat-layout predicted gradient rows of ``pred`` on a forward cache,
    from its row reference: ``predict_scalar``, ``predict_structured``, or
    for the perfect predictor ``backward``."""
    if pred.kind == "scalar":
        return predict_scalar(pred, cache.act[-1], residuals)
    if pred.kind == "structured":
        return predict_structured(pred, cache.act[-1], residuals, net.head_weight)
    return backward(net, cache, residuals)


@pytest.fixture
def predicted_rows():
    return _predicted_rows
