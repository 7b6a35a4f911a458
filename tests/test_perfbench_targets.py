"""The benchmark times functions by wrapping them under their module
attribute names; a renamed function would leave its figures at 0."""

from perfbench.workloads import trace_targets

# row references that no command runs any more, the per-step split that the
# head of the shuffled batch replaced, and the cacheless pass that validation
# no longer calls; the benchmark skips an attribute a module lacks, so their
# figures read 0 calls
DELETED = (("predgrad.trainer", "backward"), ("predgrad.trainer", "alignment_stats"),
           ("predgrad.predictor", "predict_structured"),
           ("predgrad.trainer", "split_minibatch"), ("predgrad.trainer", "cheap_forward"))


def test_every_traced_function_exists():
    targets = trace_targets(True, {})
    assert targets
    deleted = []
    for module, attribute, span, _ in targets:
        if module is None:   # an optional module that is not installed
            continue
        if (module.__name__, attribute) in DELETED:
            deleted.append((module.__name__, attribute))
            assert not hasattr(module, attribute), f"{span}: {attribute} is back"
        else:
            assert callable(getattr(module, attribute, None)), \
                f"{span}: {module.__name__}.{attribute} is gone"
    assert sorted(deleted) == sorted(DELETED)
