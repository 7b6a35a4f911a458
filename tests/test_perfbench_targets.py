"""The benchmark times functions by wrapping them under their module
attribute names; a renamed function would leave its figures at 0."""

from perfbench.workloads import trace_targets


def test_every_traced_function_exists():
    targets = trace_targets(True, {})
    assert targets
    for module, attribute, span, _ in targets:
        if module is not None:   # an optional module that is not installed
            assert callable(getattr(module, attribute, None)), \
                f"{span}: {module.__name__}.{attribute} is gone"
