import json

import numpy as np
import pytest

from angelesco import NumericalFailure
from angelesco.rootfind import bisect, count_sign_changes, expand_upper


def test_bisect_vectorized():
    targets = np.array([2.0, 3.0, 5.0, 7.0])
    roots = bisect(lambda x: x * x - targets, np.zeros(4), np.full(4, 3.0))
    np.testing.assert_allclose(roots, np.sqrt(targets), atol=1e-14)


def test_bisect_scalar_input_gives_float():
    out = bisect(lambda x: x - 0.25, 0.0, 1.0)
    assert isinstance(out, float)
    assert out == pytest.approx(0.25, abs=1e-14)


def test_bisect_rejects_open_bracket():
    with pytest.raises(NumericalFailure):
        bisect(lambda x: x * x + 1.0, -1.0, 1.0)
    with pytest.raises(NumericalFailure):
        bisect(lambda x: x * x + 1.0, np.array([-1.0]), np.array([1.0]))


def test_bisect_failure_context_is_json():
    with pytest.raises(NumericalFailure) as exc:
        bisect(lambda x: x * x + 1.0, np.array([-1.0, 0.0]),
               np.array([1.0, 2.0]))
    ctx = exc.value.context
    assert json.loads(json.dumps(ctx)) == ctx == {"lo": [-1.0, 0.0],
                                                  "hi": [1.0, 2.0]}


def test_bisect_deterministic():
    f = lambda x: np.cos(x) - x
    a = bisect(f, 0.0, 1.0)
    b = bisect(f, 0.0, 1.0)
    assert a == b


def test_expand_upper_reaches_sign_change():
    hi = expand_upper(lambda x: x - 100.0, np.array([0.0]), np.array([1.0]))
    assert hi[0] >= 100.0
    root = bisect(lambda x: x - 100.0, np.array([0.0]), hi)
    assert root[0] == pytest.approx(100.0, abs=1e-11)


def test_expand_upper_gives_up():
    with pytest.raises(NumericalFailure):
        expand_upper(lambda x: np.ones_like(x), np.array([0.0]),
                     np.array([1.0]), max_expansions=5)


def test_count_sign_changes():
    assert count_sign_changes(np.sin, 0.1, 3 * np.pi - 0.1) == 2
    assert count_sign_changes(lambda x: x - 0.5, 0.0, 1.0) == 1
    assert count_sign_changes(lambda x: x * x + 1.0, -1.0, 1.0) == 0
