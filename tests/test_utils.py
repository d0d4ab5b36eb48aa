import numpy as np
import pytest

from wavescale import ConfigurationError
from wavescale.utils import check_distinct, first_repeat


@pytest.mark.parametrize("values", [
    [3, 1, 2], (3, 1, 2), (v for v in (3, 1, 2)),
], ids=["list", "tuple", "generator"])
def test_check_distinct_returns_the_values_as_a_list(values):
    assert check_distinct(values, "p") == [3, 1, 2]


@pytest.mark.parametrize("values, message", [
    ([1, 2, 3, 2, 1], "repeated p 2"),
    (["dwt", "wang", "dwt"], "repeated p 'dwt'"),
    ([0.0, -0.0], "repeated p -0.0"),
    ([0.3, np.float64(0.3)], f"repeated p {np.float64(0.3)!r}"),
    ([np.int64(4), 4], "repeated p 4"),
], ids=["first-repeat", "strings", "signed-zero", "numpy-float",
        "numpy-int"])
def test_check_distinct_names_the_first_repeat(values, message):
    with pytest.raises(ConfigurationError) as exc:
        check_distinct(values, "p", "--curve: ")
    assert str(exc.value) == "--curve: " + message


@pytest.mark.parametrize("values, repeat", [
    ([], None),
    ([3, 1, 2], None),
    ([1, 2, 3, 2, 1], (1, 3)),
    ((v for v in "abcb"), (1, 3)),
    ([0.0, 1.0, -0.0], (0, 2)),
    ([0.3, np.float64(0.3)], (0, 1)),
], ids=["empty", "distinct", "first-repeat", "generator", "signed-zero",
        "numpy-float"])
def test_first_repeat_gives_the_first_repeated_pair(values, repeat):
    assert first_repeat(values) == repeat
