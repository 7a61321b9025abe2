"""The worst point of a report: a NaN value is worse than any number, so it
fails wherever it sits among the points."""
import numpy as np
import pytest

from jdl.report import residual_report, threshold_report


@pytest.mark.parametrize("at", range(3))
def test_a_nan_value_is_the_worst_point(at):
    values = [1e-12, 0.5, 0.25]
    values[at] = np.nan
    pairs = [(np.array([float(i)]), v) for i, v in enumerate(values)]
    for rep in (residual_report("r", "", pairs, 1.0),
                threshold_report("t", "", pairs, 1e-3)):
        assert rep.status == "fail" and np.isnan(rep.max_residual)
        assert rep.worst_point == [float(at)]

