"""The worst point of a report: a NaN value is worse than any number, so it
fails wherever it sits among the points; and a report needs at least one
point."""
from functools import cache

import numpy as np
import pytest

from jdl import catalog
from jdl.errors import SamplingExhausted
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



@cache
def _built(spec_id):
    return catalog.build(spec_id)


@pytest.mark.parametrize("spec_id, name", [
    (spec_id, name) for spec_id in catalog.ENTRIES
    for name, _ in catalog.CHECKS[catalog.kind(spec_id)]])
def test_a_check_of_no_points_raises(spec_id, name):
    # an empty point set neither passes vacuously nor fails, nor reaches a
    # numpy error: every registered check raises the one typed error
    check = dict(catalog.CHECKS[catalog.kind(spec_id)])[name]
    with pytest.raises(SamplingExhausted, match="no sample points"):
        check(_built(spec_id), [])
