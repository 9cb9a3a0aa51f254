"""The streamed spin grid against the dense oracle, its memory bound and GridSpec."""
import math
import tracemalloc

import pytest

import oracles
from solitonlab import GridError
from solitonlab.spingrid import GridSpec, ladder_residuals, sz_grid_integral


@pytest.mark.parametrize("n, extent", [(0, 12.0), (2, 12.0), (64, 0.0),
                                       (64, math.nan), (64, -5.0)])
def test_gridspec_rejects_degenerate_grid(n, extent):
    with pytest.raises(GridError):
        GridSpec(n=n, extent=extent)


def test_package_serves_grid_types_lazily():
    import solitonlab
    import solitonlab.spingrid
    assert solitonlab.GridSpec is solitonlab.spingrid.GridSpec
    assert solitonlab.LadderReport is solitonlab.spingrid.LadderReport
    names = {}
    exec("from solitonlab import *", names)
    assert names["GridSpec"] is GridSpec
    assert names["LadderReport"] is solitonlab.spingrid.LadderReport
    with pytest.raises(AttributeError):
        solitonlab.no_such_name


def test_gridspec_rejects_odd_point_count():
    with pytest.raises(GridError, match="must be even to exclude the origin"):
        GridSpec(n=63, extent=12.0)


# 38 is not a multiple of the slab height: a short last slab
@pytest.mark.parametrize("n", [32, 38, 64])
def test_streamed_grid_matches_dense(sol05, n):
    spec = GridSpec(n=n, extent=10.0)
    streamed = ladder_residuals(sol05, spec).as_dict()
    dense = oracles.ladder_residuals_dense(sol05, spec).as_dict()
    for key, value in dense.items():
        assert streamed[key] == pytest.approx(value, rel=1e-12, abs=0.0), key
    spec = GridSpec(n=n, extent=12.0)
    assert sz_grid_integral(sol05, spec) == pytest.approx(
        oracles.sz_grid_integral_dense(sol05, spec), rel=1e-12, abs=0.0)


@pytest.mark.parametrize("check", [ladder_residuals, sz_grid_integral])
def test_streamed_grid_memory_bounded(sol05, check):
    # the dense 64^3 path peaked at 188 MB (ladder) and 140 MB (spin)
    tracemalloc.start()
    try:
        check(sol05, GridSpec(n=64, extent=10.0))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 32e6, peak
