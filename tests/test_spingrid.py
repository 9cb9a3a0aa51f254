"""The streamed spin grid against the dense oracle, its radial interpolant,
its memory bound and GridSpec."""
import importlib
import math
import pkgutil
import tracemalloc

import numpy as np
import pytest

import golden
import oracles
from solitonlab import GridError, correlation, spingrid
from solitonlab.spingrid import (GridSpec, LadderReport, _radial_interpolant,
                                 ladder_residuals, sz_grid_integral)


# (8, 5e-324): 2*extent/7 rounds to a spacing of 0, which ended both grid
# checks in a ZeroDivisionError
@pytest.mark.parametrize("n, extent", [(0, 12.0), (2, 12.0), (64, 0.0),
                                       (64, math.nan), (64, -5.0), (8, 5e-324),
                                       (True, 12.0), (4.0, 12.0)])
def test_gridspec_rejects_degenerate_grid(n, extent):
    with pytest.raises(GridError):
        GridSpec(n=n, extent=extent)


def test_package_exports_grid_types():
    import solitonlab
    assert solitonlab.GridSpec is solitonlab.spingrid.GridSpec
    assert solitonlab.LadderReport is solitonlab.spingrid.LadderReport
    names = {}
    exec("from solitonlab import *", names)
    assert names["GridSpec"] is GridSpec
    assert names["LadderReport"] is solitonlab.spingrid.LadderReport


def test_every_export_list_names_defined_objects():
    # a name deleted from a module but left in its __all__ breaks "import *"
    import solitonlab
    modules = [solitonlab] + [importlib.import_module(f"solitonlab.{m.name}")
                              for m in pkgutil.iter_modules(solitonlab.__path__)]
    for module in modules:
        missing = [n for n in getattr(module, "__all__", ()) if not hasattr(module, n)]
        assert not missing, (module.__name__, missing)


def test_gridspec_rejects_odd_point_count():
    with pytest.raises(GridError, match="must be even to exclude the origin"):
        GridSpec(n=63, extent=12.0)


# the octant's n/2 x-planes: 4, 6 and 8 are one slab; 10, 12, 18 and 38
# start on a short slab (at 10 and 18 of one plane), 32 and 64 do not
@pytest.mark.parametrize("n", [4, 6, 8, 10, 12, 18, 32, 38, 64])
def test_streamed_grid_matches_dense(sol05, n):
    spec = GridSpec(n=n, extent=10.0)
    streamed = ladder_residuals(sol05, spec).as_dict()
    dense = oracles.ladder_residuals_dense(sol05, spec).as_dict()
    for key, value in dense.items():
        assert streamed[key] == pytest.approx(value, rel=1e-12, abs=0.0), key
    spec = GridSpec(n=n, extent=12.0)
    assert sz_grid_integral(sol05, spec) == pytest.approx(
        oracles.sz_grid_integral_dense(sol05, spec), rel=1e-12, abs=0.0)


@pytest.mark.parametrize("n, residuals", [(64, golden.LADDER_64), (128, golden.LADDER_128)])
def test_ladder_check_holds_its_golden_values(sol05, n, residuals):
    report = ladder_residuals(sol05, GridSpec(n=n, extent=10.0))
    up = (report.jplus_up, report.j3_up, report.jminus_up)
    dn = (report.jminus_dn, report.j3_dn, report.jplus_dn)
    assert up == pytest.approx(residuals, rel=1e-12, abs=0.0)
    assert dn == pytest.approx(residuals, rel=1e-12, abs=0.0)


def test_sz_check_holds_its_golden_value(sol05):
    assert sz_grid_integral(sol05, GridSpec(n=64, extent=12.0)) == pytest.approx(
        golden.SZ_GRID_64, rel=1e-12, abs=0.0)


@pytest.mark.parametrize("extent", [10.0, 12.0])
@pytest.mark.parametrize("n", [4, 10, 38, 128])
def test_radius_table_gives_each_nodes_radius(n, extent):
    # the radius gathered for every octant and ghost node, (h/2) sqrt(s), against
    # the one summed from its coordinates: up to 2 ulps apart at these sizes
    spec = GridSpec(n=n, extent=extent)
    h, m = spec.spacing, n // 2
    tri, r = spingrid._radius_table(h, m)
    assert len(r) == (3 * (n - 1) ** 2 - 3) // 8 + 1  # 6,049 at n = 128
    pos = (np.arange(m) + 0.5) * h
    ax = np.concatenate(([-pos[0]], pos))
    Y, Z = ax[:, None], ax[None, :]
    for x, t in zip(ax, tri):
        summed = np.sqrt(x * x + Y * Y + Z * Z)
        gathered = r[t + tri[:, None] + tri[None, :]]
        assert np.all(np.abs(gathered - summed) <= 2.0 * np.spacing(summed)), x


def test_derived_tables_cover_every_term():
    # the terms squared, and the atoms built, are derived from the tables at
    # import: +- a term rebuilds each nonzero ladder row, and the S_z atoms
    # hold every column that the S_z tables read
    quantity, row = np.nonzero(spingrid._LADDER.any(axis=2))
    assert np.array_equal(quantity, spingrid._QUANTITY) and len(row) == 40
    assert spingrid._TERMS.shape == (16, 16)
    assert np.array_equal(spingrid._LADDER_ATOMS, np.arange(16))
    for k, t in enumerate(spingrid._TERM):
        term = np.zeros(16)
        term[spingrid._LADDER_ATOMS] = spingrid._TERMS[t]
        ladder_row = spingrid._LADDER[quantity[k], row[k]]
        assert np.array_equal(ladder_row, term) or np.array_equal(ladder_row, -term), k
    rows = spingrid._SZ_ROWS
    assert set(np.flatnonzero(rows.any(axis=(0, 1)))) <= set(spingrid._SZ_ATOMS)
    assert np.array_equal(spingrid._SZ_ATOMS, [0, 1, 2, 3, 13, 14])
    assert np.array_equal(rows[0][:, spingrid._SZ_ATOMS], spingrid._SZ_UP)
    assert np.array_equal(rows[1][:, spingrid._SZ_ATOMS], spingrid._SZ_J3UP)


@pytest.mark.parametrize("name", ["TERMS", "SZ_UP", "SZ_J3UP"])
def test_nonzero_tables_rebuild_the_dense_ones(name):
    # every coefficient after a row's first is +-1, as _rows assumes; on
    # integer atoms the products and their squares are exact both ways
    table, nonzeros = getattr(spingrid, f"_{name}"), getattr(spingrid, f"_{name}_NZ")
    rebuilt = np.zeros_like(table)
    for i, row in enumerate(nonzeros):
        for k, (j, c) in enumerate(row):
            assert k == 0 or c in (1.0, -1.0)
            rebuilt[i, j] = c
    assert np.array_equal(rebuilt, table)
    atoms = np.random.default_rng(5).integers(-99, 99, (table.shape[1], 50)).astype(float)
    assert np.array_equal(spingrid._rows(nonzeros, atoms), table @ atoms)
    assert np.array_equal(spingrid._rows(nonzeros, atoms, square=True), (table @ atoms) ** 2)


def _atom_parities():
    """(16, 3): the sign each atom takes under x -> -x, y -> -y and z -> -z,
    as its field's times its operator's."""
    field = np.ones((4, 3))
    field[1:] -= 2.0 * np.eye(3)       # g x_k/r is odd in x_k alone
    operator = np.ones((4, 3))
    operator[1:] = 2.0 * np.eye(3) - 1.0  # D1 = y dz - z dy is odd in y and z
    return (operator[:, None] * field[None]).reshape(16, 3)


def test_every_summand_is_even_under_each_reflection():
    # the octant sum times 8 is the cube's because every term, and every S_z
    # row pair, reads atoms of one parity, so that its square or product is even
    parity = _atom_parities()
    for term in spingrid._TERMS:
        signs = parity[spingrid._LADDER_ATOMS[term != 0]]
        assert (signs == signs[0]).all(), term
    for up, j3up in zip(spingrid._SZ_UP, spingrid._SZ_J3UP):
        signs = parity[spingrid._SZ_ATOMS[(up != 0) | (j3up != 0)]]
        assert (signs == signs[0]).all(), (up, j3up)


def test_atom_parities_hold_on_the_dense_cube(sol05):
    # the derived parities against the sampled atoms' mirror images; the faces'
    # one-sided stencils are mirror images only up to rounding
    atoms = oracles.atoms_dense(sol05, GridSpec(n=8, extent=10.0))
    for axis, signs in enumerate(_atom_parities().T):
        mirrored = np.flip(atoms, axis=axis + 1) * signs[:, None, None, None]
        assert np.allclose(mirrored, atoms, rtol=0.0, atol=1e-14 * np.abs(atoms).max()), axis


@pytest.mark.parametrize("atoms", [spingrid._LADDER_ATOMS, spingrid._SZ_ATOMS],
                         ids=["ladder", "sz"])
# one slab of 2 and of 3 planes, a first slab of one plane, five slabs
@pytest.mark.parametrize("n", [4, 6, 10, 38])
def test_slab_atoms_are_the_dense_atoms(sol05, n, atoms):
    # each slab is the dense atoms' octant x, y, z > 0 on the same nodes
    spec, m = GridSpec(n=n, extent=10.0), n // 2
    octant = oracles.atoms_dense(sol05, spec)[atoms][:, m:, m:, m:]
    i0 = 0
    for values, _w in spingrid._slabs(sol05, spec, atoms):
        i1 = i0 + values.shape[1] // (m * m)
        assert np.array_equal(values, octant[:, i0:i1].reshape(len(atoms), -1)), i0
        i0 = i1
    assert i0 == m


def test_interpolant_hits_nodes_and_origin_anchors(sol05):
    p, F0 = sol05.profile, sol05.shooting.F0
    fg = _radial_interpolant(sol05)
    F, G = fg(p.grid[:-1])
    assert np.array_equal(F, p.F[:-1]) and np.array_equal(G, p.G[:-1])
    # the last node is the right end of the last cubic
    F, G = fg(p.grid[-1:])
    assert F[0] == pytest.approx(p.F[-1], rel=1e-9, abs=0.0)
    assert G[0] == pytest.approx(p.G[-1], rel=1e-9, abs=0.0)
    F, G = fg(np.array([0.0]))
    assert F[0] == F0 and G[0] == 0.0
    # the series slopes at the origin: F' = 0, G' = c1
    eps = 1e-7
    c1 = ((sol05.Omega - 1.0) * F0 + F0 ** 3) / 3.0
    F, G = fg(np.array([eps]))
    assert abs(F[0] - F0) <= 1e-6 * eps
    assert G[0] / eps == pytest.approx(c1, rel=1e-6)


@pytest.mark.parametrize("n", [32, 64])
def test_hermite_grid_matches_cubic_spline_grid(sol05, n):
    # the same grid checks with the profile put on the cube by scipy's
    # CubicSpline instead of the package's Hermite interpolant
    spec = GridSpec(n=n, extent=10.0)
    ours = ladder_residuals(sol05, spec).as_dict()
    spline = oracles.ladder_residuals_dense(
        sol05, spec, radial=oracles.spline_interpolant).as_dict()
    for key, value in spline.items():
        assert ours[key] == pytest.approx(value, rel=1e-10, abs=0.0), key
    spec = GridSpec(n=n, extent=12.0)
    assert sz_grid_integral(sol05, spec) == pytest.approx(
        oracles.sz_grid_integral_dense(sol05, spec, radial=oracles.spline_interpolant),
        rel=1e-10, abs=0.0)


@pytest.mark.parametrize("check", [ladder_residuals, sz_grid_integral])
def test_streamed_grid_memory_bounded(sol05, check):
    # the dense 64^3 path peaked at 188 MB (ladder) and 140 MB (spin); the
    # whole cube streamed at 10.1 and 4.9 MB, its octant at 2.9 and 1.5 MB,
    # and at 2.5 and 1.1 MB from the radius table
    tracemalloc.start()
    try:
        check(sol05, GridSpec(n=64, extent=10.0))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 4e6, peak


def test_ladder_check_squares_each_term_once(sol05):
    # over the octant, squaring all 40 nonzero table rows per slab peaks at
    # 3.9 MB; the 16 distinct terms at 2.9 MB (whole cube: 12.5 and 10.1 MB)
    tracemalloc.start()
    try:
        ladder_residuals(sol05, GridSpec(n=64, extent=10.0))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 3.3e6, peak


# the h^3 trapezoid weights underflow to 0 at 1e-160, 1e-200 and 1e-300; the
# radius (h/2) sqrt(s) does not underflow, so only the weights do
@pytest.mark.parametrize("extent", [1e-160, 1e-200, 1e-300])
@pytest.mark.parametrize("check", [ladder_residuals, sz_grid_integral])
def test_underflowing_grid_raises_grid_error(sol05, check, extent):
    with pytest.raises(GridError, match="not finite and > 0"):
        check(sol05, GridSpec(n=8, extent=extent))


def test_nan_relation_fails_the_ladder_check(sol05, monkeypatch):
    spec = GridSpec(n=8, extent=10.0)
    report = LadderReport(jplus_up=1e-3, j3_up=math.nan, jminus_up=1e-3, jminus_dn=1e-3,
                          j3_dn=1e-3, jplus_dn=1e-3, grid_spec=spec)
    assert math.isnan(report.max_residual)
    monkeypatch.setattr(correlation, "ladder_residuals", lambda solution, grid: report)
    with pytest.raises(GridError, match="j3_up"):
        correlation.ladder_check_grid(sol05, grid=spec)
