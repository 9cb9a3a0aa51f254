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


def test_gridspec_caps_the_point_count():
    # n = 20000 passed, and a grid check would then have built 19 GB slabs
    assert GridSpec(n=512, extent=12.0).n == 512
    with pytest.raises(GridError, match=r"\[4, 512\]"):
        GridSpec(n=514, extent=12.0)


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


def _sz_rows():
    """The 8 S_z rows, as the module builds them, and their weights: phi_up's 4
    nonzero rows, then phi_up +- R on the 2 rows where R = J_3 phi_up - phi_up/2
    is nonzero too."""
    up, r = spingrid._LADDER[[0, 3]]
    both = up.any(axis=1) & r.any(axis=1)
    rows = np.vstack([up[up.any(axis=1)], (up + r)[both], (up - r)[both]])
    return rows, np.repeat([0.5, 0.25, -0.25], [4, 2, 2])


def _is_image(row, term):
    """Whether an axis permutation, a sign and a multiple of _NULL take term to row."""
    null = spingrid._NULL
    for source, sign in zip(spingrid._SOURCE, spingrid._SIGN):
        for d in (row - term[source] * sign, row + term[source] * sign):
            if not d[~null].any() and np.ptp(d[null]) == 0.0:
                return True
    return False


def test_derived_tables_cover_every_term():
    # the terms squared, and the atoms built, are derived from the one table at
    # import: each nonzero ladder row is an image of its orbit's term, and the 40
    # rows fall in 8 orbits (16 up to sign alone); S_z's 8 rows fall in 4
    quantity, row = np.nonzero(spingrid._LADDER.any(axis=2))
    assert np.array_equal(quantity, spingrid._QUANTITY) and len(row) == 40
    assert spingrid._TERMS.shape == (8, 16)
    for k, t in enumerate(spingrid._TERM):
        assert _is_image(spingrid._LADDER[quantity[k], row[k]], spingrid._TERMS[t]), k
    assert np.array_equal(spingrid._LADDER_PASS[0], [0, 2, 3, 5, 6, 8, 9, 10, 13])
    rows, weights = _sz_rows()
    assert spingrid._SZ_TERMS.shape == (4, 16)
    for k, t in enumerate(spingrid._SZ_TERM):
        assert _is_image(rows[k], spingrid._SZ_TERMS[t]), k
    assert np.array_equal(spingrid._SZ_WEIGHTS,
                          np.bincount(spingrid._SZ_TERM, weights=weights))
    assert np.array_equal(spingrid._SZ_PASS[0], [0, 2, 13])
    # sum_k w_k (row_k . a)^2 is the real part of phi_up^+ J_3 phi_up for any
    # atoms a: the weighted squares are that bilinear form, symmetrized
    up = spingrid._real_rows(spingrid._plain(spingrid._UP))
    j3up = spingrid._real_rows(spingrid._j(spingrid._UP, "3"))
    form = np.einsum("k,ki,kj->ij", weights, rows, rows)
    assert np.array_equal(form, 0.5 * (up.T @ j3up + j3up.T @ up))


def test_axis_permutations_act_with_their_parity():
    # _SOURCE moves f's atoms among themselves and each D_k (g x_j/r) to
    # D_pi(k) (g x_pi(j)/r); _SIGN is sgn(pi), the determinant of pi's
    # permutation matrix, on the atoms of a D and 1 on the fields
    slot = spingrid._SLOT
    assert (slot[:, 0] == 0).all() and len({tuple(p) for p in slot.tolist()}) == 6
    parity = np.linalg.det(np.eye(4)[slot])
    kind, field = np.divmod(np.arange(16), 4)
    for source, sign, p, par in zip(spingrid._SOURCE, spingrid._SIGN, slot, parity):
        assert np.array_equal(np.sort(source), np.arange(16))
        assert np.array_equal(source, 4 * p[kind] + p[field])
        assert np.array_equal(sign, np.where(kind > 0, par, 1.0))
    assert np.array_equal(np.flatnonzero(spingrid._NULL), [5, 10, 15])


@pytest.mark.parametrize("Omega", [0.2, 0.5, 0.8])
def test_orbits_are_the_rows_with_equal_dense_sums(ground, Omega):
    # the rows of one orbit have one cube sum, on the dense oracle's atoms to
    # 1e-14 relative (rounding), and rows of different orbits do not: the two
    # closest orbits' sums differ by 6.3e-4 of the largest at Omega = 0.8
    spec = GridSpec(n=8, extent=10.0)
    atoms = oracles.atoms_dense(ground(Omega), spec).reshape(16, -1)
    w1 = oracles._axes_weights(spec)[2]
    weights = (w1[:, None, None] * w1[None, :, None] * w1[None, None, :]).ravel()
    for rows, orbit in [(spingrid._LADDER[spingrid._QUANTITY, spingrid._ROW], spingrid._TERM),
                        (_sz_rows()[0], spingrid._SZ_TERM)]:
        sums = (rows @ atoms) ** 2 @ weights
        gap = np.abs(sums[:, None] - sums[None, :]) / sums.max()
        same = orbit[:, None] == orbit[None, :]
        assert gap[same].max() <= 1e-14, gap[same].max()
        assert gap[~same].min() > 1e-6, gap[~same].min()


def test_each_j_phi_is_a_ladder_quantity_plus_its_target():
    # J_k phi_t = (the ladder residual of J_k phi_t) + (its target), entry by
    # entry: the identity by which S_z reads J_3 phi_up off the ladder table
    ladder = spingrid._LADDER
    up, dn = ladder[0], ladder[1]
    for k, phi, which, target in [(2, spingrid._UP, "+", 0.0),
                                  (3, spingrid._UP, "3", 0.5 * up),
                                  (4, spingrid._UP, "-", dn),
                                  (5, spingrid._DN, "-", 0.0),
                                  (6, spingrid._DN, "3", -0.5 * dn),
                                  (7, spingrid._DN, "+", up)]:
        j_phi = spingrid._real_rows(spingrid._j(phi, which))
        assert np.array_equal(j_phi, ladder[k] + target), (which, k)


@pytest.mark.parametrize("check, atoms", [(ladder_residuals, [0, 2, 3, 5, 6, 8, 9, 10, 13]),
                                          (sz_grid_integral, [0, 2, 13])])
def test_each_check_builds_only_the_atoms_it_reads(sol05, monkeypatch, check, atoms):
    # the orbits' terms: the ladder's 8 read 9 atoms, S_z's 4 read f, g y/r and
    # D3 (g x/r); all 16 took S_z's 64^3 pass 3.3 -> 5.6 ms
    seen, slabs = [], spingrid._slabs

    def recording(solution, spec, requested):
        seen.append(list(requested))
        return slabs(solution, spec, requested)

    monkeypatch.setattr(spingrid, "_slabs", recording)
    check(sol05, GridSpec(n=8, extent=10.0))
    assert seen == [atoms]


@pytest.mark.parametrize("check, pairs", [
    (ladder_residuals, {(0, 0), (0, 2), (1, 0), (1, 1), (1, 2), (2, 0), (2, 1), (2, 2)}),
    (sz_grid_integral, {(1, 0), (1, 1)})])
def test_each_check_differentiates_only_the_pairs_it_reads(sol05, monkeypatch, check, pairs):
    # (field, axis) pairs, fields f, g x/r, g y/r, g z/r and axes x, y, z: the
    # ladder differentiates 8 (f along x and z, g x/r and g y/r along all
    # three), S_z 2 (g x/r along x and y). n = 8 is one slab, so each pair is
    # one derivative
    atoms = {ladder_residuals: spingrid._LADDER_PASS, sz_grid_integral: spingrid._SZ_PASS}
    assert set().union(*[spingrid._READS[a] for a in atoms[check][0]]) == pairs
    calls, diff = [], spingrid._diff

    def counting(c, h, axis, face):
        calls.append(axis)
        return diff(c, h, axis, face)

    monkeypatch.setattr(spingrid, "_diff", counting)
    check(sol05, GridSpec(n=8, extent=10.0))
    assert sorted(calls) == sorted(axis for _, axis in pairs)


@pytest.mark.parametrize("name", ["TERMS", "SZ_UP", "SZ_J3UP"])
def test_nonzero_tables_rebuild_the_dense_ones(name):
    # every coefficient after a term's first is +-1, as _squares assumes; on
    # integer atoms the terms and their squares are exact both ways. The S_z
    # terms are those of phi_up's rows' orbits (SZ_UP), then those of the
    # orbits of phi_up +- R, which read J_3 phi_up through R (SZ_J3UP)
    terms, (atoms, nonzeros) = {"TERMS": (spingrid._TERMS, spingrid._LADDER_PASS)}.get(
        name, (spingrid._SZ_TERMS, spingrid._SZ_PASS))
    assert np.array_equal(atoms, np.flatnonzero(terms.any(axis=0)))
    if name != "TERMS":
        up, j3up = set(spingrid._SZ_TERM[:4].tolist()), set(spingrid._SZ_TERM[4:].tolist())
        assert len(up) == len(j3up) == 2 and not up & j3up
        part = sorted(up if name == "SZ_UP" else j3up)
        terms, nonzeros = terms[part], [nonzeros[k] for k in part]
    rebuilt = np.zeros_like(terms)
    for i, row in enumerate(nonzeros):
        for k, (j, c) in enumerate(row):
            assert k == 0 or c in (1.0, -1.0)
            rebuilt[i, atoms[j]] = c
    assert np.array_equal(rebuilt, terms)
    values = np.random.default_rng(5).integers(-99, 99, (len(atoms), 50)).astype(float)
    squares = spingrid._squares(nonzeros, values)
    assert np.array_equal(np.sqrt(squares), np.abs(terms[:, atoms] @ values))
    assert np.array_equal(squares, (terms[:, atoms] @ values) ** 2)


def _atom_parities():
    """(16, 3): the sign each atom takes under x -> -x, y -> -y and z -> -z,
    as its field's times its operator's."""
    field = np.ones((4, 3))
    field[1:] -= 2.0 * np.eye(3)       # g x_k/r is odd in x_k alone
    operator = np.ones((4, 3))
    operator[1:] = 2.0 * np.eye(3) - 1.0  # D1 = y dz - z dy is odd in y and z
    return (operator[:, None] * field[None]).reshape(16, 3)


def test_every_summand_is_even_under_each_reflection():
    # the octant sum times 8 is the cube's because every ladder and S_z term,
    # each table row too, reads atoms of one parity, so that its square is even
    parity = _atom_parities()
    ladder = spingrid._LADDER[spingrid._QUANTITY, spingrid._ROW]
    for row in np.vstack([spingrid._TERMS, spingrid._SZ_TERMS, ladder, _sz_rows()[0]]):
        signs = parity[row != 0]
        assert (signs == signs[0]).all(), row


def test_atom_parities_hold_on_the_dense_cube(sol05):
    # the derived parities against the sampled atoms' mirror images; the faces'
    # one-sided stencils are mirror images only up to rounding
    atoms = oracles.atoms_dense(sol05, GridSpec(n=8, extent=10.0))
    for axis, signs in enumerate(_atom_parities().T):
        mirrored = np.flip(atoms, axis=axis + 1) * signs[:, None, None, None]
        assert np.allclose(mirrored, atoms, rtol=0.0, atol=1e-14 * np.abs(atoms).max()), axis


@pytest.mark.parametrize("atoms", [spingrid._LADDER_PASS[0], spingrid._SZ_PASS[0]],
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


def _peak(check, solution, spec):
    """The tracemalloc peak of one grid check, in bytes."""
    tracemalloc.start()
    try:
        check(solution, spec)
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


@pytest.mark.parametrize("check", [ladder_residuals, sz_grid_integral])
def test_streamed_grid_memory_bounded(sol05, check):
    # the dense 64^3 path peaked at 188 MB (ladder) and 140 MB (spin); the
    # whole cube streamed at 10.1 and 4.9 MB, its octant at 2.9 and 1.5 MB, and
    # at 1.93 and 1.14 MB from the radius table; one term per orbit, with only
    # the (field, axis) pairs it reads differentiated, peaks at 1.34 and 0.78 MB.
    # Each bound is that peak plus about 15 %
    bound = {ladder_residuals: 1.55e6, sz_grid_integral: 0.9e6}[check]
    peak = _peak(check, sol05, GridSpec(n=64, extent=10.0))
    assert peak <= bound, peak


def test_ladder_check_squares_each_term_once(sol05):
    # over the octant, squaring all 40 nonzero table rows per slab peaked at
    # 3.9 MB, the 16 distinct rows at 2.9 MB (whole cube: 12.5 and 10.1 MB), and
    # 1.93 MB from the radius table; one term per orbit peaks at 1.34 MB, and
    # the bound is that plus about 15 %
    peak = _peak(ladder_residuals, sol05, GridSpec(n=64, extent=10.0))
    assert peak <= 1.55e6, peak


def test_ladder_check_memory_bounded_at_128(sol05):
    # 7.60 MB when each of the 16 distinct rows was squared and all four fields
    # were differentiated along every axis read; 5.24 MB with one term per
    # orbit and only the pairs the terms read. The bound is that plus about 15 %
    peak = _peak(ladder_residuals, sol05, GridSpec(n=128, extent=10.0))
    assert peak <= 6.0e6, peak


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
