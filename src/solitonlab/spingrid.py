"""Cartesian-grid sampling of the spin-basis 4-spinors and J operators.

The two basis solitons are sampled on a cube and the total angular momentum
J = -i(r x grad) + Sigma/2 is applied with second-order central differences
(second-order one-sided ones on the faces). This validates, independently of
any algebra, that the sampled fields obey the spin-1/2 ladder relations and
carry J_3 = +-1/2.

Component layout of the 4-spinor (upper 2-spinor, lower 2-spinor):

    phi_up = (f, 0, i g z/r, i g (x+iy)/r) / sqrt(4 pi)
    phi_dn = (0, f, i g (x-iy)/r, -i g z/r) / sqrt(4 pi)

Every component of both spinors is a fixed complex combination of four real
fields, f, g x/r, g y/r and g z/r, so the grid work is real: -i(r x grad)
acts through the real operators D1 = y dz - z dy, D2 = z dx - x dz and
D3 = x dy - y dx. The complex coefficients of every quantity on these sixteen
real "atoms" are constant tables, and each check builds only the atoms and
gradients its tables read: all 16 for the ladder relations, 6 for S_z. The
rows of the tables are built from their nonzeros with ufuncs (25 of the 256
ladder entries, all +-1 but one 2), and the weighted sums reduced by einsum,
so no check calls BLAS, whose helper threads would spin on the other cores.

The nodes of each axis are +-(k + 1/2) h, k = 0 .. n/2 - 1, with
h = 2 extent / (n - 1): the point count is even, so the coordinate origin
(where z/r is undefined) is never sampled, and a node's mirror image is its
exact negation.

Each field has a fixed parity under each of the reflections x -> -x,
y -> -y and z -> -z, and so has each of D1, D2 and D3; every term squared
for the ladder relations, and every row pair multiplied for S_z, reads atoms
of one parity, so every summand is even. The checks therefore sample,
differentiate and sum only the octant x, y, z > 0 and multiply each sum by 8.
A ghost plane at -h/2 before each inner face is sampled like any other (R is
bit-equal there and g x/r changes sign exactly), so the central difference
at +h/2 reads the full cube's neighbour; no derivative is taken on a ghost.
The octant's trapezoid weight is h up to the outer face and h/2 on it.

Every node, ghosts included, is (2i + 1, 2j + 1, 2k + 1) h/2 up to sign, so
its radius is (h/2) sqrt(s) with s = 8 t + 3 an integer: t, a sum of three
per-axis integers, indexes the O(n^2) distinct radii. The radial profile is
evaluated once per check on that table, and each node gathers its fields
from it.

The octant is streamed in slabs of x-planes, each gathered with a one-plane
halo on either side so that every stencil is the full cube's; derivatives
are taken only on the planes, rows and columns that are kept. Only the
table and float sums cross slab boundaries, so memory is O(n^2 * _SLAB), not
O(n^3).

The radial profile is put on the cube by cubic Hermite interpolation on the
stored values and derivatives (F, F', G, G' at every node), anchored at the
origin by the regular series: F = F0, F' = 0, G = 0, G' = c1.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import GridError, is_count

__all__ = ["GridSpec", "LadderReport", "ladder_residuals", "sz_grid_integral"]

# x-planes per slab, but for a shorter first one
_SLAB = 4


@dataclass(frozen=True)
class GridSpec:
    n: int = 64
    extent: float = 12.0  # half-width of the cube in units of ell0

    def __post_init__(self):
        if not (is_count(self.n) and self.n >= 4):
            raise GridError(f"grid point count must be an integer >= 4, got {self.n!r}")
        if self.n % 2:
            raise GridError("grid point count must be even to exclude the origin")
        if not (self.extent > 0.0 and math.isfinite(self.extent)):
            raise GridError(f"grid extent must be finite and > 0, got {self.extent!r}")
        if not self.spacing > 0.0:
            raise GridError(f"grid spacing 2*extent/(n-1) underflows to 0 "
                            f"(n = {self.n}, extent = {self.extent!r})")

    @property
    def spacing(self) -> float:
        return 2.0 * self.extent / (self.n - 1)


@dataclass(frozen=True)
class LadderReport:
    """Relative grid L2 residuals of the six ladder relations."""
    jplus_up: float      # J+ phi_up = 0
    j3_up: float         # J3 phi_up = +phi_up/2
    jminus_up: float     # J- phi_up = phi_dn
    jminus_dn: float     # J- phi_dn = 0
    j3_dn: float         # J3 phi_dn = -phi_dn/2
    jplus_dn: float      # J+ phi_dn = phi_up
    grid_spec: GridSpec

    def as_dict(self) -> dict:
        return {
            "jplus_up": self.jplus_up, "j3_up": self.j3_up,
            "jminus_up": self.jminus_up, "jminus_dn": self.jminus_dn,
            "j3_dn": self.j3_dn, "jplus_dn": self.jplus_dn,
        }

    @property
    def max_residual(self) -> float:
        # NaN-propagating: Python's max drops a NaN after a finite value
        return float(np.max(list(self.as_dict().values())))


# Rows: the four components of a spinor; columns: complex coefficients on the
# real fields (f, g x/r, g y/r, g z/r), 1/sqrt(4 pi) included in the fields.
_UP = np.array([[1, 0, 0, 0], [0, 0, 0, 0], [0, 0, 0, 1j], [0, 1j, -1, 0]])
_DN = np.array([[0, 0, 0, 0], [1, 0, 0, 0], [0, 1j, 1, 0], [0, 0, 0, -1j]])
# L = sum_k alpha_k D_k: L_3 = -i D3 and L_+- = L_1 +- i L_2 = -i D1 +- D2
_ALPHA = {"3": (0, 0, -1j), "+": (-1j, 1, 0), "-": (-1j, -1, 0)}
# the 2x2 block through which Sigma/2 enters J_3, J_+ and J_-
_SIGMA = {"3": [[0.5, 0], [0, -0.5]], "+": [[0, 1], [0, 0]], "-": [[0, 0], [1, 0]]}


def _plain(phi):
    """phi itself as coefficients on the 16 atoms (fields, D1, D2, D3 of fields)."""
    return np.hstack([phi, np.zeros((4, 12))])


def _j(phi, which: str):
    """Coefficients of J phi on the 16 atoms; Sigma acts blockwise as sigma."""
    spin = np.kron(np.eye(2), _SIGMA[which]) @ phi
    return np.hstack([spin] + [alpha * phi for alpha in _ALPHA[which]])


def _real_rows(coef):
    """Rows giving the real, then the imaginary parts of the four components."""
    return np.vstack([coef.real, coef.imag])


# The eight spinor-valued quantities whose squared grid norms are accumulated:
# the two basis spinors, then the six ladder residuals J phi - target.
_LADDER = np.stack([_real_rows(c) for c in (
    _plain(_UP),
    _plain(_DN),
    _j(_UP, "+"),
    _j(_UP, "3") - _plain(0.5 * _UP),
    _j(_UP, "-") - _plain(_DN),
    _j(_DN, "-"),
    _j(_DN, "3") + _plain(0.5 * _DN),
    _j(_DN, "+") - _plain(_UP),
)])
# 24 of its 64 rows are zero: the 40 others, and the quantity each adds to
_QUANTITY, _ROW = np.nonzero(_LADDER.any(axis=2))
_ROWS = _LADDER[_QUANTITY, _ROW]
# up to sign they are 16 distinct terms, each squared once (J+ phi_up and J- phi_dn
# share theirs, say): a row with its lead entry made > 0; _TERM maps rows to terms
_lead = _ROWS[np.arange(len(_ROWS)), np.argmax(_ROWS != 0, axis=1)]
_distinct = {}
_TERM = np.array([_distinct.setdefault(tuple(r), len(_distinct))
                  for r in (np.sign(_lead)[:, None] * _ROWS).tolist()])
_LADDER_ATOMS = np.flatnonzero(_ROWS.any(axis=0))  # all 16
_TERMS = np.array(list(_distinct))[:, _LADDER_ATOMS]
_SZ = np.stack([_real_rows(_plain(_UP)), _real_rows(_j(_UP, "3"))])
# phi_up and J_3 phi_up, less the 4 rows where phi_up is zero and adds nothing
_SZ_ROWS = _SZ[:, _SZ[0].any(axis=1)]
_SZ_ATOMS = np.flatnonzero(_SZ_ROWS.any(axis=(0, 1)))
_SZ_UP, _SZ_J3UP = _SZ_ROWS[:, :, _SZ_ATOMS]


def _nonzeros(table):
    """Each row of table as the (column, coefficient) of its nonzeros."""
    return [[(j, row[j]) for j in np.flatnonzero(row)] for row in table]


def _rows(nonzeros, atoms, square=False):
    """table @ atoms, squared if square, from the table's nonzeros and
    without BLAS: one ufunc per nonzero, each after a row's first +-1. A row
    that is one atom is squared straight from it."""
    r = np.empty((len(nonzeros), atoms.shape[1]))
    for row, ((j, c), *rest) in zip(r, nonzeros):
        if square and c == 1 and not rest:
            np.square(atoms[j], out=row)
            continue
        np.multiply(atoms[j], c, out=row)
        for k, sign in rest:
            (np.add if sign > 0 else np.subtract)(row, atoms[k], out=row)
        if square:
            np.square(row, out=row)
    return r


_TERMS_NZ, _SZ_UP_NZ, _SZ_J3UP_NZ = map(_nonzeros, (_TERMS, _SZ_UP, _SZ_J3UP))


def _radial_interpolant(solution):
    """Cubic Hermite interpolant r -> (F(r), G(r)) of the stored profile.

    Each interval's cubic matches the values and derivatives at both ends
    (de Boor, A Practical Guide to Splines, ch. IV); the derivatives are the
    stored right-hand side, so nothing is solved, and the first interval
    starts at the series anchor at the origin. The Horner coefficients in
    s = r - x_k are built once; an evaluation shares one interval search
    between F and G.
    """
    p, F0, Omega = solution.profile, solution.shooting.F0, solution.Omega
    x = np.concatenate([[0.0], p.grid])
    h = np.diff(x)
    c1 = ((Omega - 1.0) * F0 + F0 ** 3) / 3.0
    horner = []
    for y0, d0, y, d in ((F0, 0.0, p.F, p.dF), (0.0, c1, p.G, p.dG)):
        y, d = np.concatenate([[y0], y]), np.concatenate([[d0], d])
        slope = np.diff(y) / h
        horner.append(((d[:-1] + d[1:] - 2.0 * slope) / (h * h),
                       (3.0 * slope - 2.0 * d[:-1] - d[1:]) / h, d[:-1], y[:-1]))

    def fg(r):
        k = np.searchsorted(x, r, side="right") - 1
        np.clip(k, 0, len(h) - 1, out=k)
        s = r - x[k]
        return [((a[k] * s + b[k]) * s + c[k]) * s + d[k] for a, b, c, d in horner]

    return fg


def _radius_table(h: float, m: int):
    """The distinct radii of the octant's nodes, ghost nodes included, and
    each axis node's share of the index into them.

    A node is +-(2i + 1) h/2 on each axis, and an odd square is 8 T + 1 with
    T = i (i + 1) / 2, so its radius is (h/2) sqrt(8 t + 3) with t the sum of
    its three axis T. Returns (T of each node of the axis, ghost first; the
    radii r_t for t = 0 .. 3 T of the outer node).
    """
    odd = np.concatenate(([1], 2 * np.arange(m) + 1))
    tri = odd * odd >> 3
    return tri, 0.5 * h * np.sqrt(8.0 * np.arange(3 * tri[-1] + 1) + 3.0)


def _diff(c, h, axis, face):
    """d/d(axis) of c at indices 1 .. len - 2, and at len - 1 too if face, by
    np.gradient's uniform edge_order=2 stencils operation for operation:
    central differences, and the one-sided one on the face."""
    shape = list(c.shape)
    shape[axis] += face - 2
    d = np.empty(shape)  # in c's layout, written through views along the axis
    c, along = np.moveaxis(c, axis, 0), np.moveaxis(d, axis, 0)
    inner = along[:len(c) - 2]
    np.subtract(c[2:], c[:-2], out=inner)
    inner /= 2.0 * h
    if face:
        along[-1] = 0.5 / h * c[-3] + -2.0 / h * c[-2] + 1.5 / h * c[-1]
    return d


def _atoms(planes, face, h, X, Y, Z, atoms):
    """Atoms 4 * kind + field (kind: the field, D1, D2, D3) on the core planes
    of the fields' window (all but the first, and but the last unless it is
    the outer face), less the ghost row and column (index 0 of the y and z
    axes). Only the derivatives kept are taken, along the axes that one of
    the atoms reads."""
    axes = set("".join(("", "yz", "xz", "xy")[a // 4] for a in atoms))
    c = planes[:, 1:planes.shape[1] - 1 + face]
    dx = _diff(planes[:, :, 1:, 1:], h, 1, face) if "x" in axes else None
    dy = _diff(c[..., 1:], h, 2, True) if "y" in axes else None
    dz = _diff(c[:, :, 1:], h, 3, True) if "z" in axes else None
    c = c[:, :, 1:, 1:]
    # D1 = Y dz - Z dy, D2 = Z dx - X dz and D3 = X dy - Y dx, in place
    products = (None, (Y, dz, Z, dy), (Z, dx, X, dz), (X, dy, Y, dx))
    values = np.empty((len(atoms),) + c.shape[1:])
    for v, a in zip(values, atoms):
        kind, j = divmod(a, 4)
        if kind:
            p, dp, q, dq = products[kind]
            np.multiply(p, dp[j], out=v)
            v -= q * dq[j]
        else:
            v[...] = c[j]
    return values


def _slabs(solution, spec: GridSpec, atoms):
    """Yield (values, weights) slab by slab over the octant x, y, z > 0: the
    requested atoms as (len(atoms), points) and the matching octant trapezoid
    weights as (points,). An even summand's octant sum is 1/8 of its cube sum.

    The interpolant runs once, on the table of distinct radii, and each slab
    gathers its fields from that table."""
    h, m = spec.spacing, spec.n // 2
    pos = (np.arange(m) + 0.5) * h  # mirror-exact: the cube's nodes are +-pos
    corner = math.sqrt(3.0) * pos[-1]
    if not corner <= solution.profile.x_max:
        # the interpolant covers only the stored grid
        raise GridError(
            f"grid corner radius {corner:.1f} exceeds profile x_max "
            f"{solution.profile.x_max:.1f}")
    # f and g/r at every distinct radius, gathered node by node below
    tri, r = _radius_table(h, m)
    F, G = _radial_interpolant(solution)(r)
    pre = 1.0 / math.sqrt(4.0 * math.pi)
    f = pre * F
    with np.errstate(invalid="ignore"):  # 0/0 if h/2 underflows to 0: checked below
        g_over_r = pre * G / r
    tri_yz = tri[:, None] + tri[None, :]
    ax = np.concatenate(([-pos[0]], pos))  # the ghost node, then the octant's
    w1 = np.full(m, h)
    w1[-1] = 0.5 * h  # trapezoid end weight; the inner face is interior
    Y, Z = ax[None, :, None], ax[None, None, :]
    # slab by slab, the four fields on the core x-planes and a halo plane on
    # either side. The short slab comes first, where the ghost plane is its
    # lower halo, so that the last window spans >= 3 planes for the one-sided
    # outer stencil.
    i0 = 1
    for i1 in reversed(range(m + 1, 1, -_SLAB)):
        lo, hi = i0 - 1, min(i1 + 1, m + 1)  # with the halo planes
        t = tri[lo:hi, None, None] + tri_yz
        planes = np.empty((4,) + t.shape)
        np.take(f, t, out=planes[0])
        g = g_over_r[t]
        for field, x in zip(planes[1:], (ax[lo:hi, None, None], Y, Z)):
            np.multiply(g, x, out=field)
        values = _atoms(planes, i1 == hi, h, ax[i0:i1, None, None],
                        Y[:, 1:], Z[:, :, 1:], atoms)
        w = w1[i0 - 1:i1 - 1, None, None] * w1[None, :, None] * w1[None, None, :]
        yield values.reshape(len(atoms), -1), w.ravel()
        i0 = i1


def ladder_residuals(solution, spec: GridSpec) -> LadderReport:
    """Grid L2 residuals of all six ladder relations.

    The octant is streamed in slabs in real arithmetic. Per slab, the 16
    distinct rows of the ladder table are built from the atoms and each
    squared, weighted sum is added into the quantities of its rows; the
    square roots of 8 times the sums are taken at the end. Peak memory is
    O(n^2 * _SLAB), about 10 MB of arrays at n = 128 (tracemalloc). Raises
    GridError if a basis norm is not finite and > 0, as when the trapezoid
    weights underflow on a tiny cube.
    """
    term_sums = np.zeros(len(_TERMS))
    for atoms, w in _slabs(solution, spec, _LADDER_ATOMS):
        term_sums += np.einsum("ij,j->i", _rows(_TERMS_NZ, atoms, square=True), w)
    term_sums *= 8.0  # each summand is even under the three reflections
    sums = np.bincount(_QUANTITY, weights=term_sums[_TERM], minlength=len(_LADDER))
    n_up, n_dn, *res = [math.sqrt(s) for s in sums]
    if not (0.0 < n_up < math.inf and 0.0 < n_dn < math.inf):
        raise GridError(f"grid norms of the basis spinors are {n_up!r} and {n_dn!r}, "
                        f"not finite and > 0, at extent {spec.extent!r}")
    return LadderReport(
        jplus_up=res[0] / n_up, j3_up=res[1] / n_up, jminus_up=res[2] / n_dn,
        jminus_dn=res[3] / n_dn, j3_dn=res[4] / n_dn, jplus_dn=res[5] / n_up,
        grid_spec=spec,
    )


def sz_grid_integral(solution, spec: GridSpec) -> float:
    """Dimensionless grid integral of phi_up^+ J_3 phi_up (converges to Q/2).

    Raises GridError if the integral is not finite and > 0."""
    total = 0.0
    for atoms, w in _slabs(solution, spec, _SZ_ATOMS):
        products = _rows(_SZ_UP_NZ, atoms)
        products *= _rows(_SZ_J3UP_NZ, atoms)
        total += float(np.einsum("ij,j->", products, w))
    total *= 8.0  # each summand is even under the three reflections
    if not 0.0 < total < math.inf:
        raise GridError(f"grid S_z integral is {total!r}, not finite and > 0, "
                        f"at extent {spec.extent!r}")
    return total
