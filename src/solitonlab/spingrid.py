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
D3 = x dy - y dx. The coefficients of the basis spinors and ladder residuals
on these sixteen real "atoms" are one table; each check sums squared rows of
it (S_z through the J_3 phi_up residual). Rows that the cube's axis
permutations map into one another have one cube sum, so a check squares one
term per orbit (8 for the ladder, 4 for S_z), built from its nonzeros with
ufuncs and summed by einsum (no BLAS, whose helper threads would spin); the
terms are picked so as to differentiate the fewest (field, axis) pairs.

The nodes of each axis are +-(k + 1/2) h, k = 0 .. n/2 - 1, with
h = 2 extent / (n - 1): the point count is even, so the coordinate origin
(where z/r is undefined) is never sampled, and a node's mirror image is its
exact negation.

Each field has a fixed parity under each of the reflections x -> -x,
y -> -y and z -> -z, and so has each of D1, D2 and D3; every squared row
reads atoms of one parity, so every summand is even. The checks therefore
sample, differentiate and sum only the octant x, y, z > 0 and multiply by 8.
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
are taken only on the planes, rows and columns that are kept. A check writes
every slab through out= into one workspace that it allocates once, so memory
is O(n^2 * _SLAB), not O(n^3), and a fresh process faults its pages in once,
not per slab.

The radial profile is put on the cube by cubic Hermite interpolation on the
stored values and derivatives (F, F', G, G' at every node), anchored at the
origin by the regular series: F = F0, F' = 0, G = 0, G' = c1.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from itertools import compress, permutations, product

import numpy as np

from .errors import GridError, is_count

__all__ = ["GridSpec", "LadderReport", "ladder_residuals", "sz_grid_integral"]

# x-planes per slab, but for a shorter first one
_SLAB = 4
# points per axis: memory is O(n^2 * _SLAB), ~55 MB at 512 (13.8 MB at 256)
_MAX_N = 512


@dataclass(frozen=True)
class GridSpec:
    n: int = 64
    extent: float = 12.0  # half-width of the cube in units of ell0

    def __post_init__(self):
        if not (is_count(self.n) and 4 <= self.n <= _MAX_N):
            raise GridError(f"grid point count must be an integer in [4, {_MAX_N}], "
                            f"got {self.n!r}")
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
    spin = (np.array(_SIGMA[which]) @ phi.reshape(2, 2, 4)).reshape(4, 4)
    return np.hstack([spin] + [alpha * phi for alpha in _ALPHA[which]])


def _real_rows(coef):
    """Rows giving the real, then the imaginary parts of the four components."""
    return np.concatenate([coef.real, coef.imag], axis=-2)


def _nonzeros(table):
    """The atoms table reads, and each row's nonzeros as (index among them, value)."""
    atoms = np.flatnonzero(table.any(axis=0))
    return atoms, [[(j, c) for j, c in enumerate(r) if c] for r in table[:, atoms].tolist()]


# The eight spinor-valued quantities whose squared grid norms are accumulated:
# the two basis spinors, then the six ladder residuals J phi - target.
_LADDER = _real_rows(np.stack((
    _plain(_UP),
    _plain(_DN),
    _j(_UP, "+"),
    _j(_UP, "3") - _plain(0.5 * _UP),
    _j(_UP, "-") - _plain(_DN),
    _j(_DN, "-"),
    _j(_DN, "3") + _plain(0.5 * _DN),
    _j(_DN, "+") - _plain(_UP),
)))
# 24 of its 64 rows are zero: the 40 others, and the quantity each adds to
_QUANTITY, _ROW = np.nonzero(_LADDER.any(axis=2))
# An axis permutation pi fixes f, takes g x_k/r to g x_pi(k)/r and D_k to
# sgn(pi) D_pi(k): _SLOT is pi on an atom's kind and field (slot 0, f or no D,
# fixed), and a row's image is row[_SOURCE[pi]] * _SIGN[pi]. The axes share
# nodes, ghost plane, stencils and weights, so a row and its image have one cube
# sum; so have a row and the row plus c _NULL, as sum_k D_k (g x_k/r) = x . (x
# cross grad)(g/r) is 0 on the grid too. _READS: the pairs each atom differentiates.
_KIND, _FIELD = np.divmod(np.arange(16), 4)
_SLOT = np.array(list(permutations(range(4)))[:6])  # the 6 that fix 0
_SOURCE = 4 * _SLOT[:, _KIND] + _SLOT[:, _FIELD]
_SIGN = (-1) ** ((_SLOT[:, [1, 1, 2]] > _SLOT[:, [2, 3, 3]]).sum(1, keepdims=True) * (_KIND > 0))
_NULL = (_KIND == _FIELD) & (_KIND > 0)
_AXES = (None, (1, 2), (2, 0), (0, 1))  # D_k = x_p d_q - x_q d_p, (p, q) = _AXES[k]
_READS = [frozenset((a % 4, axis) for axis in _AXES[a // 4] or ()) for a in range(16)]


def _orbits(rows):
    """Each row's orbit, keyed by its least image (sign and _NULL taken out),
    and a term per orbit: the rows, chosen jointly, reading fewest _READS pairs."""
    signed = list(map(tuple, map(max, rows.tolist(), (-rows).tolist())))  # lead > 0
    distinct = list(dict.fromkeys(signed))
    images = np.array(distinct)[:, _SOURCE] * _SIGN
    images -= images[..., -1:] * _NULL  # no D3 (g z/r) left
    key, members = {}, {}  # each row's orbit; each orbit's rows by the pairs they read
    for row, image, negated in zip(distinct, images.tolist(), (-images).tolist()):
        key[row] = k = tuple(min(map(max, image, negated)))  # each image up to sign
        members.setdefault(k, {}).setdefault(frozenset().union(*compress(_READS, row)), row)
    best = min(product(*map(list, members.values())),
               key=lambda reads: len(frozenset().union(*reads)))
    return (np.array(list(map(list(members).index, map(key.get, signed)))),
            np.array(list(map(dict.get, members.values(), best))) + 0.0)  # no -0.0


_TERM, _TERMS = _orbits(_LADDER[_QUANTITY, _ROW])
# S_z = <phi_up|J_3 phi_up> = |phi_up|^2/2 + <phi_up|R>, with R = J_3 phi_up -
# phi_up/2 the ladder's quantity 3, and 4 <phi_up|R> = |phi_up + R|^2 -
# |phi_up - R|^2 on the 2 rows where both are nonzero (the others add nothing)
_up, _r = _LADDER[[0, 3]]
_both = _up.any(axis=1) & _r.any(axis=1)
_SZ_TERM, _SZ_TERMS = _orbits(np.vstack([_up[_up.any(1)], (_up + _r)[_both], (_up - _r)[_both]]))
_SZ_WEIGHTS = np.bincount(_SZ_TERM, weights=np.repeat([0.5, 0.25, -0.25], [4, 2, 2]))
_LADDER_PASS, _SZ_PASS = _nonzeros(_TERMS), _nonzeros(_SZ_TERMS)


def _squares(nonzeros, atoms, w, row):
    """The weighted sum of each squared row of table @ atoms, from the table's
    nonzeros and without BLAS: one ufunc per nonzero into row, each after a
    row's first +-1, then the square and its einsum with the weights w. A row
    that is one atom times +-1 is squared straight from it."""
    sums = []
    for (j, c), *rest in nonzeros:
        if abs(c) == 1 and not rest:
            np.square(atoms[j], out=row)
        else:
            np.multiply(atoms[j], c, out=row)
            for k, sign in rest:
                (np.add if sign > 0 else np.subtract)(row, atoms[k], out=row)
            np.square(row, out=row)
        sums.append(np.einsum("i,i->", row.ravel(), w.ravel()))
    return sums


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
    odd = np.abs(np.arange(-1, 2 * m, 2, dtype=np.int32))
    tri = odd * odd >> 3
    return tri, 0.5 * h * np.sqrt(8.0 * np.arange(3 * tri[-1] + 1) + 3.0)


def _diff(c, h, axis, face, out, tmp):
    """d/d(axis) of c into out, at the last len(out) of indices 1 .. len - 2
    and len - 1 too if face, by np.gradient's uniform edge_order=2 stencils
    operation for operation: central differences, and the one-sided one on
    the face, its terms summed through tmp (of out's shape)."""
    c, along = c.swapaxes(0, axis), out.swapaxes(0, axis)
    n = len(along) - face  # central differences, at len - 1 - n .. len - 2
    np.subtract(c[len(c) - n:], c[len(c) - n - 2:len(c) - 2], out=along[:n])
    along[:n] /= 2.0 * h
    if face:
        last, term = along[-1], tmp.swapaxes(0, axis)[-1]
        np.multiply(c[-3], 0.5 / h, out=last)
        for coef, plane in ((-2.0 / h, c[-2]), (1.5 / h, c[-1])):
            last += np.multiply(plane, coef, out=term)
    return out


def _atoms(planes, face, h, coords, atoms, pairs, out):
    """Atoms 4 * kind + field (kind: the field, D1, D2, D3) on the core planes
    of the fields' window (the last len(coords[0]) before the upper halo,
    which the outer face has not), less the ghost row and column (index 0 of
    the y and z axes): plain ones as views, the derivatives kept of each
    (field, axis) pair once, then D ones into out, whose last is scratch."""
    end = planes.shape[1] - 1 + face
    c = planes[:, end - len(coords[0]):end]
    # along each axis, the window whose stencils give the kept derivatives
    windows = (planes[:, :, 1:, 1:], c[..., 1:], c[:, :, 1:])
    buffers, scratch = iter(out[:-1]), out[-1]
    d = {(j, axis): _diff(windows[axis][j], h, axis, face or axis > 0, buf, scratch)
         for (j, axis), buf in zip(pairs, buffers)}
    c, values = c[:, :, 1:, 1:], []
    for a in atoms:
        kind, j = divmod(a, 4)
        if kind:  # D_kind = x_p d_q - x_q d_p, in place
            p, q = _AXES[kind]
            v = np.multiply(coords[p], d[j, q], out=next(buffers))
            v -= np.multiply(coords[q], d[j, p], out=scratch)
        else:
            v = c[j]
        values.append(v)
    return values


def _slabs(solution, spec: GridSpec, atoms):
    """Yield (values, weights, row) slab by slab over the octant x, y, z > 0,
    views of the check's one workspace that the next slab overwrites: the
    requested atoms and octant trapezoid weights as (x, y, z) planes, and a
    free buffer of that shape. An even summand's octant sum is 1/8 of its cube sum.

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
    # the workspace: node indices and fields f, g x/r, ... up to the last read on
    # a window; on the core planes, each pair's derivative, D atoms, scratch, w
    k, pairs = min(_SLAB, m), sorted(frozenset().union(*[_READS[a] for a in atoms]))
    index = np.empty((k + 2, m + 1, m + 1), np.int32)
    fields = np.empty((1 + max(a % 4 for a in atoms),) + index.shape)
    core = np.empty((len(pairs) + sum(a > 3 for a in atoms) + 2, k, m, m))
    # slab by slab, the fields on the core x-planes and a halo plane on
    # either side; a face slab of one plane takes a second plane below, for
    # the one-sided outer stencil. The short slab comes first, where the
    # ghost plane is its lower halo.
    i0 = 1
    for i1 in reversed(range(m + 1, 1, -_SLAB)):
        lo, hi = min(i0 - 1, m - 2), min(i1 + 1, m + 1)  # with the halo planes
        t = np.add(tri[lo:hi, None, None], tri_yz, out=index[:hi - lo])
        planes, g = fields[:, :hi - lo], fields[-1, :hi - lo]
        np.take(f, t, out=planes[0], mode="clip")  # in range: clip only skips a copy
        np.take(g_over_r, t, out=g, mode="clip")  # g/r, into the last field read
        for field, x in zip(planes[1:], (ax[lo:hi, None, None], Y, Z)):  # the last in place
            np.multiply(g, x, out=field)
        values = _atoms(planes, i1 == hi, h, (ax[i0:i1, None, None], Y[:, 1:], Z[:, :, 1:]),
                        atoms, pairs, core[:-1, :i1 - i0])
        w = np.multiply(w1[i0 - 1:i1 - 1, None, None], w1[:, None], out=core[-1, :i1 - i0])
        w *= w1
        yield values, w, core[-2, :i1 - i0]
        i0 = i1


def _square_sums(solution, spec: GridSpec, atoms, nonzeros):
    """The cube's weighted sum of each squared row of a table, as _nonzeros
    gives it, from one pass over the octant that builds only the atoms the
    table reads. Every summand is even: the cube's sums are 8 octant sums."""
    sums = np.zeros(len(nonzeros))
    for values, w, row in _slabs(solution, spec, atoms):
        sums += _squares(nonzeros, values, w, row)
    return 8.0 * sums


def ladder_residuals(solution, spec: GridSpec) -> LadderReport:
    """Grid L2 residuals of all six ladder relations: the ladder table's 8
    terms squared in one pass, each sum added into the quantities of the rows
    of its orbit. Peak memory is O(n^2 * _SLAB), about 3.5 MB of arrays at
    n = 128 (tracemalloc). Raises GridError if a basis norm is not finite and
    > 0, as when the trapezoid weights underflow on a tiny cube."""
    term_sums = _square_sums(solution, spec, *_LADDER_PASS)
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
    total = float(np.einsum("i,i->", _square_sums(solution, spec, *_SZ_PASS), _SZ_WEIGHTS))
    if not 0.0 < total < math.inf:
        raise GridError(f"grid S_z integral is {total!r}, not finite and > 0, "
                        f"at extent {spec.extent!r}")
    return total
