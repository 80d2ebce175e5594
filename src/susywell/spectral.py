"""Finite-difference spectra of the partner potentials on a box.

Three-point Laplacian on a uniform interior grid; Dirichlet walls are
implicit in the truncation. Both eigen paths locate the lowest levels,
refine each one by O(n) inverse iteration on the tridiagonal H, and report
its Rayleigh quotient on H; the residual gate is measured against H.

Purely real diagonals take the symmetric path, which puts each of the
`count` lowest levels in a cell between cuts, by one rule on every grid.
With a prediction of the levels, the cuts lie midway between consecutive
predicted levels and half the last predicted spacing above the top one,
and one Sturm count at the top cut (LAPACK stebz over a value range, with
a tolerance as wide as the range, so that it counts and does not bisect)
must find exactly `count` levels below it. Without a prediction, or when
the count or a certificate refutes it, one Sturm bisection (stebz) locates
the `count + 1` lowest levels to 8 eps ||H||_inf, the finest width stebz
resolves, and the cuts lie midway between consecutive located levels.
Either way the `count` cells hold `count` levels between them. The
certificate of inverse iteration (below) then puts a level in every cell,
so each cell holds exactly one, and the level in cell j is level j. A
wrong prediction leaves some cell empty, and the level of an empty cell
cannot be certified. Inverse iteration starts from the predicted or
located level and then shifts to the latest Rayleigh quotient while that
stays in the cell. It stops when the Rayleigh quotient lies in its cell,
the Kato-Temple bound |r|^2 / gap, with gap the distance to the nearer
edge of the cell, certifies it to eps ||H||_inf (Parlett, The Symmetric
Eigenvalue Problem, 1998, sections 10.5-10.6), and the residual r has come
down to the rounding level sqrt(n) eps ||H||_inf. A predicted cell whose
level is not certified within MAX_SOLVES solves sends the grid to
bisection; a bisected level that is not certified raises
ConvergenceFailure. Either eigen path prepares one solver per grid
(_shifted_solver): it looks up the LAPACK routines once, and the one
off-diagonal band it is given also serves the Sturm counts and bisections
of the symmetric path, which call one stebz, also looked up once per grid.
Each solve is then one LAPACK gtsv call on diagonal - shift and a
normalization; a shift on an exact eigenvalue, where gtsv meets a zero
pivot (or zgtsv returns nan), is solved again by gttrf with its small
pivots raised, and a solution whose squared norm overflows is scaled by
its largest entry before it is normalized.

The predictions of a richardson_spectrum ladder: its coarsest grid takes
the guess of its caller, which for the q = 0 wells on their natural cell is
the closed-form ladder (k + m alpha)^2 - k^2 of states.remainder_spectrum
(gates.box_spectra); any other cell gives none and bisects. Each finer
grid takes the levels that the coarser grids predict for it (see
_predicted_levels), and each of its levels starts inverse iteration from
the coarser grid's eigenvector of that level, interpolated onto the new
nodes. Bisected levels, on the coarsest grid or after a refuted
prediction, start from the seeded draw default_rng(0).standard_normal(n),
as do the levels of the dense path, so reruns agree. No prediction can
change a level: the certificate holds whatever the cell's start and shift,
so a returned level is within eps max(1, ||H||_inf) of the matrix level,
guessed or bisected, and a wrong prediction only costs the bisection it
was meant to save.

Complex diagonals take the dense path, which is validated against the
symmetric path on real cases. It uses PT symmetry when the diagonal has it.
With J the flip of the grid about its centre, a PT-symmetric H satisfies
J H J = conj(H), and U = (I + iJ)/sqrt(2) makes M = U* H U real: its
diagonal is Re d, its off-diagonals are the constant b, and -Im d is added
along the anti-diagonal. The eigenvalues of M are those of H, at the cost of
a real instead of a complex dense solve. Diagonals that are not
PT-symmetric, as on an off-centre domain, take the complex dense solve.
Either way the dense solve computes all n eigenvalues and no eigenvectors,
and each selected level is refined by two steps of inverse iteration from
its dense eigenvalue; the Rayleigh quotients restore what the PT projection
of the diagonal dropped.

The LAPACK routines come from scipy's compiled module scipy.linalg._flapack,
which _lapack loads by its file on the first solve of a process, without
the scipy.linalg package and the array-API, f2py and charset modules that
its init imports. Importing susywell (or its CLI) loads no scipy until a
spectrum is solved.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace
from functools import cached_property

import numpy as np

from .errors import ConvergenceFailure

# residual gate, scaled by the matrix norm (see eigenvalues())
RESIDUAL_TOL = 1e-8
# a diagonal within this distance of its PT mirror, relative to max|d|, is
# PT-symmetric (sampling a symmetric potential at mirrored nodes leaves ~1e-13)
PT_TOL = 1e-11
# inverse iteration solves allowed per symmetric level before it must be certified
MAX_SOLVES = 6


@dataclass(frozen=True)
class Grid1D:
    """Uniform interior grid: nodes x_min + j h, j = 1..n, h = span/(n+1)."""

    x_min: float
    x_max: float
    n_interior: int

    def __post_init__(self):
        if not (self.x_min < self.x_max):
            raise ValueError(f"empty interval [{self.x_min!r}, {self.x_max!r}]")
        if self.n_interior < 16:
            raise ValueError(f"n_interior must be >= 16, got {self.n_interior!r}")

    @property
    def spacing(self) -> float:
        return (self.x_max - self.x_min) / (self.n_interior + 1)

    @property
    def points(self) -> np.ndarray:
        h = self.spacing
        return self.x_min + h * np.arange(1, self.n_interior + 1)


@dataclass(frozen=True)
class DiscretizedHamiltonian:
    """Tridiagonal H: diagonal 2/h^2 + V(x_j), off-diagonal -1/h^2."""

    grid: Grid1D
    diagonal: np.ndarray
    off_diagonal: float

    @property
    def is_real(self) -> bool:
        return bool(np.all(self.diagonal.imag == 0.0))

    @cached_property
    def norm_inf(self) -> float:
        return float(np.max(np.abs(self.diagonal)) + 2.0 * abs(self.off_diagonal))

    @property
    def pivot_floor(self) -> float:
        """eps max(1, ||H||_inf): the smallest pivot inverse iteration keeps
        and the accuracy to which a symmetric level is certified."""
        return float(np.finfo(np.float64).eps * max(1.0, self.norm_inf))


def _matvec(diagonal: np.ndarray, off_diagonal: float, v: np.ndarray) -> np.ndarray:
    out = diagonal * v
    coupled = off_diagonal * v
    out[:-1] += coupled[1:]
    out[1:] += coupled[:-1]
    return out


def discretize(potential, grid: Grid1D) -> DiscretizedHamiltonian:
    """Sample the potential on the interior nodes and build H.

    Endpoints are never evaluated; a node inside a pole's exclusion radius
    surfaces as the SusywellError of the potential callable itself.
    """
    xs = grid.points
    values = np.asarray(potential(xs), dtype=np.complex128)
    if values.shape != xs.shape:
        raise ValueError("potential must return one value per grid node")
    finite = np.isfinite(values)
    if not finite.all():
        bad = int(np.flatnonzero(~finite)[0])
        raise ValueError(f"potential not finite at grid node x={float(xs[bad])!r}")
    h = grid.spacing
    return DiscretizedHamiltonian(grid, 2.0 / h**2 + values, -1.0 / h**2)


@dataclass(frozen=True)
class SpectrumReport:
    """Lowest eigenvalues (sorted by real part, then imaginary part).

    residuals are ||H v - lambda v|| per eigenpair, v a unit vector;
    scaled_residuals divide that by max(1, ||H||_inf), which is the gated
    quantity. A report of richardson_spectrum keeps its single-grid reports
    in per_grid, coarsest first. vectors holds the unit eigenvectors of a
    single-grid report of the symmetric path, one array per level (None
    otherwise); richardson_spectrum passes them to the next grid and keeps
    none in its reports, and no payload holds them.
    """

    eigenvalues: np.ndarray
    max_imag: float
    grid_sizes_used: tuple[int, ...]
    richardson_estimates: tuple[float, ...] = ()
    residuals: np.ndarray = field(default_factory=lambda: np.empty(0))
    scaled_residuals: np.ndarray = field(default_factory=lambda: np.empty(0))
    per_grid: tuple["SpectrumReport", ...] = ()
    vectors: tuple[np.ndarray, ...] | None = field(default=None, repr=False, compare=False)


def eigenvalues(ham: DiscretizedHamiltonian, count: int, *, guess=None,
                vectors=None) -> SpectrumReport:
    """The `count` eigenvalues of smallest real part, each held to the
    residual gate by the residual its eigen path reports.

    A purely real diagonal takes the certified symmetric path of
    _symmetric_eigenpairs, any other the dense path of _dense_eigenpairs.
    guess, `count` predicted levels, lets the symmetric path confirm
    cells by a Sturm count instead of bisecting for them, and vectors,
    one start vector per level, starts inverse iteration on each predicted
    level (see _resampled: a vector may come from a grid of another size on
    the same interval); the dense path uses neither.
    """
    n = ham.grid.n_interior
    if not 1 <= count <= n:
        raise ValueError(f"count must be in [1, {n}], got {count!r}")
    if guess is not None and np.shape(guess) != (count,):
        raise ValueError(f"guess must hold {count} levels, got shape {np.shape(guess)}")
    if vectors is not None and (len(vectors) != count
                                or len({np.size(vec) for vec in vectors}) != 1):
        raise ValueError(f"vectors must hold {count} start vectors of one length")
    if ham.is_real:
        w, resid, vecs = _symmetric_eigenpairs(ham, count, guess, vectors)
    else:
        (w, resid), vecs = _dense_eigenpairs(ham, count), None
    scaled = resid / max(1.0, ham.norm_inf)
    if not np.all(scaled <= RESIDUAL_TOL):  # a nan residual fails too
        worst = float(np.max(scaled))
        method = "symmetric" if ham.is_real else "dense"
        raise ConvergenceFailure(f"eigenpair residual {worst:.3e} exceeds gate "
                                 f"{RESIDUAL_TOL:g} ({method} path, n = {n})")
    return SpectrumReport(
        eigenvalues=w,
        max_imag=float(np.max(np.abs(w.imag))),
        grid_sizes_used=(n,),
        residuals=resid,
        scaled_residuals=scaled,
        vectors=vecs,
    )


def _symmetric_eigenpairs(ham: DiscretizedHamiltonian, count: int, guess=None, vectors=None):
    """(w, residuals, eigenvectors) of the `count` lowest levels of a real
    H, each certified to eps max(1, ||H||_inf) (see the module docstring).

    A guess whose top cut the Sturm count confirms gives level j the cell
    between cuts j - 1 and j (level 0's cell is unbounded below), and
    _certify proves that each cell holds its level, starting inverse
    iteration from vectors when given. Otherwise one bisection to
    8 eps ||H||_inf locates the count + 1 lowest levels, the cuts go
    midway between consecutive ones, and _certify starts level j from
    located level j.
    """
    diagonal = np.ascontiguousarray(ham.diagonal.real)
    band = np.full(diagonal.size - 1, ham.off_diagonal)
    solve = _shifted_solver(diagonal, band, ham.pivot_floor)
    (stebz,) = _lapack("dstebz")
    if guess is not None:
        guess = np.asarray(guess, dtype=float)
        cuts = _confirmed_cuts(diagonal, band, guess, stebz)
        if cuts is not None:
            try:
                return _certify(ham, solve, guess, cuts, vectors)
            except ConvergenceFailure:
                pass  # bisect this grid after all
    levels = _bisect(diagonal, band, min(count + 1, ham.grid.n_interior),
                     8 * ham.pivot_floor, stebz)
    return _certify(ham, solve, levels[:count], (levels[:-1] + levels[1:]) / 2)


def _certify(ham: DiscretizedHamiltonian, solve, shifts, cuts, vectors=None):
    """(w, residuals, eigenvectors) of the levels j < len(shifts), level j
    in its cell between cuts[j - 1] and cuts[j] (-inf below level 0, inf
    above the last cut) and the other levels outside it; inverse iteration
    on level j solves with solve, the grid's _shifted_solver, and starts
    from the shift shifts[j] and from vectors[j] resampled onto the grid,
    or without vectors from the seeded draw default_rng(0).standard_normal(n),
    so reruns agree.

    If rho_j lies in its cell and |r|^2 <= eps ||H|| gap, gap > eps ||H||
    being the distance from rho_j to the nearer edge of the cell, then
    |r| < gap, so the level within |r| of rho_j lies in the cell and no
    other level lies in that interval; Kato-Temple then gives
    |lambda_j - rho_j| <= |r|^2 / gap for that level. The residual bound
    sqrt(n) eps ||H|| asks the same of the vector, which the certificate
    alone accepts with a residual up to sqrt(eps ||H|| gap). Raises
    ConvergenceFailure for a level not certified within MAX_SOLVES.

    The cells need not be known to hold one level each. A certified cell
    holds a level within |r| < gap of rho_j, so if len(shifts) certified
    cells hold len(shifts) levels between them, as the one Sturm count at
    the top cut of a prediction or a bisection of the lowest levels says,
    they hold one level each, and cell j holds level j. An empty cell
    cannot be certified, since a residual below the gap would put a level
    inside it.
    """
    n = ham.grid.n_interior
    count = len(shifts)
    diagonal = ham.diagonal.real
    floor = ham.pivot_floor
    edges = np.concatenate(([-np.inf], cuts, [np.inf]))
    starts = ([np.random.default_rng(0).standard_normal(n)] * count if vectors is None
              else _resampled(vectors, ham.grid))
    w = np.empty(count)
    residuals = np.empty(count)
    eigenvectors = []
    for j, vec in enumerate(starts):
        shift = shifts[j]
        for _ in range(MAX_SOLVES):
            vec = solve(shift, vec)
            hv = _matvec(diagonal, ham.off_diagonal, vec)
            rho = float(vec @ hv)
            hv -= rho * vec
            resid = math.sqrt(hv @ hv)
            gap = min(rho - edges[j], edges[j + 1] - rho)
            if gap > floor and resid**2 <= floor * gap and resid <= math.sqrt(n) * floor:
                break
            if gap >= 0:  # rho lies in the cell
                shift = rho
        else:
            raise ConvergenceFailure(
                f"level {j} not certified after {MAX_SOLVES} inverse iteration solves "
                f"(n = {n}, cell [{float(edges[j])!r}, {float(edges[j + 1])!r}], "
                f"Rayleigh quotient {rho!r}, residual {resid!r}, gap {float(gap)!r})")
        w[j] = rho
        residuals[j] = resid
        eigenvectors.append(vec)
    return w.astype(np.complex128), residuals, tuple(eigenvectors)


def _resampled(vectors, grid: Grid1D):
    """Each of vectors, sampled on the m interior nodes of a uniform grid of
    grid's interval and zero at its walls, linearly interpolated onto the
    nodes of grid (the same values when m = n), one at a time, so that no
    second set of vectors is held."""
    m = len(vectors[0])
    # node i of grid lies at t = i h / h_m, between nodes floor(t) and floor(t) + 1 of m
    weight = np.arange(1, grid.n_interior + 1) * ((m + 1) / (grid.n_interior + 1))
    left = weight.astype(np.intp)
    weight -= left
    right, keep = left + 1, 1.0 - weight
    for vector in vectors:
        padded = np.concatenate(([0.0], vector, [0.0]))
        yield padded.take(left) * keep + padded.take(right) * weight


def _confirmed_cuts(diagonal: np.ndarray, band: np.ndarray, guess: np.ndarray, stebz):
    """Cuts midway between consecutive predicted levels and half the last
    predicted spacing above the top one, or None unless the guess has at
    least two finite, increasing levels and the Sturm count of the top cut
    is exactly the number of predicted levels.

    Only the top cut is counted. That the cells below it hold one level
    each is left to the certificate of _certify, which refutes any cell
    that holds none. The count is one stebz value-range call on
    (min d - 2|b|, top cut], whose lower end lies below every level
    (Gershgorin), with a tolerance as wide as that range, so stebz stops at
    the count instead of bisecting. band is the constant off-diagonal b.
    """
    spacing = np.diff(guess)
    if guess.size < 2 or not (np.all(np.isfinite(guess)) and np.all(spacing > 0)):
        return None
    bottom = float(np.min(diagonal)) - 2.0 * abs(float(band[0]))
    cuts = np.append(guess[:-1] + spacing / 2, guess[-1] + spacing[-1] / 2)
    top = cuts[-1]
    if top <= bottom:
        return None
    below, *_, info = stebz(diagonal, band, 1, bottom, top, 0, 0, top - bottom, "E")
    if info or below != guess.size:
        return None
    return cuts


def _bisect(diagonal: np.ndarray, band: np.ndarray, levels: int, tol: float, stebz):
    """The `levels` lowest eigenvalues by Sturm bisection to tol, band
    being the off-diagonal: one stebz call over the index range
    1..levels, in ascending order."""
    found, located, *_, info = stebz(diagonal, band, 2, 0.0, 1.0, 1, levels, tol, "E")
    if info:
        raise ConvergenceFailure(f"tridiagonal bisection of {levels} levels failed "
                                 f"(n = {diagonal.size}): stebz info {info}")
    return located[:found]


def _dense_eigenpairs(ham: DiscretizedHamiltonian, count: int):
    """(w, residuals) of the `count` levels of smallest real part, selected
    from all n eigenvalues (of the real PT form when the diagonal allows it,
    see the module docstring) and refined by two steps of inverse iteration
    on H. Works for real diagonals too, which is how it is cross-validated
    against the symmetric solver."""
    n = ham.grid.n_interior
    dense = _pt_real_form(ham)
    if dense is None:
        dense = _tridiagonal_dense(ham.diagonal, ham.off_diagonal)
    # what scipy.linalg.eigvals does: geev in place, no eigenvectors
    prefix = "z" if np.iscomplexobj(dense) else "d"
    geev, geev_lwork = _lapack(prefix + "geev", prefix + "geev_lwork")
    lwork = int(geev_lwork(n, compute_vl=0, compute_vr=0)[0].real)
    *w, _, _, info = geev(dense, lwork=lwork, compute_vl=0, compute_vr=0, overwrite_a=1)
    if info:
        raise ConvergenceFailure(f"dense eigensolver failed (n = {n}): geev info {info}")
    wall = w[0] if prefix == "z" else w[0] + 1j * w[1]
    order = np.lexsort((wall.imag, wall.real))[:count]
    start = np.random.default_rng(0).standard_normal(n)
    band = np.full(n - 1, ham.off_diagonal, dtype=ham.diagonal.dtype)
    solve = _shifted_solver(ham.diagonal, band, ham.pivot_floor)
    w = np.empty(count, dtype=np.complex128)
    residuals = np.empty(count)
    # a norm that underflows or overflows fails the residual gate as nan or inf
    with np.errstate(all="ignore"):
        for j, shift in enumerate(wall[order]):
            vec = start
            for _ in range(2):
                vec = solve(shift, vec)
            hv = _matvec(ham.diagonal, ham.off_diagonal, vec)
            # the Rayleigh quotient on the original H restores what the PT
            # projection of the diagonal dropped (to first order)
            w[j] = np.vdot(vec, hv)
            residuals[j] = np.linalg.norm(hv - w[j] * vec)
    return w, residuals


def _tridiagonal_dense(diagonal: np.ndarray, off_diagonal: float) -> np.ndarray:
    """The tridiagonal matrix, dense and in Fortran order, so that LAPACK
    works on it in place instead of on a transposed copy."""
    idx = np.arange(diagonal.size)
    dense = np.zeros((diagonal.size, diagonal.size), dtype=diagonal.dtype, order="F")
    dense[idx, idx] = diagonal
    dense[idx[:-1], idx[1:]] = off_diagonal
    dense[idx[1:], idx[:-1]] = off_diagonal
    return dense


def _pt_real_form(ham: DiscretizedHamiltonian) -> np.ndarray | None:
    """Real M = U* H U with U = (I + iJ)/sqrt(2), or None when the diagonal
    is not PT-symmetric about the grid centre (within PT_TOL).

    The diagonal is first projected onto its PT-symmetric part
    (d + conj(d[::-1]))/2, which removes the sampling noise of the mirror
    nodes; M is then built entry by entry without forming U.
    """
    d = ham.diagonal
    mirror = d[::-1].conj()
    if np.max(np.abs(d - mirror)) > PT_TOL * np.max(np.abs(d)):
        return None
    sym = 0.5 * (d + mirror)
    dense = _tridiagonal_dense(sym.real, ham.off_diagonal)
    idx = np.arange(d.size)
    dense[idx, idx[::-1]] -= sym.imag
    return dense


def _shifted_solver(diagonal: np.ndarray, band: np.ndarray, pivot_floor: float):
    """solve(shift, rhs): the unit solution of (H - shift) x = rhs, H the
    tridiagonal matrix with this diagonal and the constant off-diagonal
    band, by one O(n) LAPACK solve with partial pivoting: dgtsv for a real
    diagonal, zgtsv for a complex one. The routines are looked up once per
    grid, and every solve reuses band.

    gtsv stops on an exactly zero pivot, as when the shift is an exact
    eigenvalue, and zgtsv returns nan on a pivot whose |.|^2 underflows. The
    solve is then redone by gttrf and gttrs with every pivot below
    pivot_floor raised to that size, so that it amplifies the eigenvector.
    """
    prefix = "z" if np.iscomplexobj(diagonal) else "d"
    gtsv, gttrf, gttrs = _lapack(prefix + "gtsv", prefix + "gttrf", prefix + "gttrs")

    def solve(shift, rhs: np.ndarray) -> np.ndarray:
        *_, vec, info = gtsv(band, diagonal - shift, band, rhs, overwrite_d=True)
        if info == 0:
            vec = _normalized(vec)
            if vec[0] == vec[0]:  # _normalized turns a non-finite solution into nan
                return vec
        dl, d, du, du2, ipiv, _ = gttrf(band, diagonal - shift, band)
        d[np.abs(d) < pivot_floor] = pivot_floor
        vec, _ = gttrs(dl, d, du, du2, ipiv, rhs)
        return _normalized(vec)

    return solve


def _lapack(*names):
    """The named routines of scipy.linalg._flapack (dgtsv, zgeev, ...).

    The first call of a process loads that compiled module by its file,
    after the top-level scipy package (its platform init), and registers it
    in sys.modules under its own name, so that a later import of
    scipy.linalg reuses it. The scipy.linalg package itself is not
    imported: its init loads some 90 modules that no solve uses.
    """
    import sys

    flapack = sys.modules.get("scipy.linalg._flapack")
    if flapack is None:
        import os
        from importlib.machinery import EXTENSION_SUFFIXES, ExtensionFileLoader
        from importlib.util import module_from_spec, spec_from_loader

        import scipy

        stem = os.path.join(os.path.dirname(scipy.__file__), "linalg", "_flapack")
        path = next(stem + suffix for suffix in EXTENSION_SUFFIXES
                    if os.path.exists(stem + suffix))
        loader = ExtensionFileLoader("scipy.linalg._flapack", path)
        flapack = module_from_spec(spec_from_loader(loader.name, loader))
        loader.exec_module(flapack)
        sys.modules[loader.name] = flapack
    return tuple(getattr(flapack, name) for name in names)


def _norm(vec: np.ndarray) -> float:
    """||vec||_2 as np.linalg.norm computes it: sqrt(v . v) for a real vector,
    the same bits without its call overhead, and np.linalg.norm itself for
    a complex one (vdot rounds differently)."""
    if np.iscomplexobj(vec):
        return float(np.linalg.norm(vec))
    return math.sqrt(vec @ vec)


def _normalized(vec: np.ndarray) -> np.ndarray:
    """vec scaled in place to unit norm. A vector whose squared norm
    overflows, as from a shift within rounding of an eigenvalue, is first
    divided by its largest entry."""
    with np.errstate(over="ignore"):
        norm = _norm(vec)
    if not math.isfinite(norm):
        vec /= np.max(np.abs(vec))
        norm = _norm(vec)
    vec /= norm
    return vec


def _extrapolated(spacings, rows) -> list[float]:
    """The h -> 0 limit of each row of grid-refined values, with the h^2,
    h^4, ... error terms eliminated.

    Solves the small Vandermonde system value(h) = c0 + c2 h^2 + c4 h^4 + ...
    exactly, so non-dyadic spacing ratios are handled without bias; all rows
    go through one stacked solve (row by row, the same LAPACK calls as one
    row at a time). The spacings are first scaled exactly by a power of two,
    so that no power of h^2 leaves the double range; c0 keeps every bit.
    """
    hs = np.asarray(spacings, dtype=np.float64)
    vals = np.asarray(rows, dtype=np.float64)
    if vals.shape[1:] != hs.shape or hs.size < 2:
        raise ValueError("need matching spacing/value lists of length >= 2")
    hs = np.ldexp(hs, -math.frexp(hs[0])[1])
    system = np.vander(hs**2, hs.size, increasing=True)
    stacked = np.broadcast_to(system, (len(vals), *system.shape))
    return np.linalg.solve(stacked, vals[..., None])[:, 0, 0].tolist()


def richardson_spectrum(
    potential,
    x_min: float,
    x_max: float,
    count: int,
    grid_sizes,
    *,
    guess=None,
) -> SpectrumReport:
    """Spectra on several grids plus Richardson-extrapolated estimates.

    The reported eigenvalues/residuals come from the finest grid; the
    extrapolation acts on the real parts of each tracked level. The grids
    are solved in ascending size and kept in per_grid. guess, `count`
    predicted levels, is handed to the coarsest grid; each grid after the
    first is handed the levels that the coarser grids predict for it and
    the coarser grid's eigenvectors as start vectors (see eigenvalues).
    """
    sizes = sorted(int(n) for n in grid_sizes)
    if len(sizes) < 2:
        raise ValueError("need at least two grid sizes")
    reports = []
    spacings = []
    vectors = None
    for n in sizes:
        grid = Grid1D(x_min, x_max, n)
        if reports:
            guess = _predicted_levels(spacings, reports, grid.spacing)
        rep = eigenvalues(discretize(potential, grid), count, guess=guess, vectors=vectors)
        vectors = rep.vectors
        reports.append(replace(rep, vectors=None))
        spacings.append(grid.spacing)
    estimates = tuple(_extrapolated(spacings, np.transpose([r.eigenvalues.real for r in reports])))
    return replace(reports[-1], grid_sizes_used=tuple(sizes), richardson_estimates=estimates,
                   per_grid=tuple(reports))


def _predicted_levels(spacings, reports, h: float) -> np.ndarray:
    """Real parts of the levels at spacing h: those of the last grid, or,
    after two grids, the fit c0 + c2 h^2 through the last two (the model of
    _extrapolated, evaluated at h instead of 0)."""
    last = reports[-1].eigenvalues.real
    if len(reports) == 1:
        return last
    h1, h2 = spacings[-2:]
    return last + (reports[-2].eigenvalues.real - last) * (h * h - h2 * h2) / (h1 * h1 - h2 * h2)

