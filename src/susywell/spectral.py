"""Finite-difference spectra of the partner potentials on a box.

Three-point Laplacian on a uniform interior grid; Dirichlet walls are
implicit in the truncation. Purely real diagonals go through the exact
symmetric-tridiagonal solver (LAPACK bisection / inverse iteration);
complex diagonals go through a dense general eigensolver that is
validated against the symmetric path on real cases.

The dense path uses PT symmetry when the diagonal has it. With J the flip
of the grid about its centre, a PT-symmetric H satisfies J H J = conj(H),
and U = (I + iJ)/sqrt(2) makes M = U* H U real: its diagonal is Re d, its
off-diagonals are the constant b, and -Im d is added along the
anti-diagonal. The eigenvalues of M are those of H, at the cost of a real
instead of a complex dense solve. Diagonals that are not PT-symmetric, as
on an off-centre domain, take the complex dense solve. Either way the dense
solve computes all n eigenvalues and no eigenvectors. The eigenvectors of
the `count` selected levels come from two steps of inverse iteration on the
original tridiagonal H, O(n) each; the reported eigenvalues are their
Rayleigh quotients on H, and the residual gate is measured against H.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace

import numpy as np
from scipy.linalg import LinAlgError, eigh_tridiagonal, eigvals
from scipy.linalg.lapack import zgttrf, zgttrs

from .errors import ConvergenceFailure, InsufficientEigenvalues
from .serialize import json_text

# residual gate, scaled by the matrix norm (see eigenvalues())
RESIDUAL_TOL = 1e-8
# a diagonal within this distance of its PT mirror, relative to max|d|, is
# PT-symmetric (sampling a symmetric potential at mirrored nodes leaves ~1e-13)
PT_TOL = 1e-11


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

    @property
    def norm_inf(self) -> float:
        return float(np.max(np.abs(self.diagonal)) + 2.0 * abs(self.off_diagonal))

    def matvec(self, v: np.ndarray) -> np.ndarray:
        out = self.diagonal * v
        out[:-1] += self.off_diagonal * v[1:]
        out[1:] += self.off_diagonal * v[:-1]
        return out


def discretize(potential, grid: Grid1D) -> DiscretizedHamiltonian:
    """Sample the potential on the interior nodes and build H.

    Endpoints are never evaluated; a node inside a pole's exclusion radius
    surfaces as SingularPoint from the potential callable itself.
    """
    xs = grid.points
    values = np.asarray(potential(xs), dtype=np.complex128)
    if values.shape != xs.shape:
        raise ValueError("potential must return one value per grid node")
    if not np.all(np.isfinite(values.real) & np.isfinite(values.imag)):
        bad = int(np.flatnonzero(~np.isfinite(values.real) | ~np.isfinite(values.imag))[0])
        raise ValueError(f"potential not finite at grid node x={float(xs[bad])!r}")
    h = grid.spacing
    return DiscretizedHamiltonian(grid, 2.0 / h**2 + values, -1.0 / h**2)


@dataclass(frozen=True)
class SpectrumReport:
    """Lowest eigenvalues (sorted by real part, then imaginary part).

    residuals are ||H v - lambda v|| / ||v|| per eigenpair; scaled_residuals
    divide that by max(1, ||H||_inf), which is the gated quantity. A report
    of richardson_spectrum keeps its single-grid reports in per_grid,
    coarsest first.
    """

    eigenvalues: np.ndarray
    max_imag: float
    grid_sizes_used: tuple[int, ...]
    richardson_estimates: tuple[float, ...] = ()
    residuals: np.ndarray = field(default_factory=lambda: np.empty(0))
    scaled_residuals: np.ndarray = field(default_factory=lambda: np.empty(0))
    per_grid: tuple["SpectrumReport", ...] = ()

    def to_payload(self) -> dict:
        return {
            "eigenvalues": [[ev.real, ev.imag] for ev in self.eigenvalues],
            "max_imag": self.max_imag,
            "grid_sizes_used": list(self.grid_sizes_used),
            "richardson_estimates": list(self.richardson_estimates),
        }

    def to_json(self) -> str:
        return json_text(self.to_payload()) + "\n"

    def survey_payload(self) -> dict:
        """Every grid's payload, the extrapolated real parts, and the largest
        |Im E| over all grids."""
        return {
            "per_grid": [rep.to_payload() for rep in self.per_grid],
            "richardson_real": list(self.richardson_estimates),
            "max_imag_overall": max(rep.max_imag for rep in self.per_grid),
        }


def eigenvalues(
    ham: DiscretizedHamiltonian, count: int, method: str = "auto"
) -> SpectrumReport:
    """The `count` eigenvalues of smallest real part, with eigenvectors
    checked against the residual gate.

    method: "auto" picks "symmetric" for purely real diagonals and "dense"
    otherwise; "symmetric" (exact tridiagonal bisection) refuses complex
    input; "dense" works for both and exists so the two paths can be
    cross-validated on real cases. "dense" selects the levels from all n
    eigenvalues (of the real PT form when the diagonal allows it, see the
    module docstring) and refines them by inverse iteration on H.
    """
    n = ham.grid.n_interior
    if not 1 <= count <= n:
        raise ValueError(f"count must be in [1, {n}], got {count!r}")
    if method == "auto":
        method = "symmetric" if ham.is_real else "dense"
    if method == "symmetric":
        if not ham.is_real:
            raise ValueError("symmetric path requires a purely real diagonal")
        try:
            w, v = eigh_tridiagonal(
                ham.diagonal.real,
                np.full(n - 1, ham.off_diagonal),
                select="i",
                select_range=(0, count - 1),
            )
        except LinAlgError as exc:
            raise ConvergenceFailure(
                f"tridiagonal eigensolver failed: {exc}", {"n": n, "count": count}
            ) from exc
        w = w.astype(np.complex128)
    elif method == "dense":
        dense = _pt_real_form(ham)
        if dense is None:
            dense = _tridiagonal_dense(ham.diagonal, ham.off_diagonal)
        try:
            wall = eigvals(dense, overwrite_a=True, check_finite=False)
        except LinAlgError as exc:
            raise ConvergenceFailure(
                f"dense eigensolver failed: {exc}", {"n": n, "count": count}
            ) from exc
        order = np.lexsort((wall.imag, wall.real))[:count]
        start = np.random.default_rng(0).standard_normal(n)  # fixed: reruns agree
        vectors = [_inverse_iteration(ham, lam, start) for lam in wall[order]]
        v = np.column_stack(vectors)
        # Rayleigh quotients on the original H, which restore what the PT
        # projection of the diagonal dropped (to first order)
        w = np.array([np.vdot(vec, ham.matvec(vec)) for vec in vectors])
    else:
        raise ValueError(f"unknown method {method!r}")

    resid = np.empty(count)
    for j in range(count):
        vec = v[:, j].astype(np.complex128)
        resid[j] = float(
            np.linalg.norm(ham.matvec(vec) - w[j] * vec) / np.linalg.norm(vec)
        )
    scaled = resid / max(1.0, ham.norm_inf)
    if np.any(scaled > RESIDUAL_TOL):
        worst = float(np.max(scaled))
        raise ConvergenceFailure(
            f"eigenpair residual {worst:.3e} exceeds gate {RESIDUAL_TOL:g}",
            {"n": n, "count": count, "residuals": resid.tolist(), "method": method},
        )
    return SpectrumReport(
        eigenvalues=w,
        max_imag=float(np.max(np.abs(w.imag))),
        grid_sizes_used=(n,),
        residuals=resid,
        scaled_residuals=scaled,
    )


def _tridiagonal_dense(diagonal: np.ndarray, off_diagonal: float) -> np.ndarray:
    idx = np.arange(diagonal.size)
    dense = np.diag(diagonal)
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


def _inverse_iteration(
    ham: DiscretizedHamiltonian, shift: complex, start: np.ndarray
) -> np.ndarray:
    """Unit eigenvector for the eigenvalue `shift` by two steps of inverse
    iteration on the tridiagonal H (one O(n) LU factorization, two solves).

    A pivot below eps ||H||_inf, as when the shift is an exact eigenvalue,
    is raised to that size, so the solve amplifies the eigenvector instead
    of failing.
    """
    band = np.full(ham.grid.n_interior - 1, ham.off_diagonal, dtype=np.complex128)
    dl, d, du, du2, ipiv, _ = zgttrf(band, ham.diagonal - shift, band)
    tiny = np.finfo(np.float64).eps * max(1.0, ham.norm_inf)
    d[np.abs(d) < tiny] = tiny
    vec = start.astype(np.complex128)
    for _ in range(2):
        vec, _ = zgttrs(dl, d, du, du2, ipiv, vec)
        vec /= np.linalg.norm(vec)
    return vec


def richardson_extrapolate(spacings, values) -> float:
    """Eliminate the h^2, h^4, ... error terms from grid-refined values.

    Solves the small Vandermonde system value(h) = c0 + c2 h^2 + c4 h^4 + ...
    exactly, so non-dyadic spacing ratios are handled without bias.
    """
    hs = np.asarray(spacings, dtype=np.float64)
    vals = np.asarray(values, dtype=np.float64)
    if hs.size != vals.size or hs.size < 2:
        raise ValueError("need matching spacing/value lists of length >= 2")
    system = np.vander(hs**2, hs.size, increasing=True)
    return float(np.linalg.solve(system, vals)[0])


def richardson_spectrum(
    potential,
    x_min: float,
    x_max: float,
    count: int,
    grid_sizes,
    method: str = "auto",
) -> SpectrumReport:
    """Spectra on several grids plus Richardson-extrapolated estimates.

    The reported eigenvalues/residuals come from the finest grid; the
    extrapolation acts on the real parts of each tracked level. The grids
    are solved in ascending size and kept in per_grid.
    """
    sizes = sorted(int(n) for n in grid_sizes)
    if len(sizes) < 2:
        raise ValueError("need at least two grid sizes")
    reports = []
    spacings = []
    for n in sizes:
        grid = Grid1D(x_min, x_max, n)
        reports.append(eigenvalues(discretize(potential, grid), count, method))
        spacings.append(grid.spacing)
    estimates = tuple(
        richardson_extrapolate(spacings, [r.eigenvalues[j].real for r in reports])
        for j in range(count)
    )
    return replace(reports[-1], grid_sizes_used=tuple(sizes), richardson_estimates=estimates,
                   per_grid=tuple(reports))


def remainder_spectrum(n: int, k_base: float = 1.0, alpha: float | None = None) -> float:
    """Energy of level n of V1 by telescoping the constant remainders.

    Sum_{j=1..n} alpha (alpha + 2 k_j) with k_j = k_base + (j-1) alpha
    telescopes to (k_base + n alpha)^2 - k_base^2, evaluated as
    n alpha (2 k_base + n alpha). alpha defaults to k_base, where the
    levels are k_base^2 n (n + 2): exact integers for integer k_base.
    """
    if n < 0:
        raise ValueError(f"level index must be >= 0, got {n!r}")
    step = n * float(k_base if alpha is None else alpha)
    return step * (2.0 * k_base + step)


@dataclass(frozen=True)
class IsospectralResult:
    matched: int
    max_error: float
    passed: bool


def isospectral_check(
    base: SpectrumReport,
    partner: SpectrumReport,
    shift: int = 1,
    tol: float = 1e-4,
) -> IsospectralResult:
    """Pair partner level j with base level j + shift and compare.

    Raises InsufficientEigenvalues when the base report is too short to
    pair even one level.
    """
    n_base = len(base.eigenvalues)
    n_partner = len(partner.eigenvalues)
    matched = min(n_partner, n_base - shift)
    if matched <= 0:
        raise InsufficientEigenvalues(
            f"cannot pair: base has {n_base} eigenvalues, shift {shift}"
        )
    diffs = np.abs(
        partner.eigenvalues[:matched] - base.eigenvalues[shift : shift + matched]
    )
    max_error = float(np.max(diffs))
    return IsospectralResult(matched, max_error, bool(max_error <= tol))
