"""Schrodinger operators arising from the linearization about static walls.

Linearizing the travelling-wave system about a static wall produces 1D
operators -d^2/dxi^2 + W(xi) with exponentially localized potential wells:

* about the Bloch wall, the azimuth block has W = cos(2 beta) = 1 - 2 sech^2
  (a reflectionless well whose kernel is spanned by the translation mode
  sech), and the tilt block is the same operator shifted by K2;
* about the transverse wall, the azimuth block has W = cos(2 beta) +
  H3 sin(beta) (kernel spanned by beta'), and the tilt block has
  W = cos(2 beta) + 3 H3 sin(beta) - H3^2, bounded below by H3^2.

The trig-expanded potentials are used instead of the ratio forms
beta'''/beta' and (cos beta)''/cos beta, which are 0/0 at isolated points
numerically; the expansions are identities of the azimuth equation.

Discretization: second-order central differences on the interior nodes with
Dirichlet truncation; the matrix is symmetric tridiagonal.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy.linalg import eigh_tridiagonal

from .errors import ConfigError
from .model import Grid
from .walls import transverse_wall


@dataclass(frozen=True)
class SchrodingerOp:
    """Symmetric tridiagonal discretization of -d^2/dxi^2 + W(xi).

    The matrix acts on the interior nodes (Dirichlet truncation): `diag`
    holds 2/h^2 + W_i, `offdiag` holds the constant -1/h^2.  `potential`
    keeps the full-grid samples of W for inspection and quadrature.
    """

    grid: Grid
    potential: np.ndarray         # W on the full grid
    diag: np.ndarray              # interior main diagonal
    offdiag: np.ndarray           # interior sub/super diagonal

    @classmethod
    def from_potential(cls, grid: Grid, W: np.ndarray) -> "SchrodingerOp":
        W = np.asarray(W, dtype=float)
        if W.shape != (grid.n_nodes,):
            raise ValueError("potential samples must cover the full grid")
        h2 = grid.h * grid.h
        diag = 2.0 / h2 + W[1:-1]
        off = np.full(grid.n_nodes - 3, -1.0 / h2)
        return cls(grid=grid, potential=W, diag=diag, offdiag=off)

    def shifted(self, c: float) -> "SchrodingerOp":
        """The operator with W + c (spectrum shifted by c)."""
        return SchrodingerOp.from_potential(self.grid, self.potential + c)

    def apply(self, f: np.ndarray) -> np.ndarray:
        """Matrix-vector product on interior-node samples."""
        f = np.asarray(f, dtype=float)
        out = self.diag * f
        out[:-1] += self.offdiag * f[1:]
        out[1:] += self.offdiag * f[:-1]
        return out

    def quadratic_form(self, f: np.ndarray) -> float:
        """<f, A f> on interior samples (Euclidean, no h weight)."""
        return float(f @ self.apply(f))


def bloch_azimuth_operator(grid: Grid) -> SchrodingerOp:
    """Azimuth linearization about the Bloch wall: W = 1 - 2 sech^2(xi).

    Its kernel is spanned by the translation mode sech(xi); shifting by K2
    gives the tilt block of the same linearization.
    """
    sech2 = 1.0 / np.cosh(grid.xi) ** 2
    return SchrodingerOp.from_potential(grid, 1.0 - 2.0 * sech2)


def _transverse_beta(H3: float, grid: Grid) -> np.ndarray:
    wall = transverse_wall(H3, grid, extend=False)
    return wall.beta


def transverse_azimuth_operator(H3: float, grid: Grid) -> SchrodingerOp:
    """Azimuth linearization about the transverse wall:
    W = cos(2 beta) + H3 sin(beta); kernel spanned by beta' = H3 - sin beta."""
    b = _transverse_beta(H3, grid)
    W = np.cos(2.0 * b) + H3 * np.sin(b)
    return SchrodingerOp.from_potential(grid, W)


def transverse_tilt_operator(H3: float, grid: Grid) -> SchrodingerOp:
    """Tilt linearization about the transverse wall:
    W = cos(2 beta) + 3 H3 sin(beta) - H3^2; bounded below by H3^2."""
    b = _transverse_beta(H3, grid)
    W = np.cos(2.0 * b) + 3.0 * H3 * np.sin(b) - H3 * H3
    return SchrodingerOp.from_potential(grid, W)


def lowest_eigenpairs(op: SchrodingerOp, k: int):
    """The k smallest eigenvalues with normalized eigenvectors.

    Uses the symmetric tridiagonal eigensolver (bisection plus inverse
    iteration).  Eigenvalues come out ascending; each eigenvector's sign is
    fixed by making its largest-magnitude component positive, so the
    ordering and orientation are deterministic.

    Returns a list of (eigenvalue, eigenvector-on-interior-nodes) pairs.
    """
    if not 1 <= k <= op.diag.size:
        raise ConfigError(f"need 1 <= k <= {op.diag.size} eigenpairs (the interior "
                          f"node count), got k = {k}")
    vals, vecs = eigh_tridiagonal(
        op.diag, op.offdiag, select="i", select_range=(0, k - 1)
    )
    out = []
    for j in range(k):
        v = vecs[:, j]
        i = int(np.argmax(np.abs(v)))
        if v[i] < 0:
            v = -v
        out.append((float(vals[j]), v))
    return out


def _random_bump(grid: Grid, rng: np.random.Generator) -> np.ndarray:
    """A smooth, compactly supported test function on the interior nodes."""
    xi = grid.xi[1:-1]
    L = grid.half_width
    n_bumps = rng.integers(1, 4)
    f = np.zeros(xi.size)
    for _ in range(n_bumps):
        centre = rng.uniform(-0.5 * L, 0.5 * L)
        width = rng.uniform(0.5, 3.0)
        amp = rng.uniform(-1.0, 1.0)
        f += amp * np.exp(-0.5 * ((xi - centre) / width) ** 2)
    # quintic cutoff to exact zero outside |xi| < 0.9 L
    t = np.clip((0.9 * L - np.abs(xi)) / (0.2 * L), 0.0, 1.0)
    window = t**3 * (10.0 - 15.0 * t + 6.0 * t * t)
    return f * window


def rayleigh_bound_check(op: SchrodingerOp, bound: float, trials: int, seed: int = 0) -> dict:
    """Evaluate <f, A f>/<f, f> for random smooth compactly supported f.

    Returns a report dict with the minimum observed quotient and whether it
    exceeds `bound` minus a 1e-6 slack.  Deterministic for a given seed.
    """
    rng = np.random.default_rng(seed)
    worst = np.inf
    for _ in range(trials):
        f = _random_bump(op.grid, rng)
        nrm = float(f @ f)
        if nrm < 1e-12:
            continue
        q = op.quadratic_form(f) / nrm
        worst = min(worst, q)
    return {
        "bound": float(bound),
        "min_quotient": float(worst),
        "trials": int(trials),
        "passes": bool(worst >= bound - 1e-6),
    }
