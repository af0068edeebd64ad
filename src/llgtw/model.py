"""Core domain types: parameters, grid, profiles, and conversions.

Magnetization is a unit 3-vector field m(xi) on a uniform symmetric grid,
stored in polar coordinates (psi, beta) with the polar axis along the hard
axis y:

    m(psi, beta) = (sin psi cos beta,  cos psi,  sin psi sin beta)

Walls of interest never approach the hard axis, so psi stays inside (0, pi)
and this chart is singularity-free for everything the solvers touch.  beta
is stored unwrapped (continuous in xi, not reduced mod 2*pi) so that
pointwise arithmetic on azimuth corrections is well defined.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field

import numpy as np

from .errors import ConfigError, DegenerateRegime, NonUnitVector, PolarSingularity

# Endpoint samples of a profile must sit this close to its declared boundary
# values.  Loose enough for the slow tails of strong-transverse-field walls
# on the default grid; construction routines normally do much better.
BC_MATCH_TOL = 1e-5

WALKER = "walker"
TRANSVERSE = "transverse"


@dataclass(frozen=True)
class Params:
    """Physical parameters: applied field (H1, H2, H3), hard-axis anisotropy
    K2, and Gilbert damping alpha.  H1 is the driving component along the
    wire axis; H2, H3 are transverse."""

    H1: float = 0.0
    H2: float = 0.0
    H3: float = 0.0
    K2: float = 0.0
    alpha: float = 0.1

    def __post_init__(self):
        vals = (self.H1, self.H2, self.H3, self.K2, self.alpha)
        if not all(np.isfinite(v) for v in vals):
            raise ConfigError(f"parameters must be finite reals, got {vals}")
        if self.K2 < 0:
            raise ConfigError(f"anisotropy invariant K2 >= 0 violated: K2 = {self.K2}")
        if self.alpha <= 0:
            raise ConfigError(f"damping invariant alpha > 0 violated: alpha = {self.alpha}")

    @property
    def applied_field(self) -> np.ndarray:
        return np.array([self.H1, self.H2, self.H3])

    def lam(self) -> tuple[float, float, float, float]:
        """The continuation parameters (H1, H2, H3, K2) as a tuple."""
        return (self.H1, self.H2, self.H3, self.K2)

    def replace(self, **kw) -> "Params":
        d = dict(H1=self.H1, H2=self.H2, H3=self.H3, K2=self.K2, alpha=self.alpha)
        d.update(kw)
        return Params(**d)


@dataclass(frozen=True)
class Regime:
    """Base point in parameter space from which solutions are continued.

    Two kinds are supported:

    * ``walker``      -- base (0, 0, 0, K2) with K2 > 0: biaxial anisotropy,
      zero applied field; the base profile is the Bloch wall.
    * ``transverse``  -- base (0, H2, H3, 0) with 0 < H2^2 + H3^2 < 1 and
      H3 != 0: uniaxial wire in a transverse field; the base profile solves
      a first-order azimuth equation.
    """

    kind: str
    H2: float = 0.0
    H3: float = 0.0
    K2: float = 0.0

    def __post_init__(self):
        if self.kind == WALKER:
            if not self.K2 > 0:
                raise ConfigError(f"walker regime invariant K2 > 0 violated: K2 = {self.K2}")
            if self.H2 != 0.0 or self.H3 != 0.0:
                raise ConfigError("walker regime invariant H2 = H3 = 0 violated")
        elif self.kind == TRANSVERSE:
            hsq = self.H2**2 + self.H3**2
            if not 0.0 < hsq < 1.0:
                raise ConfigError(
                    f"transverse regime invariant 0 < H2^2+H3^2 < 1 violated: {hsq}"
                )
            if self.H3 == 0.0:
                raise ConfigError(
                    f"transverse regime with H3 = 0 and H2 = {self.H2} is not supported: "
                    "the rotated wall's centre would lie on the hard axis y, where the "
                    "polar chart is singular; give the base field a nonzero H3"
                )
            if self.K2 != 0.0:
                raise ConfigError(f"transverse regime invariant K2 = 0 violated: K2 = {self.K2}")
        else:
            raise ConfigError(f"unknown regime kind {self.kind!r} (walker | transverse)")

    @classmethod
    def walker(cls, K2: float) -> "Regime":
        return cls(WALKER, K2=K2)

    @classmethod
    def transverse(cls, H3: float, H2: float = 0.0) -> "Regime":
        return cls(TRANSVERSE, H2=H2, H3=H3)

    def base_params(self, alpha: float) -> Params:
        return Params(0.0, self.H2, self.H3, self.K2, alpha)


@dataclass(frozen=True)
class Grid:
    """Uniform symmetric mesh on [-half_width, half_width].

    n_nodes must be odd so xi = 0 is a node; nodes are built as integer
    multiples of the spacing, which makes xi[i] == -xi[n-1-i] exact.
    """

    half_width: float = 20.0
    n_nodes: int = 801

    def __post_init__(self):
        if self.half_width <= 0 or not np.isfinite(self.half_width):
            raise ConfigError(f"grid invariant half_width > 0 violated: {self.half_width}")
        if self.n_nodes < 3 or self.n_nodes % 2 == 0:
            raise ConfigError(
                f"grid invariant 'n_nodes odd and >= 3' violated: n_nodes = {self.n_nodes}"
            )
        xi = self.h * (np.arange(self.n_nodes) - (self.n_nodes - 1) // 2)
        xi.flags.writeable = False
        object.__setattr__(self, "_xi", xi)

    @property
    def h(self) -> float:
        return 2.0 * self.half_width / (self.n_nodes - 1)

    @property
    def xi(self) -> np.ndarray:
        return self._xi

    def refined(self) -> "Grid":
        """Grid with the spacing halved (same half-width, still odd count)."""
        return Grid(self.half_width, 2 * self.n_nodes - 1)


def _readonly(a) -> np.ndarray:
    a = np.ascontiguousarray(np.asarray(a, dtype=float))
    a.flags.writeable = False
    return a


@dataclass(frozen=True)
class PolarProfile:
    """Sampled polar angles of a wall with its boundary values.

    psi, beta are radian arrays at the grid nodes; bc_minus/bc_plus are the
    (psi, beta) limits at xi -> -inf / +inf.  Invariants: psi stays inside
    (0, pi) and the endpoint samples match the boundary values.
    """

    psi: np.ndarray
    beta: np.ndarray
    bc_minus: tuple[float, float]
    bc_plus: tuple[float, float]

    def __post_init__(self):
        object.__setattr__(self, "psi", _readonly(self.psi))
        object.__setattr__(self, "beta", _readonly(self.beta))
        if self.psi.shape != self.beta.shape or self.psi.ndim != 1:
            raise ConfigError("profile invariant violated: psi, beta must be equal-length 1d arrays")
        if not (np.all(self.psi > 0.0) and np.all(self.psi < np.pi)):
            raise PolarSingularity(
                "profile invariant 0 < psi < pi violated: wall touched the hard axis"
            )
        ends = (
            abs(self.psi[0] - self.bc_minus[0]),
            abs(self.beta[0] - self.bc_minus[1]),
            abs(self.psi[-1] - self.bc_plus[0]),
            abs(self.beta[-1] - self.bc_plus[1]),
        )
        if max(ends) > BC_MATCH_TOL:
            raise ConfigError(
                "profile invariant violated: endpoint samples differ from boundary "
                f"values by {max(ends):.3e} (> {BC_MATCH_TOL:.0e})"
            )

    @property
    def n_nodes(self) -> int:
        return self.psi.size


@dataclass(frozen=True)
class CartesianProfile:
    """Unit 3-vectors m_i at the grid nodes (rows of shape (n, 3))."""

    m: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "m", _readonly(self.m))
        if self.m.ndim != 2 or self.m.shape[1] != 3:
            raise ConfigError("cartesian profile must have shape (n, 3)")
        dev = np.abs(np.linalg.norm(self.m, axis=1) - 1.0).max()
        if dev > 1e-12:
            raise NonUnitVector(
                f"unit-length invariant |m| = 1 violated by {dev:.3e} (> 1e-12)"
            )


@dataclass(frozen=True)
class TWSolution:
    """A converged travelling wave: profile, wave speed V, parameters, and
    the discrete L2 norm of the residual it satisfies."""

    profile: PolarProfile
    V: float
    params: Params
    residual_norm: float
    grid: Grid
    iterations: int = 0


def angles_to_cartesian(psi, beta) -> np.ndarray:
    """Map polar angle arrays to an (n, 3) array of unit vectors."""
    psi = np.asarray(psi, dtype=float)
    beta = np.asarray(beta, dtype=float)
    s = np.sin(psi)
    return np.stack([s * np.cos(beta), np.cos(psi), s * np.sin(beta)], axis=-1)


def to_cartesian(p: PolarProfile) -> CartesianProfile:
    """Convert a polar profile to Cartesian unit vectors."""
    return CartesianProfile(angles_to_cartesian(p.psi, p.beta))


def polar_from_cartesian(m: np.ndarray, beta_near=None) -> tuple[np.ndarray, np.ndarray]:
    """Extract (psi, beta) from unit vectors, away from the polar axis.

    beta is returned on the branch closest to `beta_near` when given
    (scalar or array); otherwise on the principal atan2 branch.
    """
    m = np.asarray(m, dtype=float)
    psi = np.arccos(np.clip(m[..., 1], -1.0, 1.0))
    beta = np.arctan2(m[..., 2], m[..., 0])
    if beta_near is not None:
        beta = beta + 2.0 * np.pi * np.round((np.asarray(beta_near) - beta) / (2.0 * np.pi))
    return psi, beta


def validate(params: Params, regime: Regime) -> None:
    """Check a (parameters, regime) pair before any computation.

    The regime's own invariants are enforced at construction; here we rule
    out the degenerate target K2 = H2 = H3 = 0, for which no wall plane is
    selected and the solvers do not apply.
    """
    if abs(params.K2) == 0.0 and abs(params.H2) == 0.0 and abs(params.H3) == 0.0:
        raise DegenerateRegime(
            "degenerate parameters K2 = H2 = H3 = 0: no hard-axis anisotropy or "
            "transverse field; travelling-wave construction does not apply"
        )
    if regime.kind not in (WALKER, TRANSVERSE):
        raise ConfigError(f"unknown regime kind {regime.kind!r}")


# ---------------------------------------------------------------------------
# serialization: CSV with header xi,psi,beta,m1,m2,m3 and JSON with metadata
# ---------------------------------------------------------------------------

PROFILE_CSV_HEADER = "xi,psi,beta,m1,m2,m3"
SCHEMA_VERSION = 1


def profile_to_csv(profile: PolarProfile, grid: Grid) -> str:
    """Render a profile as CSV text with header xi,psi,beta,m1,m2,m3."""
    m = angles_to_cartesian(profile.psi, profile.beta)
    lines = [PROFILE_CSV_HEADER]
    for x, p, b, row in zip(grid.xi, profile.psi, profile.beta, m):
        lines.append(f"{x:.17g},{p:.17g},{b:.17g},{row[0]:.17g},{row[1]:.17g},{row[2]:.17g}")
    return "\n".join(lines) + "\n"


def profile_to_json(
    profile: PolarProfile,
    grid: Grid,
    params: Params | None = None,
    V: float | None = None,
    residual_norm: float | None = None,
) -> str:
    """Render a profile (plus optional solution metadata) as JSON text."""
    m = angles_to_cartesian(profile.psi, profile.beta)
    doc = {
        "schema_version": SCHEMA_VERSION,
        "half_width": grid.half_width,
        "n_nodes": grid.n_nodes,
        "bc_minus": list(profile.bc_minus),
        "bc_plus": list(profile.bc_plus),
        "xi": grid.xi.tolist(),
        "psi": profile.psi.tolist(),
        "beta": profile.beta.tolist(),
        "m1": m[:, 0].tolist(),
        "m2": m[:, 1].tolist(),
        "m3": m[:, 2].tolist(),
    }
    if params is not None:
        doc["params"] = {
            "H1": params.H1, "H2": params.H2, "H3": params.H3,
            "K2": params.K2, "alpha": params.alpha,
        }
    if V is not None:
        doc["V"] = V
    if residual_norm is not None:
        doc["residual_norm"] = residual_norm
    return json.dumps(doc, sort_keys=True)


def solution_to_json(sol: TWSolution) -> str:
    return profile_to_json(sol.profile, sol.grid, sol.params, sol.V, sol.residual_norm)


def profile_from_json(text: str):
    """Parse profile JSON; returns (profile, grid, params-or-None, V-or-None)."""
    doc = json.loads(text)
    grid = Grid(float(doc["half_width"]), int(doc["n_nodes"]))
    profile = PolarProfile(
        np.array(doc["psi"], dtype=float),
        np.array(doc["beta"], dtype=float),
        tuple(doc["bc_minus"]),
        tuple(doc["bc_plus"]),
    )
    params = Params(**doc["params"]) if "params" in doc else None
    V = float(doc["V"]) if "V" in doc else None
    return profile, grid, params, V
