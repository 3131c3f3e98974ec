"""Interaction kernels, double-well potentials, and the energy scaling profile.

The model couples a singular pairwise interaction kernel

    K(x, y) = a(x, y) / |x - y|^(n + 2s),        s in (0, 1),

with a double-well potential W(x, r) that vanishes exactly at the pure
phases r = -1 and r = +1.  Both ingredients may be modulated in space with
a common periodicity scale ``tau``, which models a periodic medium.

Two kernel families are built in:

* ``standard``  -- a(x, y) = 1 (homogeneous, rotation invariant),
* ``modulated`` -- a(x, y) = 1 + (cos(2 pi x.e1/tau) + cos(2 pi y.e1/tau))/4,
  which keeps a within [1/2, 3/2].

Four potential families are built in (all optionally multiplied by a
modulation Q(x) in [1, 2]):

* ``quartic``    Q (1 - r^2)^2
* ``power_d``    Q |1 - r^2|^d with d in (1, 2)
* ``cosine``     Q (1 + cos(pi r))
* ``cosine_sq``  Q cos^2(pi r / 2)

All evaluators are pure functions of immutable specs and vectorize over
numpy arrays.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

TWO_PI = 2.0 * math.pi

POTENTIAL_FAMILIES = ("quartic", "power_d", "cosine", "cosine_sq")
KERNEL_FAMILIES = ("standard", "modulated")


class SingularPairError(ValueError):
    """Kernel evaluated at coincident points."""


class ScalingDomainError(ValueError):
    """Scaling profile queried outside its domain t > 1."""


def _reduced_cos(x, tau):
    """cos(2 pi x / tau) evaluated after reduction of x modulo tau.

    The reduction keeps lattice shifts x -> x + k*tau exact up to a few ulp
    instead of letting the argument grow.
    """
    return np.cos(TWO_PI * (np.mod(x, tau) / tau))


@dataclass(frozen=True)
class KernelSpec:
    """Pairwise interaction kernel with ellipticity and periodicity data.

    The hypothesis constants are derived: the kernel is bounded below by
    lam/|x-y|^(n+2s) for |x-y| < xi = tau and above by Lam/|x-y|^(n+2s)
    everywhere; ``nu``/``gamma_reg`` quantify the odd-part regularity
    needed in the weakly nonlocal range s >= 1/2 (None below it).
    """

    dim: int = 2
    s: float = 0.25
    tau: float = 1.0
    family: str = "standard"

    def __post_init__(self):
        if self.dim not in (1, 2):
            raise ValueError(f"dim must be 1 or 2, got {self.dim}")
        if not 0.0 < self.s < 1.0:
            raise ValueError(f"s must lie in (0,1), got {self.s}")
        if not 0.0 < self.tau < math.inf:
            raise ValueError(f"tau must be finite and positive, got {self.tau!r}")
        if self.family not in KERNEL_FAMILIES:
            raise ValueError(f"unknown kernel family {self.family!r}")

    @property
    def nu(self) -> float | None:
        return min(0.9, 2.0 - 2.0 * self.s) if self.s >= 0.5 else None

    @property
    def gamma_reg(self) -> float | None:
        return 4.0 * math.pi / self.tau if self.s >= 0.5 else None

    @property
    def lam(self) -> float:
        return 1.0 if self.family == "standard" else 0.5

    @property
    def Lam(self) -> float:
        return 1.0 if self.family == "standard" else 1.5

    @property
    def exponent(self) -> float:
        """Order n + 2s of the radial singularity."""
        return self.dim + 2.0 * self.s

    def modulation(self, x):
        """Spatial factor g with a(x, y) = 1 + (g(x) + g(y))/4.

        Zero for the standard family.  ``x`` has shape (..., dim).
        """
        x = np.asarray(x, dtype=float)
        if self.family == "standard":
            return np.zeros(x.shape[:-1])
        return _reduced_cos(x[..., 0], self.tau)

    def amplitude(self, x, y):
        """Symmetric factor a(x, y) multiplying the radial envelope."""
        return 1.0 + 0.25 * (self.modulation(x) + self.modulation(y))


def eval_kernel(spec: KernelSpec, x, y):
    """Evaluate K(x, y); raises on coincident points."""
    x = np.asarray(x, dtype=float)
    y = np.asarray(y, dtype=float)
    d = np.linalg.norm(x - y, axis=-1)
    if np.any(d == 0.0):
        raise SingularPairError("kernel is singular at coincident points")
    return spec.amplitude(x, y) * d ** (-spec.exponent)


@dataclass(frozen=True)
class PotentialSpec:
    """Double-well potential W(x, r) vanishing exactly at r = +-1.

    ``kappa`` is derived from the family so that the uniform bounds W,
    |W_r| <= 1/kappa hold with a 5% margin even at the strongest modulation
    Q = 2; it lies in (0, 1/3].  ``epsilon`` scales the potential sum by
    eps^(-2s), s the kernel's, as in E_eps (None: unscaled).
    """

    family: str = "quartic"
    d: float = 1.5                # exponent for power_d only
    tau: float = 1.0
    Q_modulation: bool = False
    epsilon: float | None = None

    def __post_init__(self):
        if self.family not in POTENTIAL_FAMILIES:
            raise ValueError(f"unknown potential family {self.family!r}")
        if self.family == "power_d" and not 1.0 < self.d < 2.0:
            raise ValueError(f"power_d requires d in (1,2), got {self.d}")
        if not 0.0 < self.tau < math.inf:
            raise ValueError(f"tau must be finite and positive, got {self.tau!r}")
        if self.epsilon is not None and not 0.0 < self.epsilon < math.inf:
            raise ValueError(
                f"epsilon must be finite and positive, got {self.epsilon!r}")

    @property
    def kappa(self) -> float:
        r = np.linspace(-1.0, 1.0, 2001)
        peak = 2.0 * max(float(np.max(self.profile(r))),
                         float(np.max(np.abs(self.profile_derivative(r)))))
        return min(0.95 / peak, 1.0 / 3.0)

    def q(self, x):
        """Spatial modulation Q(x) in [1, 2]; identically 1 when disabled."""
        x = np.asarray(x, dtype=float)
        if not self.Q_modulation:
            return np.ones(x.shape[:-1])
        c1 = _reduced_cos(x[..., 0], self.tau)
        c2 = _reduced_cos(x[..., 1], self.tau) if x.shape[-1] > 1 else 1.0
        return 0.5 * (3.0 + c1 * c2)

    def profile(self, r):
        """x-independent well shape w0 with W(x, r) = Q(x) w0(r); a scalar
        is evaluated as a one-entry array, so it rounds as an array entry."""
        shape = np.shape(r)
        r = np.atleast_1d(np.asarray(r, dtype=float))
        if self.family == "quartic":
            out = (1.0 - r * r) ** 2
        elif self.family == "power_d":
            out = np.abs(1.0 - r * r) ** self.d
        elif self.family == "cosine":
            out = 1.0 + np.cos(np.pi * r)
        else:
            out = np.cos(0.5 * np.pi * r) ** 2
        return out.reshape(shape)[()]

    def profile_difference(self, r, ra):
        """w0(r) - w0(ra) in a factored form per family, with an absolute
        error of a few ulp of |r - ra| (the plain difference of two
        `profile` values errs by about 1e-16 whatever r - ra is); exactly 0
        at r = ra."""
        r = np.asarray(r, dtype=float)
        ra = np.asarray(ra, dtype=float)
        delta, plus = r - ra, r + ra
        if self.family == "quartic":
            return -delta * plus * (2.0 - r * r - ra * ra)
        if self.family == "cosine":
            return -2.0 * np.sin(0.5 * np.pi * plus) * np.sin(0.5 * np.pi * delta)
        if self.family == "cosine_sq":
            return -np.sin(0.5 * np.pi * plus) * np.sin(0.5 * np.pi * delta)
        # power_d: b^d - ba^d for b = |1 - r^2|, as big^d expm1(d log1p(x))
        # on the larger base; b - ba = -delta (r + ra) where 1 - r^2 and
        # 1 - ra^2 share a sign
        u, ua = 1.0 - r * r, 1.0 - ra * ra
        b, ba = np.abs(u), np.abs(ua)
        db = np.where(u * ua >= 0.0, -np.sign(u + ua) * delta * plus, b - ba)
        big = np.maximum(b, ba)
        first = b >= ba
        with np.errstate(divide="ignore"):      # log1p(-1) when one base is 0
            x = np.maximum(np.where(first, -db, db)
                           / np.where(big > 0.0, big, 1.0), -1.0)
            mag = big ** self.d * np.expm1(self.d * np.log1p(x))
        return np.where(first, -mag, mag)[()]

    def profile_derivative(self, r):
        r = np.asarray(r, dtype=float)
        if self.family == "quartic":
            return -4.0 * r * (1.0 - r * r)
        if self.family == "power_d":
            # one-sided limit 0 at the well bottoms |r| = 1 (d > 1)
            base = np.abs(1.0 - r * r)
            out = np.zeros_like(base)
            np.divide(-2.0 * self.d * r * base**self.d, 1.0 - r * r,
                      out=out, where=base > 0.0)
            return out
        if self.family == "cosine":
            return -np.pi * np.sin(np.pi * r)
        return -0.5 * np.pi * np.sin(np.pi * r)


def eval_potential(spec: PotentialSpec, x, r):
    """W(x, r) >= 0.  Values of r outside [-1, 1] are accepted."""
    return spec.q(x) * spec.profile(r)


def eval_potential_derivative(spec: PotentialSpec, x, r):
    """dW/dr; agrees with centered finite differences at interior r."""
    return spec.q(x) * spec.profile_derivative(r)


def gamma_of(spec: PotentialSpec, theta):
    """Certified positive lower bound for inf over x and |r| <= theta of W.

    All built-in well shapes are even in r and non-increasing in |r| on
    [0, 1], so the r-infimum sits at |r| = theta.  Without Q-modulation the
    bound is exact; with modulation Q >= 1 so the Q-free value is already a
    valid lower bound, tightened here by a grid scan with a 0.99 safety
    factor against the grid missing the x-infimum.  ``theta`` may be an
    array, which scans the grid once; a scalar returns a float.
    """
    theta = np.asarray(theta, dtype=float)
    if not np.all((0.0 <= theta) & (theta < 1.0)):
        raise ValueError(f"theta must lie in [0,1), got {theta}")
    base = spec.profile(theta)
    if spec.Q_modulation:
        xs = np.linspace(0.0, spec.tau, 65)
        grid = np.stack(np.meshgrid(xs, xs, indexing="ij"), axis=-1).reshape(-1, 2)
        qmin = float(spec.q(grid).min())
        base = 0.99 * min(qmin, 1.0) * base
    return float(base) if theta.ndim == 0 else base


def psi_s(s: float, t) -> np.ndarray | float:
    """Scaling profile separating the s < 1/2, s = 1/2 and s > 1/2 regimes."""
    t = np.asarray(t, dtype=float)
    if np.any(t <= 1.0):
        raise ScalingDomainError("psi_s requires t > 1")
    if s < 0.5:
        out = t ** (1.0 - 2.0 * s)
    elif s == 0.5:
        out = np.log(t)
    else:
        out = np.ones_like(t)
    return out if out.ndim else float(out)


# ---------------------------------------------------------------------------
# hypothesis validation


@dataclass
class HypothesisCheck:
    tag: str
    passed: bool
    worst: float
    detail: str = ""


@dataclass
class ValidationReport:
    checks: list[HypothesisCheck] = field(default_factory=list)
    seed: int = 0

    @property
    def passed(self) -> bool:
        return all(c.passed for c in self.checks)

    def failing_tags(self) -> list[str]:
        return [c.tag for c in self.checks if not c.passed]

    def __getitem__(self, tag: str) -> HypothesisCheck:
        for c in self.checks:
            if c.tag == tag:
                return c
        raise KeyError(tag)


def _sample_points(rng, n, dim, scale):
    return (rng.random((n, dim)) - 0.5) * 2.0 * scale


def validate_hypotheses(kernel, potential, samples: int = 256,
                        seed: int = 0) -> ValidationReport:
    """Check the kernel/potential structure hypotheses on random samples.

    Failures are recorded in the report rather than raised, each with its
    worst violation.  The lower envelope (K2) is sampled on |x - y| < tau,
    the range xi of the lower bound.  ``kernel`` and ``potential`` only
    need to provide the evaluation surface of `KernelSpec`/`PotentialSpec`,
    so test doubles can be injected.
    """
    if samples < 1:
        raise ValueError("samples must be >= 1")
    rng = np.random.default_rng(seed)
    rep = ValidationReport(seed=seed)
    n = kernel.dim
    tau = kernel.tau
    scale = 4.0 * tau

    x = _sample_points(rng, samples, n, scale)
    y = x + (rng.random((samples, n)) - 0.5) * 2.0 * tau
    coincident = np.linalg.norm(x - y, axis=-1) < 1e-9 * tau
    y[coincident] += 0.1 * tau

    kxy = eval_kernel(kernel, x, y)
    kyx = eval_kernel(kernel, y, x)
    dev = np.abs(kxy - kyx)
    rep.checks.append(HypothesisCheck(
        "K1", bool(np.all(dev == 0.0)), float(dev.max()),
        "symmetry K(x,y)=K(y,x)"))

    d = np.linalg.norm(x - y, axis=-1)
    env = kxy * d ** kernel.exponent
    near = d < tau
    lo_dev = float(np.max(np.where(near, kernel.lam - env, -np.inf)))
    hi_dev = float(np.max(env - kernel.Lam))
    worst = max(lo_dev, hi_dev, 0.0)
    rep.checks.append(HypothesisCheck(
        "K2", worst <= 1e-12,
        worst, f"lambda={kernel.lam}, Lambda={kernel.Lam} envelope"))

    if kernel.s >= 0.5:
        w = _sample_points(rng, samples, n, 2.0 * tau)
        w[np.linalg.norm(w, axis=-1) < 1e-6] += 0.1
        anti = np.abs(eval_kernel(kernel, x, x + w) - eval_kernel(kernel, x, x - w))
        bound = kernel.gamma_reg * np.linalg.norm(w, axis=-1) ** (-n - 1.0 + kernel.nu)
        worst = float(np.max(anti - bound))
        rep.checks.append(HypothesisCheck(
            "K3", worst <= 1e-12, worst,
            f"odd-part bound with nu={kernel.nu}, Gamma={kernel.gamma_reg}"))

    shift_dev = 0.0
    for axis in range(n):
        k = np.zeros(n)
        k[axis] = tau
        dv = np.abs(eval_kernel(kernel, x + k, y + k) - kxy)
        j = int(np.argmax(dv))
        shift_dev = max(shift_dev,
                        float(dv[j] / max(abs(float(kxy[j])), 1e-300)))
    rep.checks.append(HypothesisCheck(
        "K4", shift_dev <= 1e-12, shift_dev,
        "tau-lattice shift invariance"))

    # potential side
    xs = _sample_points(rng, samples, n, scale)
    w1 = np.abs(eval_potential(potential, xs, np.ones(samples)))
    w1m = np.abs(eval_potential(potential, xs, -np.ones(samples)))
    worst = float(max(w1.max(), w1m.max()))
    rep.checks.append(HypothesisCheck("W1", worst <= 1e-14, worst,
                                      "W(x,+-1)=0"))

    thetas = rng.random(samples) * 0.98
    rs = thetas * (2.0 * rng.random(samples) - 1.0)
    vals = eval_potential(potential, xs, rs)
    lo = gamma_of(potential, thetas)
    worst = float(np.max(lo - vals))
    rep.checks.append(HypothesisCheck("W2", worst <= 1e-12, worst,
                                      "W >= gamma(theta) on |r| <= theta"))

    rfull = 2.0 * rng.random(samples) - 1.0
    wv = eval_potential(potential, xs, rfull)
    wd = np.abs(eval_potential_derivative(potential, xs, rfull))
    kap = potential.kappa
    worst = float(max(wv.max(), wd.max()) - 1.0 / kap)
    rep.checks.append(HypothesisCheck(
        "W3", worst <= 1e-12, worst,
        f"W, |W_r| <= 1/kappa with kappa={kap}"))

    r4 = -1.0 + kap * rng.random(samples)
    t4 = r4 + (-1.0 + kap - r4) * rng.random(samples)
    lhs = eval_potential(potential, xs, t4)
    rhs = (eval_potential(potential, xs, r4)
           + kap * (1.0 + r4) * (t4 - r4) + kap * (t4 - r4) ** 2)
    worst_low = float(np.max(rhs - lhs))
    r4b = 1.0 - kap * rng.random(samples)
    linear = eval_potential(potential, xs, r4b) - (1.0 - np.abs(r4b)) / kap
    worst = max(worst_low, float(np.max(linear)))
    rep.checks.append(HypothesisCheck(
        "W4", worst <= 1e-12, worst,
        "superquadratic/sublinear detachment near the wells"))

    shift_dev = 0.0
    for axis in range(n):
        k = np.zeros(n)
        k[axis] = tau
        dv = np.abs(eval_potential(potential, xs + k, rfull) - wv)
        shift_dev = max(shift_dev, float(np.max(dv)))
    rep.checks.append(HypothesisCheck("W5", shift_dev <= 1e-12, shift_dev,
                                      "tau-lattice shift invariance of W"))

    if getattr(potential, "Q_modulation", False):
        qs = potential.q(xs)
        worst = float(max(np.max(1.0 - qs), np.max(qs - 2.0)))
        rep.checks.append(HypothesisCheck("Qrange", worst <= 1e-12, worst,
                                          "Q(x) in [1,2]"))

    return rep
