"""Numerically stable scalar kernels shared by every solver.

The value functions in this package are compositions of one-sided
truncated-normal expectations.  Everything here reduces to the Mills-ratio
function

    psi(u) = u + phi(u) / Phi(u)

so that E[Y | Y > 0] = sigma * psi(mu / sigma) for Y ~ N(mu, sigma^2), plus a
normal-lognormal mixture expectation and Gauss-Hermite rules for the Gaussian
expectations the solvers take numerically.

There is one Mills kernel, ``_mills_g`` (G = phi/Phi), and one formula in
it: G(u) = sqrt(2/pi) / erfcx(-u/sqrt(2)) for every u.  It cancels the
e^{-u^2/2} factors, so nothing underflows in the left tail.  For u >= 0 it
is within 2e-13 relative of the direct quotient phi/Phi up to u = 30, and
above u ~ 37.7, where erfcx overflows, it returns exactly 0 (the true G is
below 1e-300 there).  It never returns NaN for finite u.  Callers that need
only part of a tensor cut the tensor before calling it, as the liquidity
stage T-1 expectation does with its price-node window.

Each quantity has one formula, in one function.  ``mills_psi_derivs``
returns psi, psi' and psi'' from a single G for the stage solves, working
past G in buffers it owns, never in its argument; ``mills_psi_prime`` and
``_mills_psi_second`` are views of it and, like it, reject non-finite input.
``mills_psi`` keeps a value-only body for the value-only hot loops.  The
Gauss-Hermite mixture expectation and its sigma_Y = 0 limit are written once
with their first two derivatives in the mean of Y (``_mixture_derivs_gh``,
``_lognormal_shift_derivs``); their value-only entries return the first.
"""
from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

import numpy as np
from scipy.special import erfcx, ndtr

__all__ = [
    "Gaussian",
    "QuadratureRule",
    "MixtureRegimeError",
    "mills_psi",
    "mills_psi_prime",
    "mills_psi_derivs",
    "gauss_hermite",
    "nln_mixture_expectation",
]

SQRT_2PI = np.sqrt(2.0 * np.pi)
SQRT_2 = np.sqrt(2.0)
SQRT_2_OVER_PI = np.sqrt(2.0 / np.pi)

# Below this argument psi switches from u + phi/Phi (which differences two
# nearly equal ~|u| terms and so sheds relative digits like u^2 * eps) to the
# asymptotic ratio series, which is already at machine precision there.
PSI_SERIES_BRANCH_U = -150.0

# Integration half-width, in standard deviations of X, for the mixture
# expectation.  The integrand carries an e^x factor against the Gaussian
# density, so 16 sigma leaves tail mass far below the 1e-12 target.
MIXTURE_TAIL_SIGMAS = 16.0

GH_MAX_ORDER = 128


class MixtureRegimeError(ValueError):
    """The mixture expectation was requested outside its derived regime."""


@dataclass(frozen=True)
class Gaussian:
    """A univariate normal with mean ``mu`` and standard deviation ``sigma``."""

    mu: float
    sigma: float

    def __post_init__(self) -> None:
        if not np.isfinite(self.mu):
            raise ValueError(f"Gaussian mu must be finite, got {self.mu}")
        if not (np.isfinite(self.sigma) and self.sigma > 0.0):
            raise ValueError(f"Gaussian sigma must be finite and > 0, got {self.sigma}")


@dataclass(frozen=True)
class QuadratureRule:
    """Gauss-Hermite nodes and weights (physicists' convention, weight e^{-x^2})."""

    nodes: np.ndarray
    weights: np.ndarray

    def expect(self, f, mu: float = 0.0, sigma: float = 1.0):
        """E[f(Z)] for Z ~ N(mu, sigma^2) by the substitution z = sqrt(2)*sigma*x + mu."""
        z = np.sqrt(2.0) * sigma * self.nodes + mu
        return float(np.dot(self.weights, f(z)) / np.sqrt(np.pi))


def _phi(z):
    return np.exp(-0.5 * np.square(z)) / SQRT_2PI


def _mills_g(u):
    """phi(u)/Phi(u), the lower-tail Mills ratio reciprocal, stable for all u.

    One formula over every element: phi/Phi = sqrt(2/pi) / erfcx(-u/sqrt(2)),
    so the e^{-u^2/2} factors cancel symbolically and nothing underflows in
    the left tail.  In the right tail erfcx(-x) = 2e^{x^2} - erfcx(x) grows
    like e^{u^2/2} and overflows to inf above u ~ 37.7, where G is exactly 0
    (the true G there is below 1e-300); G(-inf) is inf.
    """
    u = np.asarray(u, dtype=float)
    # -u/sqrt(2) as u/(-sqrt(2)): the same bits, in one fresh buffer
    out = np.divide(u, -SQRT_2, out=np.empty(u.shape))
    with np.errstate(over="ignore", divide="ignore"):
        erfcx(out, out=out)
        np.divide(SQRT_2_OVER_PI, out, out=out)
    return out if out.ndim else float(out)


def _psi_from_sum(arr, direct):
    """psi from u and ``direct`` = u + G, switching to the asymptotic series
    at and below u = -150."""
    deep = arr <= PSI_SERIES_BRANCH_U
    if np.any(deep):
        ud = np.where(deep, arr, PSI_SERIES_BRANCH_U)
        s = 1.0 / (ud * ud)
        # truncation of the degree-4 tails is ~1e-18 relative at u = -150
        num = 1.0 + s * (-3.0 + s * (15.0 + s * (-105.0 + s * 945.0)))
        den = 1.0 + s * (-1.0 + s * (3.0 + s * (-15.0 + s * 105.0)))
        direct = np.where(deep, -(num / den) / ud, direct)
    return direct


def _finite(u) -> np.ndarray:
    arr = np.asarray(u, dtype=float)
    if not np.all(np.isfinite(arr)):
        raise ValueError("mills_psi requires finite input")
    return arr


def _scalar_or_array(out):
    return out if out.ndim else float(out)


def mills_psi(u):
    """psi(u) = u + phi(u)/Phi(u).

    Strictly positive and nondecreasing; psi(u) -> 0+ as u -> -inf and
    psi(u) ~ u as u -> +inf.  In the left tail u + G(u) differences two
    nearly equal ~|u| magnitudes, so below u = -150 psi is evaluated from
    the asymptotic ratio series -(1/u) * (1 - 3s + 15s^2 - ...) /
    (1 - s + 3s^2 - ...), s = 1/u^2, keeping full relative accuracy.

    Parameters
    ----------
    u : float or ndarray
        Argument(s); must be finite.

    Returns
    -------
    float or ndarray
    """
    arr = _finite(u)
    return _scalar_or_array(_psi_from_sum(arr, arr + _mills_g(arr)))


def mills_psi_prime(u):
    """d psi / du = 1 - u*G(u) - G(u)^2 with G = phi/Phi; lies in (0, 1).

    The second output of :func:`mills_psi_derivs`, so it also computes
    psi'' and raises ValueError on non-finite input.
    """
    return mills_psi_derivs(u, with_psi=False)[1]


def _mills_psi_second(u):
    """d^2 psi / du^2: the third output of :func:`mills_psi_derivs`."""
    return mills_psi_derivs(u, with_psi=False)[2]


def mills_psi_derivs(u, with_psi: bool = True):
    """(psi(u), psi'(u), psi''(u)) from one G; psi is None unless ``with_psi``.

    psi' = 1 - u*G - G^2 and, from G' = -G(u + G), psi'' = -G - u*G' - 2*G*G'.
    psi is :func:`mills_psi`'s expression operation for operation, so it is
    bit for bit that call's; like mills_psi this requires finite input.  Past
    G, every step writes in place into buffers the call owns, never into
    ``u``: on the stage tensors the temporaries of the plain expressions cost
    more than their arithmetic.
    """
    arr = _finite(u)
    g = np.asarray(_mills_g(arr))
    direct, gp, p1, work = (np.empty(arr.shape) for _ in range(4))
    np.add(arr, g, out=direct)  # u + G: psi before its series branch
    np.negative(g, out=gp)
    gp *= direct  # G' = -G(u + G)
    np.multiply(arr, g, out=p1)
    np.subtract(1.0, p1, out=p1)
    np.multiply(g, g, out=work)
    p1 -= work  # 1 - u*G - G^2
    psi = _scalar_or_array(_psi_from_sum(arr, direct)) if with_psi else None
    np.multiply(g, 2.0, out=work)
    work *= gp
    gp *= arr
    p2 = np.negative(g, out=g)  # G is spent: psi'' takes its buffer
    p2 -= gp
    p2 -= work  # -G - u*G' - 2*G*G'
    return psi, _scalar_or_array(p1), _scalar_or_array(p2)


@lru_cache(maxsize=32)
def _hermgauss_cached(n: int):
    nodes, weights = np.polynomial.hermite.hermgauss(n)
    nodes.setflags(write=False)
    weights.setflags(write=False)
    return nodes, weights


def gauss_hermite(n: int) -> QuadratureRule:
    """Gauss-Hermite rule of order ``n`` (1 <= n <= 128), weights summing to sqrt(pi)."""
    if not isinstance(n, (int, np.integer)) or isinstance(n, bool):
        raise ValueError(f"quadrature order must be an integer, got {n!r}")
    if not 1 <= n <= GH_MAX_ORDER:
        raise ValueError(f"quadrature order must be in [1, {GH_MAX_ORDER}], got {n}")
    nodes, weights = _hermgauss_cached(int(n))
    return QuadratureRule(nodes=nodes, weights=weights)


def _mixture_pieces(xv, mu_y, sig_y, k):
    """Numerator and conditioning-probability integrands of the mixture at X=xv.

    For fixed X = x the event {e^x Y + k > 0} is {Y > c} with c = -k e^{-x},
    so the inner Y-expectation is the closed truncated-normal pair
    Q = P(Y > c), M1 = E[Y 1{Y > c}].  Returns (e^x*M1 + k*Q, Q, zc, phi(zc))
    with the standardized threshold zc = (c - mu_y)/sig_y.
    """
    c = -k * np.exp(-xv)
    zc = (c - mu_y) / sig_y
    q = ndtr(-zc)
    phi_zc = _phi(zc)
    n = mu_y * q + sig_y * phi_zc  # M1; then e^x*M1 + k*Q in place
    n *= np.exp(xv)
    n += k * q
    return n, q, zc, phi_zc


def nln_mixture_expectation(x: Gaussian, y: Gaussian, k: float) -> float:
    """E[e^X Y + k | e^X Y + k > 0] for independent X, Y normal and k < 0.

    The X-integral of the closed-form truncated-Y moments is taken by adaptive
    Gauss-Kronrod quadrature on [mu_X - 16 sigma_X, mu_X + 16 sigma_X], split
    at the mean.  Relative accuracy is ~1e-12 (checked against 50-digit
    arithmetic during development).

    Raises
    ------
    MixtureRegimeError
        If k >= 0 (the constant would have to come from a different
        derivation; refusing is safer than extrapolating).
    ValueError
        If the conditioning event has numerically vanishing probability.
    """
    if not np.isfinite(k):
        raise ValueError("k must be finite")
    if k >= 0.0:
        raise MixtureRegimeError(f"mixture expectation requires k < 0, got k={k}")
    from scipy.integrate import quad  # here, so importing execsched leaves scipy.integrate out

    scale = max(abs(y.mu) + 3.0 * y.sigma, abs(k), 1.0) * np.exp(x.mu + 3.0 * x.sigma)

    def num_integrand(xv):
        n = _mixture_pieces(xv, y.mu, y.sigma, k)[0]
        return n * _phi((xv - x.mu) / x.sigma) / x.sigma

    def den_integrand(xv):
        q = _mixture_pieces(xv, y.mu, y.sigma, k)[1]
        return q * _phi((xv - x.mu) / x.sigma) / x.sigma

    lo = x.mu - MIXTURE_TAIL_SIGMAS * x.sigma
    hi = x.mu + MIXTURE_TAIL_SIGMAS * x.sigma
    num = 0.0
    den = 0.0
    for a, b in ((lo, x.mu), (x.mu, hi)):
        num += quad(num_integrand, a, b, epsabs=1e-13 * scale, epsrel=1e-12, limit=400)[0]
        den += quad(den_integrand, a, b, epsabs=1e-15, epsrel=1e-12, limit=400)[0]
    if den < 1e-290:
        raise ValueError(
            f"conditioning event {{e^X Y + k > 0}} has vanishing probability ({den:.3g})"
        )
    return num / den


def _mixture_expectation_gh(mu_x, sig_x, mu_y, sig_y, k, order: int = 64):
    """Vectorized Gauss-Hermite variant of the mixture expectation.

    For fixed X the Y-truncation kinks the integrand over a width of about
    sig_y, so the rule resolves it only when sig_y is not small next to
    sig_x.  At order 40, against the adaptive kernel above (mu_y in
    [0.95, 1.1], k = -1), the relative error is about 1e-11 at
    sig_y = 0.7*sig_x, 5e-8 at 0.5, 4e-6 at 0.4, 2e-4 at 0.3 and 3e-2 at
    0.1, where order 128 still misses by 1e-2.  Broadcasts over mu_y, sig_y,
    k.  The value of :func:`_mixture_derivs_gh`.
    """
    return _mixture_derivs_gh(mu_x, sig_x, mu_y, sig_y, k, order)[0]


def _ratio_derivs(num, d_num, dd_num, den, d_den, dd_den):
    """(r, r', r'') of r = num/den from the derivatives of both parts."""
    r = num / den
    d_r = (d_num - r * d_den) / den
    return r, d_r, (dd_num - 2.0 * d_r * d_den - r * dd_den) / den


def _mixture_derivs_gh(mu_x, sig_x, mu_y, sig_y, k, order: int = 64):
    """The Gauss-Hermite mixture expectation and its first two mu_y-derivatives.

    From the pieces of :func:`_mixture_pieces` at each node x: the numerator
    integrand n = e^x*M1 + k*Q has dn/dmu_y = e^x*Q and d2n = e^x*phi(zc)/sig_y
    (the c-terms cancel because e^x*c = -k), and Q = P(Y > c) has
    dQ/dmu_y = phi(zc)/sig_y and d2Q = phi(zc)*zc/sig_y^2.
    """
    nodes, weights = _hermgauss_cached(int(order))
    mu_y, sig_y, k = np.broadcast_arrays(
        np.asarray(mu_y, dtype=float),
        np.asarray(sig_y, dtype=float),
        np.asarray(k, dtype=float),
    )
    shape = (-1,) + (1,) * mu_y.ndim
    xv = (mu_x + sig_x * np.sqrt(2.0) * nodes).reshape(shape)
    n, q, zc, phi_zc = _mixture_pieces(xv, mu_y[None], sig_y[None], k[None])
    dens = np.divide(phi_zc, sig_y[None], out=phi_zc)
    ex = np.exp(xv)
    w = weights.reshape(shape) / np.sqrt(np.pi)
    return _ratio_derivs(
        (w * n).sum(axis=0),
        (w * (ex * q)).sum(axis=0),
        (w * (ex * dens)).sum(axis=0),
        (w * q).sum(axis=0),
        (w * dens).sum(axis=0),
        (w * (dens * zc / sig_y[None])).sum(axis=0),
    )


def _lognormal_shift_conditional(mu_x, sig_x, c, k):
    """E[c e^X + k | c e^X + k > 0] for c > 0, k < 0, X ~ N(mu_x, sig_x^2).

    The degenerate sigma_Y = 0 limit of the mixture: the event is
    {X > log(-k/c)} and both moments are closed.  Broadcasts over c and k;
    the value of :func:`_lognormal_shift_derivs`, a float for scalar input.
    """
    return _scalar_or_array(np.asarray(_lognormal_shift_derivs(mu_x, sig_x, c, k)[0]))


def _lognormal_shift_derivs(mu_x, sig_x, c, k):
    """E[c e^X + k | c e^X + k > 0] and its first two c-derivatives.

    With z = (mu_x - log(-k/c))/sig_x, the conditional is
    (c*E[e^X]*Phi(z + sig_x) + k*Phi(z)) / Phi(z).  dz/dc = 1/(c*sig_x); the
    numerator has derivative E[e^X]*Phi(z + sig_x) (the phi terms cancel,
    E[e^X]*phi(z + sig_x) = -k*phi(z)/c), so its second derivative is
    -k*phi(z)/(c^2*sig_x).
    """
    c = np.asarray(c, dtype=float)
    k = np.asarray(k, dtype=float)
    z = (mu_x - np.log(-k / c)) / sig_x
    pr = ndtr(z)
    e_fac = np.exp(mu_x + 0.5 * sig_x * sig_x)
    dens = _phi(z) / (c * sig_x)
    return _ratio_derivs(
        c * e_fac * ndtr(z + sig_x) + k * pr,
        e_fac * ndtr(z + sig_x),
        -k * dens / c,
        pr,
        dens,
        -dens * (z + sig_x) / (c * sig_x),
    )
