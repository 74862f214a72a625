"""Smooth spectral windows and band projections for the oscillator spectrum.

The default pair (phi0, phi) is built from the exp-bump smoothstep: phi0 is
1 on [0, 1/2] and vanishes beyond 3/4, phi(u) = phi0(u) - phi0(2u) lives on
[1/4, 3/4].  Dilates phi_j(u) = phi(2^-j u) telescope to a partition of
unity, and the dual pair psi0 = phi0/D, psi(u) = phi(u)/D(2u) with
D = sum_j phi_j^2 reproduces: sum_j psi_j phi_j = 1 on the covered range.

Windows act on sqrt(lambda_k), lambda_k = 2k + n.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .core import SpectralFunction, degree_array, finite_difference, kernel_expansion


def _sigma(u):
    u = np.asarray(u, dtype=float)
    out = np.zeros_like(u)
    pos = u > 0
    out[pos] = np.exp(-1.0 / u[pos])
    return out


def smoothstep(u):
    """C^infinity step: 0 for u <= 0, 1 for u >= 1."""
    u = np.asarray(u, dtype=float)
    a = _sigma(u)
    return a / (a + _sigma(1.0 - u))


# finite-difference steps per derivative order; high orders need coarse
# steps or rounding noise (~eps/h^m) swamps the value
_FD_STEPS = {1: 1e-3, 2: 1e-3, 3: 1e-2, 4: 1e-2, 5: 0.04, 6: 0.05, 7: 0.07, 8: 0.08}


@dataclass
class SmoothProfile:
    """A smooth compactly supported 1D profile with numeric derivatives."""

    evaluator: object
    support: tuple
    _sups: dict = field(default_factory=dict, init=False, repr=False, compare=False)

    def __call__(self, u):
        return self.evaluator(np.asarray(u, dtype=float))

    def derivative(self, u, order):
        """Central finite difference of the given order at u (scalar or array)."""
        if order == 0:
            return self(u)
        if order > 8:
            raise ValueError("derivative order above 8 not supported")
        h = _FD_STEPS[order]

        def fd(step):
            acc = 0.0
            for i in range(order + 1):
                acc = acc + (-1.0) ** i * math.comb(order, i) * self(np.asarray(u) + (order / 2.0 - i) * step)
            return acc / step ** order

        if order > 4:
            return fd(h)
        # three-level Richardson for the O(h^2) central stencil
        a1, a2, a3 = fd(h), fd(h / 2.0), fd(h / 4.0)
        b1 = (4.0 * a2 - a1) / 3.0
        b2 = (4.0 * a3 - a2) / 3.0
        return (16.0 * b2 - b1) / 15.0

    def sup_derivative(self, order):
        """max |d^order profile| over a slightly enlarged support, measured once per order."""
        if order not in self._sups:
            lo, hi = self.support
            pad = 0.05 * (hi - lo + 1.0)
            grid = np.linspace(lo - pad, hi + pad, 2001)
            self._sups[order] = float(np.max(np.abs(self.derivative(grid, order))))
        return self._sups[order]


@dataclass
class AdmissibleSystem:
    phi0: SmoothProfile
    phi: SmoothProfile
    psi0: SmoothProfile
    psi: SmoothProfile
    plateau_end: float
    support_end: float
    _windows: dict = field(default_factory=dict, init=False, repr=False, compare=False)

    def window(self, j, u):
        """phi_j(u) = phi(2^-j u) for j >= 1, phi0(u) for j = 0."""
        u = np.asarray(u, dtype=float)
        return self.phi0(u) if j == 0 else self.phi(u * 2.0 ** -j)

    def dual_window(self, j, u):
        u = np.asarray(u, dtype=float)
        return self.psi0(u) if j == 0 else self.psi(u * 2.0 ** -j)

    def degree_windows(self, j, k_max, n, dual=False):
        """phi_j(sqrt(lambda_k)) (psi_j with dual) for k = 0..k_max, lambda_k = 2k + n.

        Evaluated once per (j, k_max, n, dual) and returned read-only.
        """
        key = (j, k_max, n, dual)
        if key not in self._windows:
            win = self.dual_window if dual else self.window
            w = np.asarray(win(j, np.sqrt(2.0 * np.arange(k_max + 1) + n)), dtype=float)
            w.flags.writeable = False
            self._windows[key] = w
        return self._windows[key]

    def coverage_level(self, lam_max):
        """Smallest J with window sum identically 1 up to lambda = lam_max."""
        J = 0
        while (self.plateau_end * 2.0 ** J) ** 2 < lam_max:
            J += 1
        return J


def bump_system(plateau_end=0.5, support_end=0.75):
    """Admissible pair with chi = 1 on [0, a], 0 beyond b (a=plateau, b=support).

    Requires 1/4 <= a/2 and b <= 1 so that supp phi = [a/2, b] stays inside
    [1/4, 1], and b <= 2a so the squared-sum normalizer is scale invariant
    on the dilated supports.
    """
    a, b = float(plateau_end), float(support_end)
    if not (0.5 <= a < b <= 1.0 and b <= 2.0 * a):
        raise ValueError("need 1/2 <= plateau_end < support_end <= 1 and support_end <= 2*plateau_end")

    def chi(u):
        return 1.0 - smoothstep((np.asarray(u, dtype=float) - a) / (b - a))

    def phi(u):
        u = np.asarray(u, dtype=float)
        return chi(u) - chi(2.0 * u)

    def dsum(u):
        u = np.atleast_1d(np.asarray(u, dtype=float))
        top = float(np.max(u, initial=0.0))
        jmax = max(1, int(math.ceil(math.log2(max(top, b) / (a / 2.0)))) + 2)
        acc = chi(u) ** 2
        for j in range(1, jmax + 1):
            acc = acc + phi(u * 2.0 ** -j) ** 2
        return acc

    def psi0(u):
        return chi(u) / dsum(u)

    def psi(u):
        return phi(u) / dsum(2.0 * np.asarray(u, dtype=float))

    sys = AdmissibleSystem(
        phi0=SmoothProfile(chi, (0.0, b)),
        phi=SmoothProfile(phi, (a / 2.0, b)),
        psi0=SmoothProfile(psi0, (0.0, b)),
        psi=SmoothProfile(psi, (a / 2.0, b)),
        plateau_end=a, support_end=b)
    return sys


def support_set(sys, j, n):
    """Degrees k with phi_j(sqrt(lambda_k)) possibly nonzero.

    Derived from the actual profile supports rather than a closed formula;
    a half-step of slack is left at the edges.
    """
    if j == 0:
        lo_u, hi_u = 0.0, sys.phi0.support[1]
    else:
        lo_u, hi_u = (s * 2.0 ** j for s in sys.phi.support)
    lo_k = max(0, int(math.ceil((lo_u ** 2 - n) / 2.0)))
    hi_k = int(math.floor((hi_u ** 2 - n) / 2.0))
    return range(lo_k, hi_k + 1)


def apply_lp(sys, j, f):
    """phi_j(sqrt(L)) f by exact diagonal action on the coefficients."""
    w = sys.degree_windows(j, f.max_degree, f.dim)
    return SpectralFunction(f.dim, f.max_degree, degree_array(w, f.dim) * f.array)


def lp_delta(sys, j, x, n, dual=False):
    """phi_j(sqrt(L))(., x) as a SpectralFunction in the first slot."""
    ks = support_set(sys, j, n)
    if len(ks) == 0:
        return SpectralFunction(n, 0)
    return kernel_expansion(sys.degree_windows(j, ks[-1], n, dual), x)


def hoppe_check(sys, ell, N, j, k, n):
    """Ratio of |Delta^ell phi_j(sqrt(lambda_k))| to its smoothness bound.

    Bound: sup|phi^(N)| 2^{-jN} lambda_k^{N/2 - ell} for the band profile
    (phi0 at j = 0).
    """
    if not (N > ell >= 1):
        raise ValueError("need N > ell >= 1")
    kk = np.arange(k, k + ell + 1)
    vals = np.asarray(sys.window(j, np.sqrt(2.0 * kk + n)), dtype=float)
    diff = float(finite_difference(vals, ell)[0])
    lam = 2.0 * k + n
    prof = sys.phi0 if j == 0 else sys.phi
    bound = prof.sup_derivative(N) * 2.0 ** (-j * N) * lam ** (N / 2.0 - ell)
    if bound == 0.0:
        return 0.0 if diff == 0.0 else math.inf
    return abs(diff) / bound
