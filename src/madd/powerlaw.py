"""Discrete truncated power-law fitting.

The model is a probability mass function over integers x >= x_min,

    p(x) = x**-alpha * exp(-lam * x) / Z(alpha, lam, x_min),

whose pure power-law limit (lam = 0) normalizes through the Hurwitz zeta
function. For lam > 0, Z joins a summed head to a Gauss-Legendre tail integral
by Euler-Maclaurin: at most 0.35 ms a call at any lam, within 4e-15 of mpmath.
Fitting proceeds in two stages:

1. x_min: for every candidate x_min (the sorted unique sample values that
   leave at least ``MIN_TAIL`` samples in the tail, thinned evenly to at
   most ``MAX_CANDIDATES``), alpha is estimated by discrete maximum
   likelihood at lam = 0, lam is the best of the coarse grid
   ``_COARSE_LAMBDAS`` at that alpha (the smallest on ties), and alpha is
   re-fitted at that lam; the candidate minimizing the Kolmogorov-Smirnov
   distance between the empirical and fitted tail CDFs wins (ties go to the
   smallest x_min). This is the x_min/KS procedure of Clauset, Shalizi &
   Newman, SIAM Rev. 51:661 (2009). The KS step reads the fitted cdf from a
   prefix of the law's cumulative table, ending at the tail's largest
   value, so it agrees bit for bit with ``PowerLawFit.cdf``.
2. Refinement: when the winner's lam > 0, a joint Nelder-Mead polish of
   (alpha, lam) starts from it with x_min frozen, and is kept only if it
   does not lower the log-likelihood.

The Hurwitz zeta is a port of Cephes' ``zeta`` (Moshier, Methods and Programs
for Mathematical Functions, 1989) that returns scipy.special.zeta's bits, and
both minimizers, bounded Brent for alpha and the Nelder-Mead polish, are ports
of scipy.optimize's that evaluate the same points to the bit (at the end of
this module). So no command loads scipy, whose scipy.special alone would add
~24 MB and ~0.25 s to every process that fits; scipy is the tests' oracle.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cache, cached_property, partial

import numpy as np

from .errors import DegenerateSamples, InsufficientData

ALPHA_BOUNDS = (1.001, 8.0)
LAMBDA_BOUNDS = (0.0, 1.0)
MIN_SAMPLES = 50
MIN_DISTINCT = 10
MIN_TAIL = 50
MAX_CANDIDATES = 40
# Coarse cutoff grid used during x_min selection; stage 2's polish starts from
# the winner's grid value. 0 is included so pure power-law data stays exact.
_COARSE_LAMBDAS = (0.0,) + tuple(np.logspace(-4, 0, 13))
_MAX_TABLE = 1 << 24
# _CUTOFF_SPAN / lam terms past x_min, e^(-lam k) has fallen by e^-40 (4e-18).
_CUTOFF_SPAN = 40.0
# _norm_constant's paths and coefficients (see its docstring)
_DIRECT_SPAN = 45.0
_DIRECT_TERMS = 1024
_HEAD = 256
_LAM_SERIES = 1e-200
# 16-point Gauss-Legendre rule, built on first use (its eigensolver makes LAPACK take ~1 MB)
_gauss_legendre = cache(partial(np.polynomial.legendre.leggauss, 16))
_EM_COEFFS = (1 / 12, -1 / 720, 1 / 30240, -1 / 1209600)  # B_2j / (2j)!, j = 1..4
_EM_BINOMIALS = tuple(tuple(math.comb(o, i) for i in range(o + 1)) for o in (1, 3, 5, 7))


# Cephes' zeta as scipy.special.zeta (SciPy 1.17) computes it: (2j)! / B_2j,
# j = 1..12, for the Euler-Maclaurin tail, and its stopping tolerance.
_ZETA_A = (
    12.0, -720.0, 30240.0, -1209600.0, 47900160.0, -1.8924375803183791606e9, 7.47242496e10,
    -2.950130727918164224e12, 1.1646782814350067249e14, -4.5979787224074726105e15,
    1.8152105401943546773e17, -7.1661652561756670113e18,
)
_MACHEP = 2.0**-53


def _hurwitz_zeta(x: float, q: float) -> float:
    """zeta(x, q) = sum_{k >= 0} (k + q)^-x for x > 1, q >= 1: Cephes' zeta, with
    scipy.special.zeta's bits. Past q = 1e8 it is the asymptotic (1/(x - 1) +
    1/(2q)) q^(1 - x) (NIST DLMF 25.11.43). Otherwise it sums the terms from k = 0
    until k >= 9 and w = k + q > 9, stopping early once a term falls below 2**-53
    of the sum, then adds the Euler-Maclaurin tail from w: w^(1 - x)/(x - 1) -
    w^-x/2 and up to 12 Bernoulli terms, which stop the same way."""
    if q > 1e8:
        return (1 / (x - 1) + 1 / (2 * q)) * math.pow(q, 1 - x)
    s = math.pow(q, -x)
    if s == 0.0:  # every later term underflows too: Cephes' 0/0 tests fail and it returns 0
        return 0.0
    a, i = q, 0
    while i < 9 or a <= 9.0:
        i += 1
        a += 1.0
        b = math.pow(a, -x)
        s += b
        if b / s < _MACHEP:
            return s
    w = a
    s += b * w / (x - 1)
    s -= 0.5 * b
    a, k = 1.0, 0.0
    for c in _ZETA_A:
        a *= x + k
        b /= w
        t = a * b / c
        s += t
        if abs(t / s) < _MACHEP:
            return s
        k += 1.0
        a *= x + k
        b /= w
        k += 1.0
    return s


def _norm_constant(alpha: float, lam: float, x_min: int) -> float:
    """Z = sum_{k >= x_min} k^-alpha e^(-lam k), at a cost bounded in lam.

    lam <= 0 gives the Hurwitz zeta (Cephes' algorithm, ``_hurwitz_zeta``), and
    lam < ``_LAM_SERIES`` the Mellin series
    zeta(alpha, x_min) + Gamma(1 - alpha) lam^(alpha - 1) + O(lam). When e^(-lam k) falls
    by e^-45 within ``_DIRECT_TERMS`` terms, Z sums them. Otherwise Z sums ``_HEAD``
    terms, k in [x_min, M), and adds the Euler-Maclaurin join at M (NIST DLMF 2.10.1)
    of f(x) = x^-alpha e^(-lam x): the integral of f from M, plus f(M)/2 -
    sum_{j=1..4} B_2j/(2j)! f^(2j-1)(M), where f^(m)(M) = (-1)^m f(M) sum_i C(m, i)
    alpha^(i) M^-i lam^(m-i), alpha^(i) rising. The integral is 16-point Gauss-Legendre
    on blocks [a, a + min(a, 4/lam)) from M past M + 40/lam: log2(1/(lam M)) + 10 blocks.

    Relative error against mpmath's Lerch Phi: at most 3.7e-15 (mostly from rounding
    lam * k) over 340 cases, alpha in [1.001, 8], lam in [1e-12, 1], x_min <= 100.
    A call takes 7-25 us above lam = 0.044, 40-100 us down to 1e-12, and up to
    0.35 ms just above ``_LAM_SERIES`` (2-vCPU VM).
    """
    if lam <= 0.0:
        return _hurwitz_zeta(alpha, x_min)
    if lam < _LAM_SERIES:
        z = _hurwitz_zeta(alpha, x_min)
        return z + math.gamma(1.0 - alpha) * lam ** (alpha - 1.0) if alpha < 2.0 else z
    direct = math.ceil(_DIRECT_SPAN / lam)
    n = direct if direct <= _DIRECT_TERMS else _HEAD
    k = np.arange(x_min, x_min + n, dtype=np.float64)
    head = float(np.sum(k**-alpha * np.exp(-lam * k)))
    if n == direct:
        return head
    m = float(x_min + n)
    f = m**-alpha * math.exp(-lam * m)
    edges, end, width = [m], m + _CUTOFF_SPAN / lam, 4.0 / lam
    while edges[-1] < end:
        edges.append(edges[-1] + min(edges[-1], width))
    a = np.array(edges)
    half = (a[1:] - a[:-1]) / 2.0
    nodes, weights = _gauss_legendre()
    x = (a[:-1] + half)[:, None] + half[:, None] * nodes
    integral = float(half @ ((x**-alpha * np.exp(-lam * x)) @ weights))
    rising = [1]  # alpha^(i), i = 0..7, multiplied left to right
    for j in range(7):
        rising.append(rising[-1] * (alpha + j))
    inv_m, lam_k, join = [m**-i for i in range(8)], [lam**k for k in range(8)], 0.5
    for c, binomials in zip(_EM_COEFFS, _EM_BINOMIALS):
        o, term = len(binomials) - 1, 0
        for i, b in enumerate(binomials):  # added left to right
            term += b * rising[i] * inv_m[i] * lam_k[o - i]
        join += c * term
    return head + (integral + f * join)


def _tail_likelihood(x_sorted: np.ndarray, log_sorted: np.ndarray, x_min: int):
    """``loglik(alpha, lam)`` of the samples >= x_min, with the tail sums taken once."""
    start = int(np.searchsorted(x_sorted, x_min, side="left"))
    n = x_sorted.size - start
    sum_log = float(log_sorted[start:].sum())
    sum_x = float(x_sorted[start:].sum())

    def loglik(alpha: float, lam: float) -> float:
        z = _norm_constant(alpha, lam, x_min)
        if not np.isfinite(z) or z <= 0.0:
            return -np.inf
        return -alpha * sum_log - lam * sum_x - n * np.log(z)

    return loglik


def _fit_alpha(loglik, lam: float) -> float:
    return _bounded_brent(lambda a: -loglik(a, lam), ALPHA_BOUNDS, xatol=1e-6)[0]


def _coarse_lambda(loglik, alpha: float) -> float:
    """The grid's best lam at this alpha: ``max`` keeps the first, so the smallest on ties."""
    return max(_COARSE_LAMBDAS, key=partial(loglik, alpha))


@dataclass(frozen=True)
class PowerLawFit:
    """Fitted truncated power law. For lam > 0 the cdf reads a cumulative
    table that grows, in doubling chunks, only as far as the largest k asked."""

    alpha: float
    lam: float
    x_min: int

    def __post_init__(self):
        if self.alpha <= 1.0:
            raise ValueError(f"alpha must exceed 1, got {self.alpha}")
        if self.lam < 0.0:
            raise ValueError(f"lam must be non-negative, got {self.lam}")
        if self.x_min < 1:
            raise ValueError(f"x_min must be >= 1, got {self.x_min}")
        if not 0.0 < self.normalization < math.inf:
            raise ValueError(f"the law cannot be normalised: its normalizer is {self.normalization}")

    @cached_property
    def normalization(self) -> float:
        return _norm_constant(self.alpha, self.lam, self.x_min)

    def cdf(self, x) -> float:
        """P(X <= x) for one number x, as a float; 0 below x_min, where the
        fit is not considered valid.

        Values past the table, past int64 or +inf read the top of the
        distribution; NaN raises ValueError and an array raises TypeError.
        """
        if not isinstance(x, (int, float, np.integer, np.floating)):
            raise TypeError(f"cdf takes one number, got {type(x).__name__}")
        x = float(x)
        if math.isnan(x):
            raise ValueError("cdf of NaN")
        if x < self.x_min:
            return 0.0
        k = float(math.floor(x)) if x < math.inf else x
        if self.lam <= 0.0:
            p = 1.0 - _hurwitz_zeta(self.alpha, k + 1.0) / self.normalization
            return min(max(p, 0.0), 1.0)
        size = _table_size(self.lam)
        i = int(min(k - self.x_min, size - 1))
        sums = self.__dict__.get("_sums", _NO_SUMS)
        if i >= sums.size:  # grow in doubling chunks up to the largest k asked
            grown = min(max(i + 1, 2 * sums.size), size)
            sums = self.__dict__["_sums"] = _running_sums(
                self.alpha, self.lam, self.x_min, grown, sums
            )
        return min(max(float(sums[i]) / self.normalization, 0.0), 1.0)


def _table_size(lam: float) -> int:
    """Entries of the cumulative table (lam > 0): k from x_min out to where the
    cutoff has extinguished all but ~1e-15 of the mass; later k read the last."""
    return int(min(np.ceil(_CUTOFF_SPAN / lam), _MAX_TABLE)) + 1


_NO_SUMS = np.empty(0)


def _running_sums(alpha: float, lam: float, x_min: int, size: int, sums=_NO_SUMS) -> np.ndarray:
    """Running sums of k^-alpha e^(-lam k) for the first ``size`` k from x_min.

    ``sums``, the first ``sums.size`` of them, is carried on from its last
    entry: adding it to the next term before the chunk's cumsum keeps the
    sequential order of one ``np.cumsum`` from x_min, so every entry has its bits.
    """
    ks = np.arange(x_min + sums.size, x_min + size, dtype=np.float64)
    terms = ks**-alpha * np.exp(-lam * ks)
    if not sums.size:
        return np.cumsum(terms)
    terms[0] += sums[-1]
    return np.concatenate((sums, np.cumsum(terms)))


def _cumulative(alpha: float, lam: float, x_min: int, z: float, last: int) -> np.ndarray:
    """P(X <= k) for k = x_min .. min(last, the table's last k), lam > 0: the
    entries ``PowerLawFit.cdf`` reads, from the same running sums."""
    size = min(last - x_min + 1, _table_size(lam))
    return np.clip(_running_sums(alpha, lam, x_min, size) / z, 0.0, 1.0)


def fit_truncated_power_law(samples) -> PowerLawFit:
    """Fit (alpha, lam, x_min) to positive-integer samples by MLE.

    Raises ValueError for a sample that is not a positive integer (floats
    pass only when integral).
    Raises InsufficientData for fewer than MIN_SAMPLES samples or fewer than
    MIN_DISTINCT distinct values, and DegenerateSamples when every value is
    equal. Deterministic for a fixed input order.
    """
    values = np.asarray(list(samples))
    with np.errstate(invalid="ignore"):
        x = values.astype(np.int64)
    # Floats are taken only when integral: 2.5 or nan would be cut silently.
    if values.dtype.kind not in "iuf" or not np.array_equal(x, values) or (x.size and x.min() < 1):
        raise ValueError("samples must be positive integers")
    uniq = np.unique(x)
    if uniq.size == 1:
        raise DegenerateSamples(f"all {x.size} samples equal {int(uniq[0])}")
    if x.size < MIN_SAMPLES or uniq.size < MIN_DISTINCT:
        raise InsufficientData(
            f"need >= {MIN_SAMPLES} samples with >= {MIN_DISTINCT} distinct values, "
            f"got {x.size} samples / {uniq.size} distinct"
        )

    x_sorted = np.sort(x)
    log_sorted = np.log(x_sorted.astype(np.float64))
    # Candidates: values that keep >= MIN_TAIL samples in their tail; the smallest keeps all.
    tail_counts = x.size - np.searchsorted(x_sorted, uniq, side="left")
    candidates = uniq[tail_counts >= MIN_TAIL]
    if candidates.size > MAX_CANDIDATES:
        idx = np.linspace(0, candidates.size - 1, MAX_CANDIDATES).round().astype(int)
        candidates = candidates[np.unique(idx)]

    best = None  # (ks, x_min, alpha, lam, loglik)
    for x_min in candidates.tolist():
        loglik = _tail_likelihood(x_sorted, log_sorted, x_min)
        alpha = _fit_alpha(loglik, 0.0)
        lam = _coarse_lambda(loglik, alpha)
        if lam > 0.0:
            alpha = _fit_alpha(loglik, lam)
        ks = _ks_distance(x_sorted, alpha, lam, x_min)
        if best is None or ks < best[0] - 1e-12:
            best = (ks, x_min, alpha, lam, loglik)

    _, x_min, alpha, lam, loglik = best
    if lam > 0.0:
        # The likelihood surface has a narrow (alpha, lam) ridge; a joint
        # simplex polish converges where coordinate ascent crawls.
        def neg_ll(p):
            a = float(np.clip(p[0], *ALPHA_BOUNDS))
            l = float(np.clip(p[1], *LAMBDA_BOUNDS))
            return -loglik(a, l)

        x, fun = _nelder_mead(neg_ll, [alpha, lam], xatol=1e-7, fatol=1e-9, maxiter=500)
        if -fun >= loglik(alpha, lam):
            alpha = float(np.clip(x[0], *ALPHA_BOUNDS))
            lam = float(np.clip(x[1], *LAMBDA_BOUNDS))

    return PowerLawFit(alpha=float(alpha), lam=float(lam), x_min=int(x_min))


def _ks_distance(x_sorted: np.ndarray, alpha: float, lam: float, x_min: int) -> float:
    """Largest gap between the tail's empirical cdf and the law's, at the
    tail's distinct values; the same numbers ``PowerLawFit.cdf`` gives."""
    tail = x_sorted[np.searchsorted(x_sorted, x_min, side="left"):]
    values, counts = np.unique(tail, return_counts=True)
    ecdf = np.cumsum(counts) / tail.size
    z = _norm_constant(alpha, lam, x_min)
    if lam <= 0.0:
        zetas = np.array([_hurwitz_zeta(alpha, v) for v in (values + 1.0).tolist()])
        model = np.clip(1.0 - zetas / z, 0.0, 1.0)
    else:
        prefix = _cumulative(alpha, lam, x_min, z, int(values[-1]))
        model = prefix[np.minimum(values - x_min, prefix.size - 1)]
    return float(np.max(np.abs(ecdf - model)))


# _bounded_brent and _nelder_mead port scipy.optimize's _minimize_scalar_bounded
# and _minimize_neldermead (SciPy 1.17), cut to the settings this fit uses. The
# arithmetic is scipy's, in scipy's order, so every point they evaluate and every
# result has the same bits as minimize_scalar(method="bounded") and
# minimize(method="Nelder-Mead"); importing scipy.optimize would add ~24 MB and
# ~0.4 s to every process that fits. The ported code is under SciPy's license:
#
# Copyright (c) 2001-2002 Enthought, Inc. 2003, SciPy Developers.
# All rights reserved.
#
# Redistribution and use in source and binary forms, with or without
# modification, are permitted provided that the following conditions
# are met:
#
# 1. Redistributions of source code must retain the above copyright
#    notice, this list of conditions and the following disclaimer.
#
# 2. Redistributions in binary form must reproduce the above
#    copyright notice, this list of conditions and the following
#    disclaimer in the documentation and/or other materials provided
#    with the distribution.
#
# 3. Neither the name of the copyright holder nor the names of its
#    contributors may be used to endorse or promote products derived
#    from this software without specific prior written permission.
#
# THIS SOFTWARE IS PROVIDED BY THE COPYRIGHT HOLDERS AND CONTRIBUTORS
# "AS IS" AND ANY EXPRESS OR IMPLIED WARRANTIES, INCLUDING, BUT NOT
# LIMITED TO, THE IMPLIED WARRANTIES OF MERCHANTABILITY AND FITNESS FOR
# A PARTICULAR PURPOSE ARE DISCLAIMED. IN NO EVENT SHALL THE COPYRIGHT
# OWNER OR CONTRIBUTORS BE LIABLE FOR ANY DIRECT, INDIRECT, INCIDENTAL,
# SPECIAL, EXEMPLARY, OR CONSEQUENTIAL DAMAGES (INCLUDING, BUT NOT
# LIMITED TO, PROCUREMENT OF SUBSTITUTE GOODS OR SERVICES; LOSS OF USE,
# DATA, OR PROFITS; OR BUSINESS INTERRUPTION) HOWEVER CAUSED AND ON ANY
# THEORY OF LIABILITY, WHETHER IN CONTRACT, STRICT LIABILITY, OR TORT
# (INCLUDING NEGLIGENCE OR OTHERWISE) ARISING IN ANY WAY OUT OF THE USE
# OF THIS SOFTWARE, EVEN IF ADVISED OF THE POSSIBILITY OF SUCH DAMAGE.

_SQRT_EPS = math.sqrt(2.2e-16)
_GOLDEN_MEAN = 0.5 * (3.0 - math.sqrt(5.0))


def _unit(d: float) -> float:
    """np.sign(d) + (d == 0): -1 below 0, 1 at and above it, NaN at NaN."""
    return -1.0 if d < 0 else 1.0 if d >= 0 else d


def _bounded_brent(func, bounds, xatol: float):
    """(x, func(x)) at the minimum of ``func`` on ``bounds``: Brent's method,
    golden-section steps where a parabolic one is not acceptable, stopping
    once x is known within ``xatol`` or after scipy's cap of 500 evaluations."""
    a, b = bounds
    fulc = a + _GOLDEN_MEAN * (b - a)
    nfc, xf = fulc, fulc
    rat = e = 0.0
    fx = func(xf)
    num = 1
    ffulc = fnfc = fx
    xm = 0.5 * (a + b)
    tol1 = _SQRT_EPS * abs(xf) + xatol / 3.0
    tol2 = 2.0 * tol1
    while abs(xf - xm) > (tol2 - 0.5 * (b - a)):
        golden = True
        if abs(e) > tol1:  # try a parabola through the last three points
            golden = False
            r = (xf - nfc) * (fx - ffulc)
            q = (xf - fulc) * (fx - fnfc)
            p = (xf - fulc) * q - (xf - nfc) * r
            q = 2.0 * (q - r)
            if q > 0.0:
                p = -p
            q = abs(q)
            r = e
            e = rat
            if abs(p) < abs(0.5 * q * r) and p > q * (a - xf) and p < q * (b - xf):
                rat = (p + 0.0) / q
                x = xf + rat
                if (x - a) < tol2 or (b - x) < tol2:
                    rat = tol1 * _unit(xm - xf)
            else:
                golden = True
        if golden:
            e = a - xf if xf >= xm else b - xf
            rat = _GOLDEN_MEAN * e
        x = xf + _unit(rat) * max(abs(rat), tol1)
        fu = func(x)
        num += 1
        if fu <= fx:
            if x >= xf:
                a = xf
            else:
                b = xf
            fulc, ffulc = nfc, fnfc
            nfc, fnfc = xf, fx
            xf, fx = x, fu
        else:
            if x < xf:
                a = x
            else:
                b = x
            if fu <= fnfc or nfc == xf:
                fulc, ffulc = nfc, fnfc
                nfc, fnfc = x, fu
            elif fu <= ffulc or fulc == xf or fulc == nfc:
                fulc, ffulc = x, fu
        xm = 0.5 * (a + b)
        tol1 = _SQRT_EPS * abs(xf) + xatol / 3.0
        tol2 = 2.0 * tol1
        if num >= 500:
            break
    return xf, fx


def _nelder_mead(func, x0, xatol: float, fatol: float, maxiter: int):
    """(x, func(x)) at the best vertex of a Nelder-Mead simplex (standard,
    non-adaptive coefficients) started at ``x0``: it stops once every vertex
    is within ``xatol`` of the best and every value within ``fatol``, or after
    ``maxiter`` iterations. ``func`` gets each point as a fresh float64 array."""
    rho, chi, psi, sigma = 1, 2, 0.5, 0.5
    x0 = np.asarray(x0, dtype=np.float64)
    n = x0.size
    sim = np.empty((n + 1, n))
    sim[0] = x0
    for k in range(n):
        y = x0.copy()
        y[k] = (1 + 0.05) * y[k] if y[k] != 0 else 0.00025
        sim[k + 1] = y
    fsim = np.full(n + 1, np.inf)
    for k in range(n + 1):
        fsim[k] = func(np.copy(sim[k]))
    for _ in range(2):  # as scipy does: argsort need not keep ties in place
        ind = np.argsort(fsim)
        sim, fsim = np.take(sim, ind, 0), np.take(fsim, ind, 0)
    iterations = 1
    while iterations < maxiter:
        if (np.max(np.ravel(np.abs(sim[1:] - sim[0]))) <= xatol
                and np.max(np.abs(fsim[0] - fsim[1:])) <= fatol):
            break
        xbar = np.add.reduce(sim[:-1], 0) / n
        xr = (1 + rho) * xbar - rho * sim[-1]
        fxr = func(np.copy(xr))
        if fxr < fsim[0]:
            xe = (1 + rho * chi) * xbar - rho * chi * sim[-1]
            fxe = func(np.copy(xe))
            sim[-1], fsim[-1] = (xe, fxe) if fxe < fxr else (xr, fxr)
        elif fxr < fsim[-2]:
            sim[-1], fsim[-1] = xr, fxr
        else:
            if fxr < fsim[-1]:  # contract outside
                xc = (1 + psi * rho) * xbar - psi * rho * sim[-1]
                fxc = func(np.copy(xc))
                accept = fxc <= fxr
            else:  # contract inside
                xc = (1 - psi) * xbar + psi * sim[-1]
                fxc = func(np.copy(xc))
                accept = fxc < fsim[-1]
            if accept:
                sim[-1], fsim[-1] = xc, fxc
            else:  # shrink toward the best vertex
                for j in range(1, n + 1):
                    sim[j] = sim[0] + sigma * (sim[j] - sim[0])
                    fsim[j] = func(np.copy(sim[j]))
        iterations += 1
        ind = np.argsort(fsim)
        sim, fsim = np.take(sim, ind, 0), np.take(fsim, ind, 0)
    return sim[0], np.min(fsim)
