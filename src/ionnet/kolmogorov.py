"""Two-sided one-sample Kolmogorov-Smirnov distribution, P(D_n >= d).

Nothing in the package calls ``ks_sf`` now: the herald-rate check
(``fitting.fit_exponential_rate``) fits the rate to the same waiting
times, so this known-parameter null is the wrong one for it, and it
uses Stephens' estimated-scale statistic instead. The module stays,
held against ``scipy.stats.kstwo`` by its tests, until its removal on
the ROADMAP.

``ks_sf`` picks a method by n and n d^2 as Simard & L'Ecuyer (2011)
do: the exact Ruben-Gambino limits near both ends of the support, the
exact Birnbaum-Tingey sum for the one-sided statistic (twice it is
P(D_n >= d) exactly for d >= 1/2, and to double precision once n d^2 is
large), Durbin's matrix for small n d^2, and the Pelz-Good series for
large n at moderate n d^2. Durbin's matrix also covers the band where
Simard & L'Ecuyer use Pomeranz's recursion (n <= 140, n d^2 <= 4).

References: Durbin (1968), Ann. Math. Stat. 39, 398; Pelz & Good
(1976), J. R. Stat. Soc. B 38, 152; Marsaglia, Tsang & Wang (2003),
J. Stat. Softw. 8(18); Simard & L'Ecuyer (2011), J. Stat. Softw.
39(11).

The method selection, Durbin's matrix and the Pelz-Good series follow
scipy.stats._ksstats, under this notice:

    Copyright (c) 2001-2002 Enthought, Inc. 2003, SciPy Developers.
    All rights reserved.

    Redistribution and use in source and binary forms, with or without
    modification, are permitted provided that the following conditions
    are met:

    1. Redistributions of source code must retain the above copyright
       notice, this list of conditions and the following disclaimer.

    2. Redistributions in binary form must reproduce the above
       copyright notice, this list of conditions and the following
       disclaimer in the documentation and/or other materials provided
       with the distribution.

    3. Neither the name of the copyright holder nor the names of its
       contributors may be used to endorse or promote products derived
       from this software without specific prior written permission.

    THIS SOFTWARE IS PROVIDED BY THE COPYRIGHT HOLDERS AND CONTRIBUTORS
    "AS IS" AND ANY EXPRESS OR IMPLIED WARRANTIES, INCLUDING, BUT NOT
    LIMITED TO, THE IMPLIED WARRANTIES OF MERCHANTABILITY AND FITNESS FOR
    A PARTICULAR PURPOSE ARE DISCLAIMED. IN NO EVENT SHALL THE COPYRIGHT
    OWNER OR CONTRIBUTORS BE LIABLE FOR ANY DIRECT, INDIRECT, INCIDENTAL,
    SPECIAL, EXEMPLARY, OR CONSEQUENTIAL DAMAGES (INCLUDING, BUT NOT
    LIMITED TO, PROCUREMENT OF SUBSTITUTE GOODS OR SERVICES; LOSS OF USE,
    DATA, OR PROFITS; OR BUSINESS INTERRUPTION) HOWEVER CAUSED AND ON ANY
    THEORY OF LIABILITY, WHETHER IN CONTRACT, STRICT LIABILITY, OR TORT
    (INCLUDING NEGLIGENCE OR OTHERWISE) ARISING IN ANY WAY OUT OF THE USE
    OF THIS SOFTWARE, EVEN IF ADVISED OF THE POSSIBILITY OF SUCH DAMAGE.
"""

from __future__ import annotations

import math

import numpy as np

__all__ = ["ks_sf"]

_LOG_2PI = math.log(2.0 * math.pi)
_PI2 = math.pi**2
_SQRT2PI = math.sqrt(2.0 * math.pi)

# Stirling series of log(x!) - ((x + 1/2) log x - x + log(2 pi) / 2):
# B_2j / (2j (2j - 1)) for j = 8, ..., 1, in powers of 1/x^2 after a
# factor 1/x. Its truncation error is below 2e-18 from x = 10 on; below
# that the remainder is tabulated.
_STIRLING_COEFFS = (
    -2.955065359477124183e-2, 6.4102564102564102564e-3,
    -1.9175269175269175269e-3, 8.4175084175084175084e-4,
    -5.952380952380952381e-4, 7.9365079365079365079e-4,
    -2.7777777777777777778e-3, 8.3333333333333333333e-2,
)
_STIRLING_FROM = 10
_STIRLING_SMALL = np.array(
    [math.lgamma(x + 1.0) - ((x + 0.5) * math.log(x) - x + 0.5 * _LOG_2PI) for x in range(1, _STIRLING_FROM)]
)


def _stirling_remainder(x):
    """log(x!) - ((x + 1/2) log x - x + log(2 pi) / 2) for integers x >= 1."""
    x = np.asarray(x, dtype=float)
    r = 1.0 / np.maximum(x, _STIRLING_FROM)
    series = r * np.polyval(_STIRLING_COEFFS, r * r)
    small = _STIRLING_SMALL[np.clip(x.astype(int), 1, _STIRLING_FROM - 1) - 1]
    return np.where(x < _STIRLING_FROM, small, series)


def _log_factorial_over_power(n: int) -> float:
    """log(n! / n^n)."""
    return 0.5 * math.log(n) - n + 0.5 * _LOG_2PI + float(_stirling_remainder(n))


def _smirnov_sf(n: int, d: float) -> float:
    """P(D_n^+ >= d) for 1/n < d < 1, the Birnbaum-Tingey sum.

    Term j is C(n, j) (d + j/n)^(j-1) (1 - d - j/n)^(n-j). With the
    binomial in Stirling form the n log n parts cancel analytically, so
    every log term is of the size of n d and the sum keeps double
    precision at any n.
    """
    t = n * d
    j = np.arange(1.0, math.ceil(n - t))  # every j >= 1 with a nonzero term
    rest = n - j
    log_terms = (
        j * np.log1p(t / j)
        + rest * np.log1p(-t / rest)
        - np.log((t + j) / n)
        + 0.5 * np.log(n / (2.0 * math.pi * j * rest))
        + _stirling_remainder(n)
        - _stirling_remainder(j)
        - _stirling_remainder(rest)
    )
    log_terms = np.append(log_terms, n * math.log1p(-d) - math.log(d))  # j = 0
    top = float(log_terms.max())
    return math.exp(math.log(d) + top + math.log(float(np.exp(log_terms - top).sum())))


def _rescaled(a: np.ndarray) -> tuple[np.ndarray, int]:
    """``a`` divided by a power of two that brings its largest entry below 1."""
    exponent = math.frexp(float(np.abs(a).max()))[1]
    return np.ldexp(a, -exponent), exponent


def _durbin_cdf(n: int, d: float) -> float:
    """P(D_n < d) from Durbin's matrix, raised to the n-th power by
    squaring as Marsaglia, Tsang & Wang (2003) do; powers carry a binary
    exponent so they neither overflow nor underflow."""
    t = n * d
    k = math.ceil(t)
    h = k - t
    m = 2 * k - 1
    inv_factorial = np.concatenate(([1.0], np.cumprod(1.0 / np.arange(1, m + 1))))  # 1/i!, i = 0..m
    i = np.arange(m)
    lag = i[:, None] - i[None, :] + 1
    mat = np.where(lag >= 0, inv_factorial[np.clip(lag, 0, m)], 0.0)
    v = (1.0 - h ** np.arange(1, m + 1)) * inv_factorial[1:]
    v[-1] = (1.0 + max(2.0 * h - 1.0, 0.0) ** m - 2.0 * h**m) * inv_factorial[m]
    mat[:, 0] = v
    mat[-1, :] = v[::-1]

    result, result_exp = np.eye(m), 0
    power, power_exp = mat, 0
    remaining = n
    while True:
        if remaining & 1:
            result, e = _rescaled(result @ power)
            result_exp += power_exp + e
        remaining >>= 1
        if not remaining:
            break
        power, e = _rescaled(power @ power)
        power_exp = 2 * power_exp + e
    log_cdf = math.log(result[k - 1, k - 1]) + result_exp * math.log(2.0) + _log_factorial_over_power(n)
    return math.exp(log_cdf)


def _pelz_good_cdf(n: int, d: float) -> float:
    """P(D_n < d) from the Pelz-Good series in z = sqrt(n) d."""
    z = math.sqrt(n) * d
    z2 = z * z
    z4, z6 = z2 * z2, z2 * z2 * z2
    qlog = -_PI2 / (8.0 * z2)
    if qlog < -708.0:
        return 0.0
    k = np.arange(1.0, math.ceil(16.0 * z / math.pi) + 1.0)
    m2 = (2.0 * k - 1.0) ** 2
    q = np.exp(qlog * m2)
    coeffs = (
        np.ones_like(m2),
        -z2 + _PI2 / 4.0 * m2,
        6.0 * z6 + 2.0 * z4 + (2.0 * z4 - 5.0 * z2) * _PI2 / 4.0 * m2
        + _PI2**2 * (1.0 - 2.0 * z2) / 16.0 * m2**2,
        -30.0 * z6 - 90.0 * z**8 + _PI2 * (135.0 * z4 - 96.0 * z6) / 4.0 * m2
        + _PI2**2 * (212.0 * z4 - 60.0 * z2) / 16.0 * m2**2
        + _PI2**3 * (5.0 - 30.0 * z2) / 64.0 * m2**3,
    )
    scales = (z, 6.0 * z4, 72.0 * z**7, 6480.0 * z**10)
    terms = [_SQRT2PI * float(c @ q) / scale for c, scale in zip(coeffs, scales)]
    k2 = k * k
    q_all = np.exp(-_PI2 / (2.0 * z2) * k2)
    terms[2] += float(k2 @ q_all) * _PI2 * _SQRT2PI / (-36.0 * z**3)
    terms[3] += float(((3.0 * z2 - _PI2 * k2) * k2) @ q_all) * _PI2 * _SQRT2PI / (216.0 * z6)
    return sum(term / n ** (power / 2.0) for power, term in enumerate(terms))


def ks_sf(n: int, d: float) -> float:
    """P(D_n >= d) for the two-sided one-sample KS statistic of n samples."""
    t = n * d
    n_d2 = t * d
    if d >= 1.0:
        sf = 0.0
    elif t <= 0.5:
        sf = 1.0
    elif t <= 1.0:  # Ruben-Gambino: P(D_n < d) = n! / n^n (2 t - 1)^n
        sf = 1.0 - math.exp(_log_factorial_over_power(n) + n * math.log(2.0 * t - 1.0))
    elif t >= n - 1:  # Ruben-Gambino
        sf = 2.0 * (1.0 - d) ** n
    elif d >= 0.5 or (n <= 140 and n_d2 > 4.0) or (n > 140 and 2.2 <= n_d2 < 370.0):
        sf = 2.0 * _smirnov_sf(n, d)
    elif n > 140 and n_d2 >= 370.0:
        sf = 0.0
    elif n <= 140 or (n <= 100000 and n * d**1.5 <= 1.4):
        sf = 1.0 - _durbin_cdf(n, d)
    else:
        sf = 1.0 - _pelz_good_cdf(n, d)
    return min(max(sf, 0.0), 1.0)
