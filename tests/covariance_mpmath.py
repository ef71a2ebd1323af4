"""High-precision oracle for the continuous second moments, in mpmath.

The covariance generator on (var_x, cov_xy, var_y, 1) is upper bidiagonal
with diagonal -2 lam, -(lam + lam/eps), -2 lam/eps, 0 and superdiagonal
2c, c, 2/eps, so exp(T G)_ij = (superdiagonal i..j-1) T^(j-i) f[z_i..z_j]
with f = exp and z = T * diagonal.  Each divided difference is summed here
from its textbook form sum_i e^(z_i) / prod_(k != i) (z_i - z_k), which
cancels badly for close nodes; the precision is therefore raised until the
digits lost to cancellation leave at least 25 correct ones.  It shares with
`slowfast.moments` only the bidiagonal structure, not the evaluation.
"""

import mpmath as mp

START_DPS = 60
SPARE_DIGITS = 25
CONFLUENT_SHIFT = mp.mpf(10) ** -40  # eps = 1 is taken at 1 + 1e-40: see below


def _divided_difference(nodes):
    """(f[nodes], digits lost to cancellation) for f = exp and distinct nodes."""
    total, size = mp.mpf(0), mp.mpf(0)
    for i, zi in enumerate(nodes):
        term = mp.exp(zi)
        for k, zk in enumerate(nodes):
            if k != i:
                term /= zi - zk
        total += term
        size += abs(term)
    if total == 0:  # everything cancelled: too few digits to tell
        return total, mp.inf
    return total, mp.log10(size / abs(total))


def mp_second_moments(lam, c, eps, T, var_x, cov_xy, var_y):
    """((var_x, cov_xy, var_y), scales) at time T as floats, from float inputs.

    scales[i] is the sum of the magnitudes of the terms of output i; it
    equals the output's own magnitude when no term cancels (a zero start,
    for instance).  At eps = 1 the three decay nodes coincide and the
    textbook form divides by zero, so eps is shifted by 1e-40: a divided
    difference is analytic in its nodes, so this moves the result by about
    1e-40 times the largest node, far below double rounding.
    """
    dps = START_DPS
    while True:
        with mp.workdps(dps):
            L, C, E, TT = (mp.mpf(v) for v in (lam, c, eps, T))
            if E == 1:
                E += CONFLUENT_SHIFT
            diag = [-2 * L * TT, -(L + L / E) * TT, -2 * L / E * TT, mp.mpf(0)]
            sup = [2 * C * TT, C * TT, 2 / E * TT]
            start = [mp.mpf(var_x), mp.mpf(cov_xy), mp.mpf(var_y), mp.mpf(1)]
            worst_loss = 0
            values, scales = [], []
            for i in range(3):
                terms = [mp.exp(diag[i]) * start[i]]
                weight = mp.mpf(1)
                for j in range(i + 1, 4):
                    weight *= sup[j - 1]
                    dd, loss = _divided_difference(diag[i:j + 1])
                    worst_loss = max(worst_loss, loss)
                    terms.append(weight * dd * start[j])
                values.append(float(mp.fsum(terms)))
                scales.append(float(mp.fsum(abs(t) for t in terms)))
            if worst_loss <= dps - SPARE_DIGITS:
                return tuple(values), tuple(scales)
        dps *= 2
