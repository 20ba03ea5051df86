"""Spatially correlated weight vectors.

Section 4.1 correlates each update trace's spatial distribution with
the query distribution at coefficient ±0.8.  We construct weight
vectors whose *sample* Pearson correlation with the reference histogram
is exactly the target (up to integer-rounding of counts downstream),
using the classic Gram–Schmidt construction: standardize the reference,
orthogonalize fresh Gaussian noise against it, and mix with weights
``(rho, sqrt(1 - rho^2))``.
"""

from __future__ import annotations

import math
import random
from typing import List, Sequence

from repro.sim.stats import ordered_sum


def pearson(xs: Sequence[float], ys: Sequence[float]) -> float:
    """Sample Pearson correlation coefficient.

    Returns 0.0 when either vector is constant (correlation undefined).
    """
    n = len(xs)
    if n != len(ys):
        raise ValueError("vectors must have equal length")
    if n < 2:
        return 0.0
    mean_x = ordered_sum(xs) / n
    mean_y = ordered_sum(ys) / n
    cov = ordered_sum((x - mean_x) * (y - mean_y) for x, y in zip(xs, ys))
    var_x = ordered_sum((x - mean_x) ** 2 for x in xs)
    var_y = ordered_sum((y - mean_y) ** 2 for y in ys)
    if var_x <= 0 or var_y <= 0:
        return 0.0
    return cov / math.sqrt(var_x * var_y)


def _standardize(values: Sequence[float]) -> List[float]:
    n = len(values)
    mean = ordered_sum(values) / n
    centered = [value - mean for value in values]
    norm = math.sqrt(ordered_sum(value * value for value in centered))
    if norm == 0:
        raise ValueError("reference vector is constant; correlation is undefined")
    return [value / norm for value in centered]


def correlated_weights(
    reference: Sequence[float],
    rho: float,
    rng: random.Random,
) -> List[float]:
    """Non-negative weights with sample correlation ``rho`` to ``reference``.

    The construction: ``x = rho * z + sqrt(1 - rho^2) * e`` where ``z``
    is the standardized reference and ``e`` is unit Gaussian noise made
    exactly orthogonal to both ``z`` and the constant vector.  Because
    Pearson correlation is invariant under the positive affine shift we
    apply to make the weights non-negative, ``pearson(weights,
    reference) == rho`` to floating-point precision.

    Args:
        reference: The histogram to correlate against (e.g. per-item
            query access counts).  Must not be constant.
        rho: Target correlation in ``[-1, 1]``.
        rng: Source of the noise component.

    Returns:
        A list of non-negative weights (minimum 0), same length as
        ``reference``.
    """
    if not -1.0 <= rho <= 1.0:
        raise ValueError("rho must be in [-1, 1]")
    n = len(reference)
    if n < 3:
        raise ValueError("need at least 3 items to build a correlated vector")

    z = _standardize(reference)

    # Draw noise, center it, remove its projection on z, normalize.
    noise = [rng.gauss(0.0, 1.0) for _ in range(n)]
    mean_noise = ordered_sum(noise) / n
    noise = [value - mean_noise for value in noise]
    dot = ordered_sum(nv * zv for nv, zv in zip(noise, z))
    noise = [nv - dot * zv for nv, zv in zip(noise, z)]
    norm = math.sqrt(ordered_sum(value * value for value in noise))
    if norm == 0:  # astronomically unlikely; retry deterministically
        return correlated_weights(reference, rho, rng)
    noise = [value / norm for value in noise]

    mix = math.sqrt(max(0.0, 1.0 - rho * rho))
    x = [rho * zv + mix * nv for zv, nv in zip(z, noise)]

    # Positive affine shift: weight floor at zero.
    low = min(x)
    return [value - low for value in x]
