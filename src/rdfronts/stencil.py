"""The conservative-flux stencil of (sigma w_x)_x, shared by eigen and pde."""

from __future__ import annotations

from typing import Tuple

import numpy as np

from .coefficients import CoefficientSet
from .errors import ValidationError


def flux_stencil(cs: CoefficientSet, nodes: np.ndarray, h: float, boundary: str,
                 lam: float = 0.0) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
    """COO triplets (rows, cols, data) of w -> exp(lam x) (sigma (exp(-lam x) w)_x)_x.

    sigma is sampled at the faces x_i +- h/2; the tilt scales the coupling to
    node i+1 by exp(-lam h) and to node i-1 by exp(lam h), so off-diagonals
    stay positive.  The n diagonal entries come first, in node order, then
    the couplings to node i+1, then those to node i-1.
    boundary is "periodic", "neumann" (zero flux through the end faces) or
    "dirichlet"/"dirichlet_zero" (zero ghost values beyond the end nodes).
    """
    n = len(nodes)
    sig_right = cs.sigma(nodes + 0.5 * h)        # sigma at i+1/2
    sig_left = cs.sigma(nodes - 0.5 * h)         # sigma at i-1/2
    sup = sig_right * np.exp(-lam * h) / h ** 2  # couples node i to i+1
    sub = sig_left * np.exp(lam * h) / h ** 2    # couples node i to i-1
    diag = -(sig_right + sig_left) / h ** 2
    i = np.arange(n)
    if boundary == "periodic":
        return (np.concatenate([i, i, i]),
                np.concatenate([i, (i + 1) % n, (i - 1) % n]),
                np.concatenate([diag, sup, sub]))
    if boundary == "neumann":
        diag[0] += sig_left[0] / h ** 2
        diag[-1] += sig_right[-1] / h ** 2
    elif boundary not in ("dirichlet", "dirichlet_zero"):
        raise ValidationError(f"unknown boundary kind {boundary!r}")
    return (np.concatenate([i, i[:-1], i[1:]]),
            np.concatenate([i, i[1:], i[:-1]]),
            np.concatenate([diag, sup[:-1], sub[1:]]))
