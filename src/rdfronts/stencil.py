"""The conservative-flux stencil w -> exp(lam x) (sigma (exp(-lam x) w)_x)_x,
shared by eigen and pde: flux_parts gives its lambda-independent parts,
tilted_couplings its couplings at one lambda and coo_pattern the positions of
its entries.  sigma is taken once per face (face_sigma), so the untilted
matrix is exactly symmetric.  boundary is "periodic", "neumann" (zero end
fluxes) or "dirichlet_zero" (zero ghosts)."""

from __future__ import annotations

import math
from typing import Tuple

import numpy as np

from .coefficients import CoefficientSet, CoefficientSpec
from .errors import ValidationError


def _harmonic_cell_means(spec: CoefficientSpec, left: np.ndarray, h: float) -> np.ndarray:
    """((1/h) int_a^{a+h} 1/spec)^-1 for each a in left, in closed form for a
    piecewise-constant spec.  A cell inside one piece gets its value exactly."""
    L = spec.period
    b = np.asarray(spec.breakpoints)
    v = np.asarray(spec.values, dtype=float)
    widths = np.diff(np.append(b, L))
    cum = np.concatenate([[0.0], np.cumsum(widths / v)])     # int_0^{b_j} 1/spec

    def piece_and_integral(x):
        """The piece holding x, and int_0^x 1/spec (periodically extended)."""
        turns = np.floor(x / L)
        y = x - turns * L
        j = np.searchsorted(b, y, side="right") - 1
        return j, turns, turns * cum[-1] + cum[j] + (y - b[j]) / v[j]

    j0, t0, f0 = piece_and_integral(left)
    j1, t1, f1 = piece_and_integral(left + h)
    inside = (j0 == j1) & (t0 == t1)
    return np.where(inside, v[j0], h / np.where(inside, 1.0, f1 - f0))


def face_sigma(cs: CoefficientSet, nodes: np.ndarray, h: float, boundary: str) -> np.ndarray:
    """sigma once per face: on face i between nodes i and i+1 (n faces, the
    last one wrapping) when periodic, else on the n+1 faces from x_0 - h/2 to
    x_{n-1} + h/2.

    Smooth kinds are sampled at the face midpoint.  A piecewise-constant sigma
    gets the harmonic mean ((1/h) int_{x_i}^{x_{i+1}} 1/sigma)^-1 over the cell
    between the face's two nodes, the second-order conservative value for a
    jump that falls between nodes (Tikhonov-Samarskii).
    """
    left = nodes if boundary == "periodic" else np.append(nodes[0] - h, nodes)
    if cs.sigma.kind == "piecewise_constant":
        return _harmonic_cell_means(cs.sigma, left, h)
    return cs.sigma(left + 0.5 * h)


def check_spacing(h: float) -> None:
    """Every stencil entry divides by h**2: a spacing whose square underflows
    to 0 or overflows is a ValidationError."""
    if not 0.0 < float(h) * float(h) < math.inf:
        raise ValidationError(f"grid spacing h={float(h)!r} has no finite nonzero square")


def flux_parts(cs: CoefficientSet, nodes: np.ndarray, h: float, boundary: str
               ) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The lambda-independent parts of the stencil: (diag, up, down).

    diag holds the diagonal entries, up and down the face sigma of the
    couplings to node i+1 and to node i-1 (n of each when periodic, n-1
    otherwise), which tilted_couplings turns into entries.  A spacing h whose
    square underflows to 0 or overflows is rejected before any division, and
    a sigma so large that the diagonal is not finite after it.
    """
    if boundary not in ("periodic", "neumann", "dirichlet_zero"):
        raise ValidationError(f"unknown boundary kind {boundary!r}")
    check_spacing(h)
    faces = face_sigma(cs, nodes, h, boundary)
    if boundary == "periodic":
        sig_right, sig_left = faces, np.roll(faces, 1)
    else:
        if boundary == "neumann":
            faces[[0, -1]] = 0.0
        sig_right, sig_left = faces[1:], faces[:-1]
    with np.errstate(over="ignore"):                 # an overflow is rejected just below
        diag = -(sig_right + sig_left) / h ** 2
    if not np.isfinite(diag).all():
        raise ValidationError(f"diffusion entries sigma/h**2 are not finite at h={float(h)!r}")
    if boundary == "periodic":
        return diag, sig_right, sig_left
    return diag, sig_right[:-1], sig_left[1:]


def coo_pattern(n: int, boundary: str) -> Tuple[np.ndarray, np.ndarray]:
    """(rows, cols) of the stencil's entries on n nodes, in the order of
    np.concatenate([diag, up, down]) from flux_parts: the diagonal in node
    order, then the couplings to node i+1, then those to node i-1."""
    i = np.arange(n)
    if boundary == "periodic":
        return np.concatenate([i, i, i]), np.concatenate([i, (i + 1) % n, (i - 1) % n])
    return np.concatenate([i, i[:-1], i[1:]]), np.concatenate([i, i[1:], i[:-1]])


def tilted_couplings(up: np.ndarray, down: np.ndarray, h: float,
                     lam: float) -> Tuple[np.ndarray, np.ndarray]:
    """The off-diagonal entries of the stencil from the face sigma of its
    couplings: up towards node i+1 scaled by exp(-lam h), down towards node
    i-1 by exp(lam h), so they stay positive."""
    return up * np.exp(-lam * h) / h ** 2, down * np.exp(lam * h) / h ** 2

