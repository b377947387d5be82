"""Axis observation extraction from tri-axis images.

Two variants share one moment-based pipeline and one contract: each takes
only a batch (B, H, W, 3) and returns one AxisObservation (``camera.py``)
for it, in which a failed image raises nothing: its rows are nan and its
exception is in its slot of the observation's errors.

* ``extract_axes_hard`` thresholds the batch, widened to float64, at 0.5
  and is used at inference time.
* ``extract_axes_soft`` replaces the threshold with a graded sigmoid
  weight so that every output is a smooth function of every pixel, and
  ``soft_extract_vjp`` is its hand-derived adjoint; the sampling-time
  guidance gradient uses both. The forward also returns the state that the
  adjoint reads; the adjoint takes the cotangent as plain arrays
  (d_origin, d_dir, d_centroid).

Per channel: weighted mean, principal eigenvector of the 2x2 second-moment
matrix, then a least-squares intersection of the three lines gives the
origin. Directions are sign-corrected to point from the origin toward the
channel mass. The second-moment terms a - c, 2b and a + c are formed once,
in ``_Moments``. The pipeline works on a leading batch axis throughout, so
a batch of images costs a fixed number of array operations. Full-image
passes run in the images' dtype; the per-channel moments are float64.
"""

from __future__ import annotations

import math
from functools import lru_cache
from typing import NamedTuple

import numpy as np

from .camera import AxisObservation
from .errors import DegenerateChannel, EmptyChannel, NoIntersection, VanishingMass
from .render import _pixel_grid, float_array

MIN_HARD_PIXELS = 8
SOFT_MASS_FLOOR = 1e-6
EIGEN_RATIO_FLOOR = 4.0
_INTERSECT_DET_FLOOR = 1e-6


@lru_cache(maxsize=8)
def _basis(h: int, w: int, dtype=np.float64) -> np.ndarray:
    """Monomials (1, u, v, uu, uv, vv) of the pixel coordinates, (H*W, 6),
    in dtype; below 4096 px a side each is an integer that float32 holds
    exactly."""
    px = _pixel_grid(h, w)
    u, v = px[..., 0].ravel(), px[..., 1].ravel()
    basis = np.stack([np.ones_like(u), u, v, u * u, u * v, v * v], axis=1).astype(dtype)
    basis.flags.writeable = False
    return basis


class _Moments:
    """Weighted moments of the three channels of each image in a batch of
    weight images (B, H, W, 3), from one product per image with the
    coordinate monomials in the images' dtype; each per-channel quantity is
    a float64 (B, 3) array, and the pullback is an image in that dtype.
    Beside the central moments a, b, c it keeps x = a - c, y = 2b and
    trace = a + c for every reader: the principal axis is at angle
    atan2(y, x) / 2 and the eigenvalues are (trace +- hypot(x, y)) / 2."""

    def __init__(self, w: np.ndarray):
        self.shape = w.shape
        self.basis = _basis(*w.shape[1:3], w.dtype)
        raw = (np.swapaxes(w.reshape(len(w), -1, 3), 1, 2) @ self.basis).astype(float)  # (B, 3, 6)
        self.mass = raw[..., 0]
        with np.errstate(invalid="ignore", divide="ignore"):  # empty channels are rejected by the caller
            self.mean = raw[..., 1:3] / self.mass[..., None]
            mu, mv = self.mean[..., 0], self.mean[..., 1]
            self.a = raw[..., 3] / self.mass - mu * mu
            self.b = raw[..., 4] / self.mass - mu * mv
            self.c = raw[..., 5] / self.mass - mv * mv
        self.x, self.y, self.trace = self.a - self.c, 2.0 * self.b, self.a + self.c
        theta = 0.5 * np.arctan2(self.y, self.x)
        self.e = np.stack([np.cos(theta), np.sin(theta)], axis=-1)  # principal axes, (B, 3, 2)

    def pullback(self, d_mass, d_mean, d_a, d_b, d_c) -> np.ndarray:
        """Weight-image gradient, (B, H, W, 3), of a loss with the given
        cotangents of mass, mean and the central moments a, b, c."""
        mu, mv = self.mean[..., 0], self.mean[..., 1]
        # per pixel p = (u, v): d mean/dw = (p - mean)/m, d a/dw = ((u - mu)^2 - a)/m,
        # d b/dw = ((u - mu)(v - mv) - b)/m, d c/dw = ((v - mv)^2 - c)/m and
        # d mass/dw = 1, so the gradient is a quadratic in (u, v) per channel
        const = (
            -d_mean[..., 0] * mu
            - d_mean[..., 1] * mv
            + d_a * (mu * mu - self.a)
            + d_b * (mu * mv - self.b)
            + d_c * (mv * mv - self.c)
        )
        g_u = d_mean[..., 0] - 2 * mu * d_a - mv * d_b
        g_v = d_mean[..., 1] - mu * d_b - 2 * mv * d_c
        coeff = np.stack([const, g_u, g_v, d_a, d_b, d_c], axis=1) / self.mass[:, None]  # (B, 6, 3)
        coeff[:, 0] += d_mass
        return (self.basis @ coeff.astype(self.basis.dtype)).reshape(self.shape)


def _intersect(m: _Moments) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Least-squares intersection of each image's three principal lines, the
    normal matrices A = sum(I - e_i e_i^T) of the solves, and a mask of the
    images whose lines are mutually parallel. Those images get A = I, so
    that the batched solve stays defined; their origins mean nothing."""
    e_t = np.swapaxes(m.e, 1, 2)
    A = 3.0 * np.eye(2) - e_t @ m.e
    with np.errstate(invalid="ignore"):  # nan moments give a nan origin, not an error
        parallel = np.abs(np.linalg.det(A)) < _INTERSECT_DET_FLOOR
    A[parallel] = np.eye(2)
    r = m.mean.sum(axis=1) - (e_t @ np.einsum("bik,bik->bi", m.e, m.mean)[..., None])[..., 0]
    return np.linalg.solve(A, r[..., None])[..., 0], A, parallel


def _observe(
    m: _Moments, bad: np.ndarray, channel_error
) -> tuple[AxisObservation, np.ndarray, np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """The batch's AxisObservation from its channel moments, then its origins,
    centroids, direction signs, normal matrices and failed-image mask. bad
    (B, 3) flags failing channels: image b fails with channel_error(b, i) for
    its first flagged channel i, or else with NoIntersection if its lines are
    parallel. A failed image's rows are nan."""
    origin, A, parallel = _intersect(m)
    sign = np.where(np.einsum("bik,bik->bi", m.e, m.mean - origin[:, None]) >= 0, 1.0, -1.0)
    centroid = (m.mass[:, None] @ m.mean)[:, 0] / m.mass.sum(axis=1, keepdims=True)
    failed = bad.any(axis=1) | parallel
    errors: list[Exception | None] = [None] * len(failed)
    for b in np.flatnonzero(failed):
        i = int(np.argmax(bad[b]))  # the first failing channel, if any
        errors[b] = channel_error(b, i) if bad[b, i] else NoIntersection("axis lines are mutually parallel")
    nan_rows = failed[:, None]
    obs = AxisObservation(
        origin_px=np.where(nan_rows, np.nan, origin),
        dir=np.where(nan_rows[..., None], np.nan, sign[..., None] * m.e),
        centroid=np.where(nan_rows, np.nan, centroid),
        errors=errors,
    )
    return obs, origin, centroid, sign, A, failed


def extract_axes_hard(images: np.ndarray) -> AxisObservation:
    """Deterministic extraction of a batch of tri-axis images (B, H, W, 3),
    widened to float64: intensity weights thresholded at 0.5.

    An image fails with EmptyChannel for a channel with fewer than
    MIN_HARD_PIXELS pixels above threshold or DegenerateChannel for a
    channel whose moment eigen-ratio is below EIGEN_RATIO_FLOOR (a blob, not
    a segment), for the first such channel in order, or else NoIntersection.
    """
    data = np.asarray(images, dtype=float)
    if data.ndim != 4:
        raise ValueError(f"hard extraction takes a batch (B, H, W, 3), not shape {data.shape}")
    mask = data > 0.5
    m = _Moments(data * mask)
    half, mid = np.hypot(m.x, m.y) / 2.0, m.trace / 2.0
    lam_max, lam_min = mid + half, mid - half
    # a segment has one dominant moment axis; a blob does not
    degenerate = (lam_max <= 0) | (lam_max / np.maximum(lam_min, 1e-300) < EIGEN_RATIO_FLOOR)
    empty = mask.sum(axis=(1, 2)) < MIN_HARD_PIXELS
    return _observe(m, empty | degenerate, lambda b, i: EmptyChannel(i) if empty[b, i] else DegenerateChannel(i))[0]


def _channel_sums(w: np.ndarray, x: np.ndarray) -> np.ndarray:
    """(w * x).sum(axis=(1, 2)) for images (B, H, W, 3), summed in the same
    pixel order, one channel at a time and without the product image."""
    n = len(w)
    return np.stack(
        [np.einsum("bp,bp->b", w[..., i].reshape(n, -1), x[..., i].reshape(n, -1)) for i in range(3)], axis=1
    )


def _along_rows(v: np.ndarray, like: np.ndarray) -> np.ndarray:
    """Per-channel values v (B, 3) as (B, 1, W, 3) in the dtype of images
    like, (B, H, W, 3): against them it broadcasts like v[:, None, None], but
    an elementwise operation then runs over whole rows, not over 3 elements
    at a time."""
    width = like.shape[2]
    return np.tile(v, width).reshape(len(v), 1, width, 3).astype(like.dtype, copy=False)


def soft_weights(data: np.ndarray, sharpness: float) -> tuple[np.ndarray, np.ndarray]:
    """Graded soft threshold at 0.5 and its derivative.

    A sigmoid of the given sharpness, rescaled so that 0 maps to 0 and 1 to
    1: it tends to the hard threshold as sharpness grows and to the
    intensity itself as sharpness tends to 0.
    """
    if not sharpness > 0:
        raise ValueError("sharpness must be positive")
    sharpness = float(sharpness)  # a Python float keeps a float32 image float32
    # sigmoid(a) = (1 + tanh(a / 2)) / 2, written so that a small sharpness
    # loses no precision: with th = tanh(sharpness (data - 0.5) / 2), the
    # weight is (th + half_span) / (2 half_span) and its derivative
    # sharpness / (4 half_span) (1 - th^2), evaluated operation by operation
    # in two new arrays
    half_span = math.tanh(sharpness / 4.0)
    th = np.subtract(data, 0.5)
    th *= 0.5 * sharpness
    np.tanh(th, out=th)
    w = th + half_span
    w /= 2.0 * half_span
    np.multiply(th, th, out=th)
    np.subtract(1.0, th, out=th)
    th *= sharpness / (4.0 * half_span)
    return w, th


class _SoftForward(NamedTuple):
    """What soft_extract_vjp reads of an extract_axes_soft forward pass."""

    m: _Moments
    origin: np.ndarray
    centroid: np.ndarray
    sign: np.ndarray
    A: np.ndarray
    failed: np.ndarray
    r_sq: np.ndarray
    trace_sq: np.ndarray
    anisotropy: np.ndarray
    dw: np.ndarray
    cost: np.ndarray | None
    costs: np.ndarray | None


def extract_axes_soft(
    images: np.ndarray,
    sharpness: float,
    cost_map: np.ndarray | None = None,
) -> tuple[AxisObservation, np.ndarray, np.ndarray | None, _SoftForward]:
    """Soft extraction of a batch of images (B, H, W, 3).

    Returns the batch's AxisObservation; each channel's anisotropy
    ((lam_max - lam_min) / (lam_max + lam_min))^2 of its second-moment
    matrix, in [0, 1], as (B, 3); the soft-weighted mean of ``cost_map`` (a
    per-pixel cost, (B, H, W, 3)) in each channel, (B, 3), or None without a
    map; and the forward state that soft_extract_vjp reads.

    The extraction is graded: a blob-like channel still yields its principal
    axis, so an image fails only with VanishingMass or NoIntersection, and
    a failed image's gradient is 0.

    A float32 batch stays float32 through every full-image pass, the
    weights, the cost map and the gradient; any other batch runs in
    float64. The observation, costs and anisotropies are float64.
    """
    data = float_array(images)
    if data.ndim != 4:
        raise ValueError(f"soft extraction takes a batch (B, H, W, 3), not shape {data.shape}")
    w, dw = soft_weights(data, sharpness)
    m = _Moments(w)
    obs, origin, centroid, sign, A, failed = _observe(m, m.mass <= SOFT_MASS_FLOOR, lambda b, i: VanishingMass(i))
    r_sq = m.x * m.x + m.y * m.y  # (lam_max - lam_min)^2
    trace_sq = np.maximum(m.trace * m.trace, 1e-300)
    anisotropy = r_sq / trace_sq
    # an image without mass divides by zero below; its rows are discarded
    cost = None if cost_map is None else np.asarray(cost_map, dtype=data.dtype)
    with np.errstate(invalid="ignore", divide="ignore"):
        costs = None if cost is None else _channel_sums(w, cost) / m.mass
    state = _SoftForward(m, origin, centroid, sign, A, failed, r_sq, trace_sq, anisotropy, dw, cost, costs)
    return obs, anisotropy, costs, state


@np.errstate(invalid="ignore", divide="ignore")
def soft_extract_vjp(
    state: _SoftForward,
    d_origin: np.ndarray,
    d_dir: np.ndarray,
    d_centroid: np.ndarray,
    cost_cot: np.ndarray | None = None,
    aniso_cot: np.ndarray | None = None,
) -> np.ndarray:
    """Adjoint of extract_axes_soft, from its forward state: the image
    gradient, (B, H, W, 3), of a loss whose cotangent is d_origin (B, 2),
    d_dir (B, 3, 2) and d_centroid (B, 2) on the observation and,
    optionally, (B, 3) cotangents of the channel costs and anisotropies.

    A channel's direction turns ever faster as it nears isotropy, so its
    adjoint grows like 1 / (lam_max - lam_min); a loss that weights the
    direction by the anisotropy keeps a bounded gradient. A failed image's
    gradient is 0. Each call returns a new array and writes into none of
    its inputs.
    """
    m, origin, centroid, sign = state.m, state.origin, state.centroid, state.sign
    total = m.mass.sum(axis=1, keepdims=True)
    # centroid = sum(mass_i * mean_i) / total
    d_mean = (m.mass / total)[..., None] * d_centroid[:, None]
    d_mass = ((m.mean - centroid[:, None]) @ d_centroid[..., None])[..., 0] / total
    # origin = A^-1 r with A = sum(P_i), r = sum(P_i mean_i), P_i = I - e_i e_i^T;
    # dL/dP_i = z (mean_i - origin)^T with z = A^-1 d_origin
    z = np.linalg.solve(state.A, d_origin[..., None])[..., 0]
    rel = m.mean - origin[:, None]
    ez = (m.e @ z[..., None])[..., 0]
    d_e = (
        sign[..., None] * d_dir
        - np.einsum("bik,bik->bi", rel, m.e)[..., None] * z[:, None]
        - rel * ez[..., None]
    )
    d_mean += z[:, None] - m.e * ez[..., None]
    # e = (cos theta, sin theta) with theta = atan2(y, x) / 2; an
    # exactly isotropic channel has no angular sensitivity
    d_theta = d_e[..., 1] * m.e[..., 0] - d_e[..., 0] * m.e[..., 1]
    k = d_theta / np.maximum(state.r_sq, 1e-300)
    d_a, d_b, d_c = -0.5 * m.y * k, m.x * k, 0.5 * m.y * k
    if aniso_cot is not None:
        # anisotropy = (x^2 + y^2) / trace^2
        q_cot = np.asarray(aniso_cot, dtype=float)
        trace_sq = state.trace_sq
        two_q_trace = 2.0 * state.anisotropy * m.trace
        d_a = d_a + q_cot * (2.0 * m.x - two_q_trace) / trace_sq
        d_b = d_b + q_cot * 4.0 * m.y / trace_sq
        d_c = d_c + q_cot * (-2.0 * m.x - two_q_trace) / trace_sq
    g_w = m.pullback(d_mass, d_mean, d_a, d_b, d_c)
    if cost_cot is not None:
        # costs_i = sum(w_i * cost_i) / mass_i
        term = np.subtract(state.cost, _along_rows(state.costs, state.dw))
        term *= _along_rows(np.asarray(cost_cot, dtype=float) / m.mass, state.dw)
        g_w += term
    g_w *= state.dw
    g_w[state.failed] = 0.0
    return g_w
