"""Axis observation extraction from tri-axis images.

Two variants share one moment-based pipeline:

* ``extract_axes_hard`` thresholds one image, widened to float64, at 0.5
  and is used at inference time.
* ``soft_extract_with_pullback`` replaces the threshold with a graded
  sigmoid weight so that every output is a smooth function of every pixel,
  and returns the hand-derived adjoint with the observation; the
  sampling-time guidance gradient uses it. It takes only a batch, and a
  failed image's error comes back in its slot of the ObservationBatch.
  ``extract_axes_soft`` and ``soft_extract_vjp`` run one image as a batch
  of one and raise its error. They stay because the benchmark's tracer
  (``perfbench/tracing.py``) looks them up by name.

Per channel: weighted mean, principal eigenvector of the 2x2 second-moment
matrix, then a least-squares intersection of the three lines gives the
origin. Directions are sign-corrected to point from the origin toward the
channel mass. The pipeline works on a leading batch axis throughout, so a
batch of images costs a fixed number of array operations. Full-image
passes run in the images' dtype; the per-channel moments are float64.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache
from typing import Callable, Sequence

import numpy as np

from .errors import DegenerateChannel, EmptyChannel, NoIntersection, VanishingMass
from .render import _pixel_grid, float_array

MIN_HARD_PIXELS = 8
SOFT_MASS_FLOOR = 1e-6
EIGEN_RATIO_FLOOR = 4.0
_INTERSECT_DET_FLOOR = 1e-6


@dataclass(frozen=True)
class AxisObservation:
    """Tri-axis measurement: intersection point, directed unit axes, centroid."""

    origin_px: np.ndarray
    dir: np.ndarray
    centroid: np.ndarray

    def __post_init__(self):
        o = np.asarray(self.origin_px, dtype=float).reshape(2)
        d = np.asarray(self.dir, dtype=float).reshape(3, 2)
        c = np.asarray(self.centroid, dtype=float).reshape(2)
        object.__setattr__(self, "origin_px", o)
        object.__setattr__(self, "dir", d)
        object.__setattr__(self, "centroid", c)
        if np.max(np.abs(np.linalg.norm(d, axis=1) - 1.0)) > 1e-9:
            raise ValueError("axis directions must be unit vectors")

    def to_flat(self) -> list[float]:
        return [*self.origin_px, *self.dir.ravel(), *self.centroid]


@dataclass(frozen=True)
class ObservationAdjoint:
    """Cotangent with the same shape as AxisObservation, without unit
    constraints; a batch of B cotangents keeps its leading axis:
    origin_px (B, 2), dir (B, 3, 2), centroid (B, 2)."""

    origin_px: np.ndarray
    dir: np.ndarray
    centroid: np.ndarray

    def __post_init__(self):
        o = np.asarray(self.origin_px, dtype=float)
        lead = o.shape[:-1]
        object.__setattr__(self, "origin_px", o.reshape(*lead, 2))
        object.__setattr__(self, "dir", np.asarray(self.dir, dtype=float).reshape(*lead, 3, 2))
        object.__setattr__(self, "centroid", np.asarray(self.centroid, dtype=float).reshape(*lead, 2))


@dataclass(frozen=True)
class ObservationBatch:
    """AxisObservation fields of B records stacked along a leading axis:
    origin_px (B, 2), dir (B, 3, 2), centroid (B, 2). A record whose
    extraction failed has nan rows and its exception in errors[b]."""

    origin_px: np.ndarray
    dir: np.ndarray
    centroid: np.ndarray
    errors: list[Exception | None]

    @classmethod
    def stack(cls, observations: Sequence[AxisObservation]) -> "ObservationBatch":
        return cls(
            origin_px=np.stack([o.origin_px for o in observations]),
            dir=np.stack([o.dir for o in observations]),
            centroid=np.stack([o.centroid for o in observations]),
            errors=[None] * len(observations),
        )

    def record(self, b: int) -> AxisObservation:
        """Record b's observation; raises its extraction error if it failed."""
        if self.errors[b] is not None:
            raise self.errors[b]
        return AxisObservation(origin_px=self.origin_px[b], dir=self.dir[b], centroid=self.centroid[b])


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
    a float64 (B, 3) array, and the pullback is an image in that dtype."""

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
        half = np.hypot(self.a - self.c, 2 * self.b) / 2.0
        mid = (self.a + self.c) / 2.0
        self.lam_max, self.lam_min = mid + half, mid - half
        theta = 0.5 * np.arctan2(2 * self.b, self.a - self.c)
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


def _assemble(m: _Moments) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """Origins (B, 2), directed axes (B, 3, 2) and centroids (B, 2) from
    channel moments, with the direction signs and the intersection's normal
    matrices for the adjoint and the mask of images without an intersection."""
    origin, A, parallel = _intersect(m)
    sign = np.where(np.einsum("bik,bik->bi", m.e, m.mean - origin[:, None]) >= 0, 1.0, -1.0)
    centroid = (m.mass[:, None] @ m.mean)[:, 0] / m.mass.sum(axis=1, keepdims=True)
    return origin, sign[..., None] * m.e, centroid, sign, A, parallel


def extract_axes_hard(img: np.ndarray) -> AxisObservation:
    """Deterministic extraction from a tri-axis image (H, W, 3), widened to
    float64: intensity weights thresholded at 0.5.

    Raises EmptyChannel for a channel with fewer than MIN_HARD_PIXELS
    pixels above threshold and DegenerateChannel for a channel whose moment
    eigen-ratio is below EIGEN_RATIO_FLOOR (a blob, not a segment), checked
    channel by channel in order.
    """
    data = np.asarray(img, dtype=float)
    mask = data > 0.5
    m = _Moments((data * mask)[None])
    counts = mask.sum(axis=(0, 1))
    lam_max, lam_min = m.lam_max[0], m.lam_min[0]
    for i in range(3):
        if counts[i] < MIN_HARD_PIXELS:
            raise EmptyChannel(i)
        # a segment has one dominant moment axis; a blob does not
        if lam_max[i] <= 0 or lam_max[i] / max(lam_min[i], 1e-300) < EIGEN_RATIO_FLOOR:
            raise DegenerateChannel(i)
    origin, dirs, centroid, _, _, parallel = _assemble(m)
    if parallel[0]:
        raise NoIntersection("axis lines are mutually parallel")
    return AxisObservation(origin_px=origin[0], dir=dirs[0], centroid=centroid[0])


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


def soft_extract_with_pullback(
    images: np.ndarray,
    sharpness: float,
    cost_map: np.ndarray | None = None,
) -> tuple[ObservationBatch, np.ndarray, np.ndarray | None, Callable[..., np.ndarray]]:
    """Soft extraction of a batch of images (B, H, W, 3) and its adjoint,
    from one forward pass.

    Returns the ObservationBatch; each channel's anisotropy
    ((lam_max - lam_min) / (lam_max + lam_min))^2 of its second-moment
    matrix, in [0, 1], as (B, 3); the soft-weighted mean of ``cost_map`` (a
    per-pixel cost, (B, H, W, 3)) in each channel, (B, 3), or None without a
    map; and a pullback mapping a batched observation cotangent, and
    optionally (B, 3) cotangents of the channel costs and anisotropies, to
    the image gradient of the loss, (B, H, W, 3).

    The extraction is graded: a blob-like channel still yields its principal
    axis, so an image fails only with VanishingMass or NoIntersection. A
    failed image raises nothing: its exception is in the observation's
    errors, its rows are nan and its gradient is 0. A channel's direction
    turns ever faster as it nears isotropy, so its adjoint grows like
    1 / (lam_max - lam_min); a loss that weights the direction by the
    anisotropy keeps a bounded gradient. Each pullback call returns a new
    array and writes into none of its inputs.

    A float32 batch stays float32 through every full-image pass, the
    weights, the cost map and the gradient; any other batch runs in
    float64. The observation, costs and anisotropies are float64.
    """
    data = float_array(images)
    if data.ndim != 4:
        raise ValueError(f"soft extraction takes a batch (B, H, W, 3), not shape {data.shape}")
    w, dw = soft_weights(data, sharpness)
    m = _Moments(w)
    origin, dirs, centroid, sign, A, parallel = _assemble(m)
    vanishing = m.mass <= SOFT_MASS_FLOOR
    failed = vanishing.any(axis=1) | parallel
    errors: list[Exception | None] = [None] * len(data)
    for b in np.flatnonzero(failed):
        if vanishing[b].any():
            errors[b] = VanishingMass(int(np.argmax(vanishing[b])))
        else:
            errors[b] = NoIntersection("axis lines are mutually parallel")
    nan_rows = failed[:, None]
    obs = ObservationBatch(
        origin_px=np.where(nan_rows, np.nan, origin),
        dir=np.where(nan_rows[..., None], np.nan, dirs),
        centroid=np.where(nan_rows, np.nan, centroid),
        errors=errors,
    )
    x_t, y_t, trace = m.a - m.c, 2.0 * m.b, m.a + m.c
    trace_sq = np.maximum(trace * trace, 1e-300)
    anisotropy = (x_t * x_t + y_t * y_t) / trace_sq
    # an image without mass divides by zero below; its rows are discarded
    cost = None if cost_map is None else np.asarray(cost_map, dtype=data.dtype)
    with np.errstate(invalid="ignore", divide="ignore"):
        costs = None if cost is None else _channel_sums(w, cost) / m.mass

    @np.errstate(invalid="ignore", divide="ignore")
    def pullback(
        cotangent: ObservationAdjoint | ObservationBatch,
        cost_cot: np.ndarray | None = None,
        aniso_cot: np.ndarray | None = None,
    ) -> np.ndarray:
        total = m.mass.sum(axis=1, keepdims=True)
        # centroid = sum(mass_i * mean_i) / total
        d_mean = (m.mass / total)[..., None] * cotangent.centroid[:, None]
        d_mass = ((m.mean - centroid[:, None]) @ cotangent.centroid[..., None])[..., 0] / total
        # origin = A^-1 r with A = sum(P_i), r = sum(P_i mean_i), P_i = I - e_i e_i^T;
        # dL/dP_i = y (mean_i - origin)^T with y = A^-1 g_origin
        y = np.linalg.solve(A, cotangent.origin_px[..., None])[..., 0]
        rel = m.mean - origin[:, None]
        ey = (m.e @ y[..., None])[..., 0]
        d_e = (
            sign[..., None] * cotangent.dir
            - np.einsum("bik,bik->bi", rel, m.e)[..., None] * y[:, None]
            - rel * ey[..., None]
        )
        d_mean += y[:, None] - m.e * ey[..., None]
        # e = (cos theta, sin theta) with theta = atan2(2b, a - c) / 2; an
        # exactly isotropic channel has no angular sensitivity
        d_theta = d_e[..., 1] * m.e[..., 0] - d_e[..., 0] * m.e[..., 1]
        k = d_theta / np.maximum(x_t * x_t + y_t * y_t, 1e-300)
        d_a, d_b, d_c = -0.5 * y_t * k, x_t * k, 0.5 * y_t * k
        if aniso_cot is not None:
            # anisotropy = (x^2 + y^2) / trace^2 with x = a - c, y = 2b, trace = a + c
            q_cot = np.asarray(aniso_cot, dtype=float)
            d_a = d_a + q_cot * (2.0 * x_t - 2.0 * anisotropy * trace) / trace_sq
            d_b = d_b + q_cot * 4.0 * y_t / trace_sq
            d_c = d_c + q_cot * (-2.0 * x_t - 2.0 * anisotropy * trace) / trace_sq
        g_w = m.pullback(d_mass, d_mean, d_a, d_b, d_c)
        if cost_cot is not None:
            # costs_i = sum(w_i * cost_i) / mass_i
            term = np.subtract(cost, _along_rows(costs, data))
            term *= _along_rows(np.asarray(cost_cot, dtype=float) / m.mass, data)
            g_w += term
        g_w *= dw
        g_w[failed] = 0.0
        return g_w

    return obs, anisotropy, costs, pullback


def _single_soft(img: np.ndarray, sharpness: float):
    """Observation and batch pullback of one image (H, W, 3), widened to
    float64 and extracted as a batch of one; raises the image's
    VanishingMass or NoIntersection."""
    obs, _, _, pullback = soft_extract_with_pullback(np.asarray(img, dtype=float)[None], sharpness)
    return obs.record(0), pullback


def extract_axes_soft(img: np.ndarray, sharpness: float) -> AxisObservation:
    """Soft extraction of one image (H, W, 3)."""
    return _single_soft(img, sharpness)[0]


def soft_extract_vjp(
    img: np.ndarray,
    sharpness: float,
    cotangent: ObservationAdjoint | AxisObservation,
) -> np.ndarray:
    """Adjoint of extract_axes_soft: d<cotangent, soft(img)>/d img, shape (H, W, 3)."""
    pullback = _single_soft(img, sharpness)[1]
    return pullback(ObservationAdjoint(cotangent.origin_px[None], cotangent.dir[None], cotangent.centroid[None]))[0]
