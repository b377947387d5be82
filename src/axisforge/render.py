"""Synthetic scene rendering: tri-axis ground truth, shaded query images,
and seeded degradations.

All renders are deterministic given identical inputs. Images are float
arrays in [0, 1]; persistence helpers store them as little-endian float32
and read them back as float32.
"""

from __future__ import annotations

import os
from contextlib import contextmanager
from dataclasses import dataclass
from functools import lru_cache
from pathlib import Path

import numpy as np

from .camera import Pose, project_point, project_triaxis, require_nondegenerate, row_norms, triaxis_lengths
from .config import CameraIntrinsics, DegradationSpec
from .errors import NonPositiveDepth

_LIGHT = np.array([1.0, 1.0, -1.0]) / np.sqrt(3.0)  # directional light, toward scene
_AMBIENT = 0.15


@dataclass(frozen=True)
class TriAxisImage:
    """(H, W, 3) float image; channels 0/1/2 carry the X/Y/Z axis segments."""

    data: np.ndarray

    def __post_init__(self):
        d = np.asarray(self.data, dtype=float)
        object.__setattr__(self, "data", d)
        if d.ndim != 3 or d.shape[2] != 3:
            raise ValueError("tri-axis image must have shape (H, W, 3)")
        if d.min() < 0.0 or d.max() > 1.0:
            raise ValueError("tri-axis values must lie in [0, 1]")


@dataclass(frozen=True)
class QueryImage:
    """(H, W) single-channel shaded rendering of the scene cuboid."""

    data: np.ndarray

    def __post_init__(self):
        d = np.asarray(self.data, dtype=float)
        object.__setattr__(self, "data", d)
        if d.ndim != 2:
            raise ValueError("query image must have shape (H, W)")
        if d.min() < 0.0 or d.max() > 1.0:
            raise ValueError("query values must lie in [0, 1]")


@lru_cache(maxsize=8)
def _pixel_grid(h: int, w: int) -> np.ndarray:
    """(H, W, 2) pixel-center coordinates (u, v) = (column, row), shared read-only."""
    vv, uu = np.mgrid[0:h, 0:w].astype(float)
    px = np.stack([uu, vv], axis=-1)
    px.flags.writeable = False
    return px


def float_array(a) -> np.ndarray:
    """a as an array of floats: a float32 array stays float32, without a
    copy, and anything else becomes float64."""
    a = np.asarray(a)
    return a if a.dtype == np.float32 else a.astype(float, copy=False)


def _segment_distance(h: int, w: int, p0: np.ndarray, p1: np.ndarray) -> np.ndarray:
    """Per-pixel distance from pixel centers to the segment p0-p1 (pixel coords)."""
    px = _pixel_grid(h, w)
    d = p1 - p0
    len2 = float(d @ d)
    if len2 < 1e-18:
        return np.linalg.norm(px - p0, axis=-1)
    t = np.clip(((px - p0) @ d) / len2, 0.0, 1.0)
    closest = p0 + t[..., None] * d
    return np.linalg.norm(px - closest, axis=-1)


def render_triaxis(
    K: CameraIntrinsics,
    pose: Pose,
    axis_len: float = 1.0,
    thickness_px: float = 2.0,
) -> TriAxisImage:
    """Rasterize the projected tri-axis as anti-aliased segments.

    Each channel holds one axis drawn from the projected origin to the
    projected endpoint: intensity 1 on the core, linear 1-pixel falloff.
    """
    h, w = K.height, K.width
    points = project_triaxis(K, pose, axis_len)
    require_nondegenerate(triaxis_lengths(points))
    img = np.zeros((h, w, 3))
    r = thickness_px / 2.0
    for i in range(3):
        d = _segment_distance(h, w, points[0], points[i + 1])
        img[:, :, i] = np.clip(r + 0.5 - d, 0.0, 1.0)
    return TriAxisImage(img)


# the eight cuboid corners at unit half-extent, index 4 * (x > 0) + 2 * (y > 0) + (z > 0)
_CUBOID_CORNERS = np.array([[sx, sy, sz] for sx in (-1, 1) for sy in (-1, 1) for sz in (-1, 1)], dtype=float)

# (axis, sign): face with outward object-frame normal sign * e_axis
_CUBOID_FACES = ((0, 1.0), (0, -1.0), (1, 1.0), (1, -1.0), (2, 1.0), (2, -1.0))
# each face's corners, in order around it
_FACE_CORNERS = np.array([[4, 6, 7, 5], [0, 2, 3, 1], [2, 3, 7, 6], [0, 1, 5, 4], [1, 5, 7, 3], [0, 4, 6, 2]])


def _fill_convex_quad(img: np.ndarray, quad: np.ndarray, value: float) -> None:
    """Paint a convex quad (pixel coords) with 1-pixel anti-aliased edges."""
    h, w = img.shape
    nxt = quad[[1, 2, 3, 0]]
    cross = quad[:, 0] * nxt[:, 1] - nxt[:, 0] * quad[:, 1]
    area2 = 0.0 + cross[0] + cross[1] + cross[2] + cross[3]  # summed in corner order
    if abs(area2) < 1e-12:
        return
    edges = nxt - quad  # edge k runs from corner k to corner k + 1
    norms = row_norms(edges)
    keep = ~(norms < 1e-12)  # a zero-length edge bounds nothing
    p, e, n = quad[keep, :, None, None], edges[keep, :, None, None], norms[keep, None, None]
    px = _pixel_grid(h, w)
    orient = np.sign(area2)  # +-1, so it distributes over the difference exactly
    # signed distance to each edge's line, positive outside for this winding:
    # orient * ((u - p_u) e_v - (v - p_v) e_u) / |e|, whose first product
    # depends on the column only and whose second on the row only
    across = orient * ((px[:1, :, 0] - p[:, 0]) * e[:, 1])  # (edges, 1, W)
    down = orient * ((px[:, :1, 1] - p[:, 1]) * e[:, 0])  # (edges, H, 1)
    inside = np.max((across - down) / n, axis=0, initial=-np.inf)
    cover = np.clip(0.5 - inside, 0.0, 1.0)
    np.copyto(img, value * cover + img * (1 - cover))


def render_query(K: CameraIntrinsics, pose: Pose) -> QueryImage:
    """Lambertian-shaded unit cuboid at the pose, painter's-algorithm face order."""
    depths = (_CUBOID_CORNERS @ pose.R.T + pose.T)[:, 2]
    if depths.min() <= 1e-9:
        raise NonPositiveDepth("cuboid is not fully in front of the camera")
    corners_px = np.stack([project_point(K, pose, p) for p in _CUBOID_CORNERS])
    face_z = (_CUBOID_CORNERS[_FACE_CORNERS] @ pose.R.T + pose.T)[..., 2]  # one (4, 3) product per face

    faces = []
    for (axis, sign), corners, cam_z in zip(_CUBOID_FACES, _FACE_CORNERS, face_z):
        n_cam = pose.R[:, axis] * sign
        shade = _AMBIENT + (1 - _AMBIENT) * max(0.0, float(n_cam @ (-_LIGHT)))
        faces.append((float(cam_z.mean()), corners_px[corners], shade))

    img = np.zeros((K.height, K.width))
    for _, quad, shade in sorted(faces, key=lambda f: -f[0]):
        _fill_convex_quad(img, quad, shade)
    return QueryImage(np.clip(img, 0.0, 1.0))


def _box_blur(img: np.ndarray, radius: int) -> np.ndarray:
    """Separable box blur with edge-clamped borders."""
    if radius == 0:
        return img
    k = 2 * radius + 1
    kernel = np.full(k, 1.0 / k)

    def blur_axis(a: np.ndarray, axis: int) -> np.ndarray:
        padded = np.pad(
            a, [(radius, radius) if i == axis else (0, 0) for i in range(a.ndim)],
            mode="edge",
        )
        return np.apply_along_axis(
            lambda m: np.convolve(m, kernel, mode="valid"), axis, padded
        )

    return blur_axis(blur_axis(img, 0), 1)


def apply_degradation(img: np.ndarray, spec: DegradationSpec, seed: int) -> np.ndarray:
    """Occlude, add noise, clamp, then blur. Seeded by ``seed`` and reproducible."""
    out = np.array(img, dtype=float)
    h, w = out.shape[:2]
    rng = np.random.default_rng(seed)
    if spec.occlusion_frac > 0:
        area = spec.occlusion_frac * h * w
        aspect = rng.uniform(0.5, 2.0)
        rw = min(w, max(1, int(round(np.sqrt(area * aspect)))))
        rh = min(h, max(1, int(round(area / rw))))
        top = int(rng.integers(0, h - rh + 1))
        left = int(rng.integers(0, w - rw + 1))
        out[top : top + rh, left : left + rw] = 0.0
    if spec.noise_sigma > 0:
        out = out + rng.normal(0.0, spec.noise_sigma, size=out.shape)
    out = np.clip(out, 0.0, 1.0)
    if spec.blur_radius > 0:
        out = _box_blur(out, spec.blur_radius)
    return out


# --- persistence ---

@contextmanager
def atomic_write(path: str | Path, mode: str = "w"):
    """Open a temporary file beside ``path`` for writing and, when the block
    completes, rename it over ``path``; if the block raises, delete it and
    leave ``path`` as it was. The rename is atomic for readers and against a
    failure of this process; without an fsync it may not survive a power
    loss."""
    path = Path(path)
    tmp = path.with_name(f".{path.name}.{os.getpid()}.tmp")
    try:
        with open(tmp, mode) as f:
            yield f
        os.replace(tmp, path)
    except BaseException:
        tmp.unlink(missing_ok=True)
        raise


def save_f32(path: str | Path, img: np.ndarray) -> None:
    """Raw little-endian float32, row-major, channel-interleaved, written
    through atomic_write."""
    with atomic_write(path, "wb") as f:
        f.write(np.asarray(img, dtype="<f4").tobytes())


def load_f32(path: str | Path, shape: tuple[int, ...]) -> np.ndarray:
    """The file's values as a float32 array of the given shape, as stored:
    a caller that needs float64 widens them, which is exact."""
    data = np.fromfile(str(path), dtype="<f4")
    expected = int(np.prod(shape))
    if data.size != expected:
        raise ValueError(f"{path}: expected {expected} floats, found {data.size}")
    return data.reshape(shape).astype(np.float32, copy=False)  # native byte order, no copy on little-endian hosts
