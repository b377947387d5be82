"""Synthetic scene rendering: tri-axis ground truth, shaded query images,
and seeded degradations.

All renders are deterministic given identical inputs. Images are plain
float arrays in [0, 1]: a tri-axis image is (H, W, 3), its channels 0/1/2
carrying the X/Y/Z axis segments, and a query image is (H, W). Persistence
helpers store them as little-endian float32 and read them back as float32;
``dataset.load_images`` checks the range of what it reads.
"""

from __future__ import annotations

import os
from contextlib import contextmanager
from functools import lru_cache
from pathlib import Path

import numpy as np

from .camera import Pose, project_points, project_triaxis, require_nondegenerate, row_norms, triaxis_lengths
from .config import CameraIntrinsics, DegradationSpec
from .errors import NonPositiveDepth

_LIGHT = np.array([1.0, 1.0, -1.0]) / np.sqrt(3.0)  # directional light, toward scene
_AMBIENT = 0.15


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


def render_triaxis(
    K: CameraIntrinsics,
    pose: Pose,
    axis_len: float = 1.0,
    thickness_px: float = 2.0,
) -> np.ndarray:
    """Rasterize the projected tri-axis as anti-aliased segments, an
    (H, W, 3) float64 image in [0, 1].

    Each channel holds one axis drawn from the projected origin to the
    projected endpoint: intensity 1 on the core, linear 1-pixel falloff.
    The three axes' pixel distances are computed in one pass.
    """
    h, w = K.height, K.width
    points = project_triaxis(K, pose, axis_len)
    require_nondegenerate(triaxis_lengths(points))  # so no axis has zero length below
    origin, axes = points[0], points[1:] - points[0]
    px = _pixel_grid(h, w).reshape(-1, 2)
    len2 = (axes[:, None, :] @ axes[:, :, None])[:, 0]  # (3, 1): one dot per axis
    # the fraction along each axis of the closest point: one matrix-vector
    # product per axis, which a (H * W, 2) @ (2, 3) product would round differently
    t = np.clip(((px - origin) @ axes[:, :, None])[:, :, 0] / len2, 0.0, 1.0)  # (3, H * W)
    # offset from the closest point, origin + t * axis, one coordinate at a time
    du = px[:, 0] - (origin[0] + t * axes[:, :1])
    dv = px[:, 1] - (origin[1] + t * axes[:, 1:])
    dist = np.sqrt(du * du + dv * dv)
    r = thickness_px / 2.0
    return np.ascontiguousarray(np.clip(r + 0.5 - dist, 0.0, 1.0).T).reshape(h, w, 3)


# the eight cuboid corners at unit half-extent, index 4 * (x > 0) + 2 * (y > 0) + (z > 0)
_CUBOID_CORNERS = np.array([[sx, sy, sz] for sx in (-1, 1) for sy in (-1, 1) for sz in (-1, 1)], dtype=float)

# face f has the outward object-frame normal _FACE_SIGN[f] * e_{_FACE_AXIS[f]}
_FACE_AXIS = np.array([0, 0, 1, 1, 2, 2])
_FACE_SIGN = np.array([1.0, -1.0, 1.0, -1.0, 1.0, -1.0])
# each face's corners, in order around it
_FACE_CORNERS = np.array([[4, 6, 7, 5], [0, 2, 3, 1], [2, 3, 7, 6], [0, 1, 5, 4], [1, 5, 7, 3], [0, 4, 6, 2]])


def _quad_coverage(h: int, w: int, quads: np.ndarray) -> np.ndarray:
    """Anti-aliased coverage (N, H, W) in [0, 1] of each of the N convex
    quads (N, 4, 2) in pixel coords, with 1-pixel edges. A quad of zero area
    covers nothing."""
    nxt = quads[:, [1, 2, 3, 0]]
    cross = quads[..., 0] * nxt[..., 1] - nxt[..., 0] * quads[..., 1]
    area2 = 0.0 + cross[:, 0] + cross[:, 1] + cross[:, 2] + cross[:, 3]  # summed in corner order
    edges = nxt - quads  # edge k runs from corner k to corner k + 1
    norms = row_norms(edges.reshape(-1, 2)).reshape(-1, 4, 1, 1)
    p, e = quads[..., None, None], edges[..., None, None]  # (N, 4, 2, 1, 1)
    px = _pixel_grid(h, w)
    orient = np.sign(area2)[:, None, None, None]  # +-1, so it distributes over the difference exactly
    # signed distance to each edge's line, positive outside for this winding:
    # orient * ((u - p_u) e_v - (v - p_v) e_u) / |e|, whose first product
    # depends on the column only and whose second on the row only
    across = orient * ((px[:1, :, 0] - p[:, :, 0]) * e[:, :, 1])  # (N, 4, 1, W)
    down = orient * ((px[:, :1, 1] - p[:, :, 1]) * e[:, :, 0])  # (N, 4, H, 1)
    short = norms < 1e-12  # a zero-length edge bounds nothing
    outside = (across - down) / np.where(short, 1.0, norms)
    outside[short[:, :, 0, 0]] = -np.inf
    cover = 0.5 - outside.max(axis=1)
    np.clip(cover, 0.0, 1.0, out=cover)
    cover[np.abs(area2) < 1e-12] = 0.0
    return cover


def render_query(K: CameraIntrinsics, pose: Pose) -> np.ndarray:
    """Lambertian-shaded unit cuboid at the pose, painter's-algorithm face
    order, as an (H, W) float64 image in [0, 1]. The six faces' coverage is
    computed in one pass, then composited from the farthest face in."""
    depths = (_CUBOID_CORNERS @ pose.R.T + pose.T)[:, 2]
    if depths.min() <= 1e-9:
        raise NonPositiveDepth("cuboid is not fully in front of the camera")
    corners_px = project_points(K, pose, _CUBOID_CORNERS)
    face_z = (_CUBOID_CORNERS[_FACE_CORNERS] @ pose.R.T + pose.T)[..., 2]  # one (4, 3) product per face
    # ordered by summed depth, as by mean depth (dividing by 4 is exact); ties keep face order
    far_first = np.argsort(-face_z.sum(axis=1), kind="stable")
    normals = pose.R.T[_FACE_AXIS] * _FACE_SIGN[:, None]  # row f: R[:, axis] * sign
    lit = (normals[:, None, :] @ -_LIGHT[:, None])[:, 0, 0]  # one dot per face
    shade = _AMBIENT + (1 - _AMBIENT) * np.maximum(0.0, lit)

    cover = _quad_coverage(K.height, K.width, corners_px[_FACE_CORNERS])
    painted, kept = shade[:, None, None] * cover, 1 - cover
    img = np.zeros((K.height, K.width))
    for f in far_first:
        img = painted[f] + img * kept[f]
    return np.clip(img, 0.0, 1.0)


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
    if spec.occlusion_frac > 0 or spec.noise_sigma > 0:
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
