"""DDPM/DDIM machinery with geometric-consistency guidance.

A denoiser returns the clean-image estimate x0_hat. The sampler is
deterministic DDIM (eta = 0, Song et al., arXiv:2010.02502): each step
re-mixes x0_hat with the noise it implies at the next noise level, and
``ddim_step`` is the one place that forms that noise. Guidance moves x0_hat
against the gradient of a loss that measures it: the axis directions, each
weighted by its channel's anisotropy, and the centroid of the
softly-extracted observation (geo_loss), plus each channel's mean squared
distance from the target's axis ray. The guided estimate is
x0_hat - rho_eff * (1 - alpha_bar_t) / alpha_bar_t * d loss / d x0_hat,
which leaves the denoiser undifferentiated (manifold-preserving guidance,
He et al., arXiv:2311.16424), so a guided step, ``guided_x0_batch``, costs
one denoiser forward. ``sample`` runs several records through one
denoiser pass and one batched soft extraction per step, under one
GuidanceParams for the whole call and one target per record, and returns
plain arrays: the clipped images and each record's per-step correction
norms and skip errors.

A chain runs in its denoiser's dtype (float32 for the network, float64 for
``GaussianDenoiser``) through every full-image pass: x_t, x0_hat, the soft
extraction, its adjoint and the DDIM step. Per-record values are float64.

``GaussianDenoiser``, the exact posterior mean of a Gaussian data
distribution, gives an independent verification path for the sampler.
"""

from __future__ import annotations

import math
from abc import ABC, abstractmethod
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .camera import AxisObservation
from .config import GuidanceParams
from .errors import InvalidSchedule
from .extraction import extract_axes_soft, soft_extract_vjp
from .render import _pixel_grid, float_array


@dataclass(frozen=True)
class DiffusionSchedule:
    """Per-step variance schedule and its cumulative signal fractions.

    ``alpha_bar[t-1]`` is the cumulative product for timestep t in 1..T;
    timestep 0 is the clean image (alpha_bar = 1).
    """

    T: int
    zeta: np.ndarray
    alpha_bar: np.ndarray

    def __post_init__(self):
        z = np.asarray(self.zeta, dtype=float)
        ab = np.asarray(self.alpha_bar, dtype=float)
        object.__setattr__(self, "zeta", z)
        object.__setattr__(self, "alpha_bar", ab)
        if self.T < 1 or len(z) != self.T or len(ab) != self.T:
            raise InvalidSchedule("schedule arrays must have length T >= 1")
        if np.any(z <= 0) or np.any(z >= 1):
            raise InvalidSchedule("zeta values must lie in (0, 1)")
        if np.any(ab <= 0) or np.any(ab > 1):
            raise InvalidSchedule("alpha_bar values must lie in (0, 1]")
        if np.any(np.diff(ab) >= 0):
            raise InvalidSchedule("alpha_bar must be strictly decreasing")
        if np.max(np.abs(ab - np.cumprod(1.0 - z))) > 1e-12:
            raise InvalidSchedule("alpha_bar inconsistent with zeta")

    def abar(self, t: int) -> float:
        """alpha_bar at timestep t, with abar(0) = 1."""
        if t == 0:
            return 1.0
        if not 1 <= t <= self.T:
            raise ValueError(f"timestep {t} outside 0..{self.T}")
        return float(self.alpha_bar[t - 1])

    def to_dict(self) -> dict:
        return {"T": self.T, "zeta_start": float(self.zeta[0]), "zeta_end": float(self.zeta[-1])}


def make_schedule(T: int, zeta_start: float, zeta_end: float) -> DiffusionSchedule:
    """Linear variance schedule from zeta_start to zeta_end over T steps."""
    if T < 1:
        raise InvalidSchedule("T must be >= 1")
    if not (0.0 < zeta_start <= zeta_end < 1.0):
        raise InvalidSchedule("need 0 < zeta_start <= zeta_end < 1")
    zeta = np.linspace(zeta_start, zeta_end, T)
    return DiffusionSchedule(T=T, zeta=zeta, alpha_bar=np.cumprod(1.0 - zeta))


def forward_diffuse(x0: np.ndarray, t, sched: DiffusionSchedule, rng: np.random.Generator, out=None):
    """Sample x_t = sqrt(abar_t) x0 + sqrt(1 - abar_t) eps; returns (x_t, eps),
    float64 arrays shaped like x0. ``t`` is one timestep or an array of them
    broadcast against x0, each in 1..T. A float32 x0 is read as it is: the
    products widen it, exactly. ``out``, a pair of float64 arrays shaped like
    x0, receives (x_t, eps) in place of new arrays, for a caller that draws
    many batches, as training does; the values are the same."""
    t = np.asarray(t, dtype=int)
    if not np.all((1 <= t) & (t <= sched.T)):
        raise ValueError(f"timesteps must lie in 1..{sched.T}")
    ab = sched.alpha_bar[t - 1]
    x0 = float_array(x0)
    x_t, eps = (np.empty(x0.shape), np.empty(x0.shape)) if out is None else out
    rng.standard_normal(out=eps)
    np.multiply(np.sqrt(ab), x0, out=x_t)
    # the noise term one leading row at a time, so that no x0-sized temporary exists
    noise_scale = np.broadcast_to(np.sqrt(1.0 - ab), x_t.shape)
    for row, s, e in zip(np.atleast_2d(x_t), np.atleast_2d(noise_scale), np.atleast_2d(eps)):
        row += s * e
    return x_t, eps


def ddim_step(
    x_t: np.ndarray,
    t: int,
    x0_hat: np.ndarray,
    sched: DiffusionSchedule,
    t_prev: int,
) -> np.ndarray:
    """One deterministic implicit-sampler update from timestep t to t_prev,
    given the clean-image estimate x0_hat: x0_hat re-mixed with the noise
    it implies in x_t."""
    if not 0 <= t_prev < t:
        raise ValueError("t_prev must satisfy 0 <= t_prev < t")
    ab, ab_prev = sched.abar(t), sched.abar(t_prev)
    # sqrt(ab_prev) x0_hat + sqrt(1 - ab_prev) (x_t - sqrt(ab) x0_hat) / sqrt(1 - ab),
    # operation by operation in two new arrays; Python-float factors keep
    # x0_hat's dtype
    eps = math.sqrt(ab) * x0_hat
    np.subtract(x_t, eps, out=eps)
    eps /= math.sqrt(1.0 - ab)
    eps *= math.sqrt(1.0 - ab_prev)
    x_prev = math.sqrt(ab_prev) * x0_hat
    x_prev += eps
    return x_prev


class DenoiserInterface(ABC):
    """Clean-image estimator: the posterior mean of x0 given x_t. Its
    ``dtype`` is the dtype a sampling chain runs in."""

    dtype = np.dtype(np.float64)

    @abstractmethod
    def evaluate(self, x_t: np.ndarray, t: int, cond: np.ndarray | None = None) -> np.ndarray:
        """Clean-image estimate x0_hat, same shape and dtype as x_t.

        The sampling code writes only into arrays it allocated itself. It
        never writes into x_t or into the returned estimate, so a denoiser
        may return an array that it keeps and hands out again."""

    def prepare_condition(self, cond: np.ndarray):
        """cond in the form this denoiser evaluates fastest, for a caller that
        passes the same condition at many steps with unchanged weights, as a
        sampling chain does; evaluate takes either form. By default cond
        itself."""
        return cond


class GaussianDenoiser(DenoiserInterface):
    """Exact posterior mean E[x0 | x_t] for the elementwise Gaussian data
    distribution N(mean, var).

    The diffused marginal at t is N(sqrt(abar) mean, abar var + 1 - abar),
    and the posterior mean is (sqrt(abar) var x_t + (1 - abar) mean) over
    that marginal variance (Tweedie's formula).
    """

    def __init__(self, mean: np.ndarray, var: np.ndarray, sched: DiffusionSchedule):
        self.mean = np.asarray(mean, dtype=float)
        self.var = np.broadcast_to(np.asarray(var, dtype=float), self.mean.shape).copy()
        if np.any(self.var <= 0):
            raise ValueError("variances must be positive")
        self.sched = sched

    def evaluate(self, x_t, t, cond=None):
        x = float_array(x_t)
        ab = self.sched.abar(t)
        marg_var = ab * self.var + (1.0 - ab)
        return ((np.sqrt(ab) * self.var * x + (1.0 - ab) * self.mean) / marg_var).astype(x.dtype, copy=False)


# --- geometric consistency ---

def geo_loss(
    gen: AxisObservation,
    gt: AxisObservation,
    dir_weight: np.ndarray | None = None,
):
    """Squared direction mismatch summed over axes, each axis weighted by
    dir_weight (default 1), plus squared centroid offset, with any leading
    batch axes of the observations and (B, 3) weights."""
    d = gen.dir - gt.dir
    c = gen.centroid - gt.centroid
    w = np.ones(3) if dir_weight is None else np.asarray(dir_weight, dtype=float)
    return (w[..., None, :] @ (d * d).sum(axis=-1)[..., None])[..., 0, 0] + (c * c).sum(axis=-1)


def ray_distance_map(gt: AxisObservation, shape: tuple[int, int]) -> np.ndarray:
    """Squared pixel distance from every pixel to each target axis ray, the
    half-line from gt.origin_px along gt.dir[i], as an (H, W, 3) map, or a
    (B, H, W, 3) stack for a batch of targets."""
    rel = _pixel_grid(*shape) - gt.origin_px[..., None, None, :]  # ([B,] H, W, 2)
    along = np.maximum(rel @ np.swapaxes(gt.dir, -1, -2)[..., None, :, :], 0.0)  # ([B,] H, W, 3)
    return (rel * rel).sum(axis=-1, keepdims=True) - along * along


def geo_image_gradient(
    x0_hat: np.ndarray,
    target: AxisObservation,
    sharpness: float,
    rays: np.ndarray | None = None,
) -> tuple[np.ndarray, np.ndarray, list[Exception | None]]:
    """Guidance losses of clip(x0_hat, 0, 1) for a batch x0_hat of shape
    (B, H, W, 3), and their gradients with respect to x0_hat, from one soft
    extraction and its adjoint. Image b's loss is geo_loss of its soft
    observation against target b, each direction weighted by its channel's
    anisotropy, plus, summed over channels, the soft-weighted mean of the
    squared distance to the target's ray. The anisotropy weight vanishes
    smoothly as a channel nears isotropy, where the direction's adjoint is
    ill-defined, so the gradient stays bounded.

    ``rays`` is ray_distance_map(target, (H, W)), built here when not
    given. Returns (losses, grads, errors): a failed image has loss nan,
    gradient 0 and its VanishingMass or NoIntersection in errors. grads is
    a new array, which the caller may write into.
    """
    if rays is None:
        rays = ray_distance_map(target, x0_hat.shape[1:3])
    gen, aniso, spread, state = extract_axes_soft(np.clip(x0_hat, 0.0, 1.0), sharpness, rays)
    losses = geo_loss(gen, target, aniso) + spread.sum(axis=1)
    # geo_loss's cotangents (the origin does not enter it), then the ray
    # costs' and the anisotropies'
    d_dir = gen.dir - target.dir
    cot = (np.zeros(gen.centroid.shape), 2.0 * aniso[..., None] * d_dir, 2.0 * (gen.centroid - target.centroid))
    g_img = soft_extract_vjp(state, *cot, np.ones(aniso.shape), (d_dir * d_dir).sum(axis=-1))
    g_img *= (x0_hat > 0.0) & (x0_hat < 1.0)  # clamp pass-through
    return losses, g_img, gen.errors


def guided_x0_batch(
    x_t: np.ndarray,
    t: int,
    denoiser: DenoiserInterface,
    cond: np.ndarray | None,
    target: AxisObservation,
    rays: np.ndarray,
    guidance: GuidanceParams,
    sched: DiffusionSchedule,
) -> tuple[np.ndarray, np.ndarray, list[Exception | None]]:
    """Guided clean-image estimates for a batch x_t of shape (B, H, W, 3),
    from one denoiser forward x0_hat and one geo_image_gradient of it
    against target (B records) and its ray map rays, with the norm of each
    item's change to x0_hat and its soft-extraction error.

    The soft threshold's sharpness is guidance.sharpness * abar_t: x0_hat is
    a posterior mean, blurred in proportion to the noise, and a sharp
    threshold at 0.5 hides its fainter modes from the gradient, so the
    threshold sharpens as the signal fraction abar_t tends to 1.

    Item b's estimate is x0_hat - rho_eff * (1 - abar_t) / abar_t *
    d L_geo / d x0_hat, the gradient taken with x0_hat held fixed, so the
    denoiser is never differentiated (He et al., arXiv:2311.16424), and
    rho_eff = guidance.rho_base / (sqrt(L_geo) + 1e-6), which keeps the
    correction stable across timesteps.
    Its correction is skipped, returning x0_hat and the exception in
    errors[b], when soft extraction of x0_hat fails: a channel with no soft
    mass (VanishingMass) or three mutually parallel axis lines
    (NoIntersection).
    """
    x0_hat = denoiser.evaluate(x_t, t, cond)
    ab = sched.abar(t)
    losses, correction, errors = geo_image_gradient(x0_hat, target, guidance.sharpness * ab, rays)
    rho_eff = np.where(np.isnan(losses), 0.0, guidance.rho_base / (np.sqrt(losses) + 1e-6))
    correction *= (rho_eff * (1.0 - ab) / ab).astype(correction.dtype)[:, None, None, None]
    guided = x0_hat - correction
    # each item's norm as np.linalg.norm takes it, with the squares in place
    squares = np.multiply(correction, correction, out=correction).reshape(len(correction), -1)
    return guided, np.sqrt(np.add.reduce(squares, axis=1)), errors


# --- sampling ---

def uniform_timesteps(sched: DiffusionSchedule, steps: int) -> list[int]:
    """Uniformly strided descending subset of 1..T, always including t = 1."""
    if not 1 <= steps <= sched.T:
        raise ValueError("steps must lie in 1..T")
    ts = np.unique(np.round(np.linspace(1, sched.T, steps)).astype(int))
    return list(ts[::-1])


def gaussian_optimal_timesteps(sched: DiffusionSchedule, steps: int, data_var: float) -> list[int]:
    """Timestep subset minimizing deterministic-sampler transport error for
    Gaussian data of the given variance.

    Spacing is uniform in atan(tan(theta)/s) with theta = arcsin(sqrt(1-abar))
    and s the data standard deviation, which equalizes the per-step variance
    contraction of the implicit update.
    """
    if not 1 <= steps <= sched.T:
        raise ValueError("steps must lie in 1..T")
    if data_var <= 0:
        raise ValueError("data_var must be positive")
    s = math.sqrt(data_var)
    u = np.sqrt((1.0 - sched.alpha_bar) / sched.alpha_bar)
    phi = np.arctan(u / s)
    targets = np.linspace(phi[0], phi[-1], steps)
    ts = np.unique([int(np.argmin(np.abs(phi - p))) + 1 for p in targets])
    return list(ts[::-1])


def sample(
    denoiser: DenoiserInterface,
    conds: Sequence[np.ndarray | None],
    targets: Sequence[AxisObservation | None],
    guidance: GuidanceParams | None,
    sched: DiffusionSchedule,
    steps: int,
    rngs: Sequence[np.random.Generator],
    shape: tuple[int, int],
) -> tuple[np.ndarray, np.ndarray, list[list[Exception | None]]]:
    """Full deterministic reverse chains of ``steps`` uniformly strided
    timesteps, one per record, producing (H, W) = ``shape`` tri-axis images,
    guided toward the targets unless guidance is None or has rho_base 0.

    Record b has its own condition, target and generator; the guidance
    settings are the run's. Its initial noise comes from rngs[b] alone, in
    float64, and the chain rounds it once to the denoiser's dtype, so its
    image does not depend on the other records up to floating-point
    rounding, which may differ between a batched and a single matrix
    product. A denoiser taking no condition gets cond None for every record.

    Returns (images, norms, errors), in the style of ``guided_x0_batch``:
    the images (B, H, W, 3) clipped to [0, 1] in the chain's dtype; norms
    (B, steps), float64, each step's correction norm per record, 0 when
    unguided or skipped; and errors[b][i], the exception that made record
    b skip the guidance of step i, or None.
    """
    ts = uniform_timesteps(sched, steps)
    # the chain runs in the denoiser's dtype, from float64 draws rounded once
    x = np.stack([rng.standard_normal((shape[0], shape[1], 3)) for rng in rngs]).astype(denoiser.dtype, copy=False)
    cond = None
    if conds[0] is not None:  # prepared once for the whole chain
        cond = denoiser.prepare_condition(np.stack(conds))
    guided = guidance is not None and guidance.rho_base != 0.0
    if guided:  # the targets and the image shape are fixed along a chain
        target = AxisObservation.stack(targets)
        rays = ray_distance_map(target, shape).astype(x.dtype, copy=False)
    step_norms, step_errors = [], []
    for i, t in enumerate(ts):
        t_prev = ts[i + 1] if i + 1 < len(ts) else 0
        if guided:
            x0_hat, norms, errors = guided_x0_batch(x, t, denoiser, cond, target, rays, guidance, sched)
        else:
            x0_hat, norms, errors = denoiser.evaluate(x, t, cond), np.zeros(len(x)), [None] * len(x)
        x = ddim_step(x, t, x0_hat, sched, t_prev=t_prev)
        step_norms.append(norms)
        step_errors.append(errors)
    norms = np.stack(step_norms, axis=1).astype(float, copy=False)
    return np.clip(x, 0.0, 1.0), norms, [list(errors) for errors in zip(*step_errors)]
