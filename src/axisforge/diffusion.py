"""DDPM/DDIM machinery with geometric-consistency guidance.

The sampler is deterministic DDIM (eta = 0, Song et al., arXiv:2010.02502):
each step predicts the clean image from the current noise estimate, then
re-mixes it with that estimate at the next noise level. Guidance adds a
measurement-consistency correction to the predicted noise, scaled by
sqrt(1 - alpha_bar_t). Its loss measures the clean-image estimate x0_hat:
the axis directions, each weighted by its channel's anisotropy, and the
centroid of the softly-extracted observation (geo_loss), plus each
channel's mean squared distance from the target's axis ray. The correction
is d loss / d x0_hat / sqrt(alpha_bar_t), which leaves the denoiser
undifferentiated (manifold-preserving guidance, He et al.,
arXiv:2311.16424), so a guided step, ``guided_epsilon_batch``, costs one
denoiser forward. ``sample_batch`` runs several records through one
denoiser pass and one batched soft extraction per step, under one
GuidanceParams for the whole call and one target per record.

``GaussianDenoiser``, the exact noise predictor of a Gaussian data
distribution, gives an independent verification path for the sampler.
"""

from __future__ import annotations

import math
from abc import ABC, abstractmethod
from dataclasses import dataclass, field
from typing import Sequence

import numpy as np

from .config import GuidanceParams
from .errors import InvalidSchedule
from .extraction import (
    AxisObservation,
    ObservationAdjoint,
    ObservationBatch,
    soft_extract_with_pullback,
)
from .render import TriAxisImage, _pixel_grid


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


def forward_diffuse(x0: np.ndarray, t: int, sched: DiffusionSchedule, rng: np.random.Generator):
    """Sample x_t = sqrt(abar_t) x0 + sqrt(1 - abar_t) eps; returns (x_t, eps)."""
    ab = sched.abar(t)
    x0 = np.asarray(x0, dtype=float)
    eps = rng.standard_normal(x0.shape)
    return np.sqrt(ab) * x0 + np.sqrt(1.0 - ab) * eps, eps


def predict_x0(x_t: np.ndarray, t: int, eps_hat: np.ndarray, sched: DiffusionSchedule) -> np.ndarray:
    """Invert the forward marginal given a noise estimate."""
    ab = sched.abar(t)
    return (np.asarray(x_t, dtype=float) - np.sqrt(1.0 - ab) * np.asarray(eps_hat)) / np.sqrt(ab)


def ddim_step(
    x_t: np.ndarray,
    t: int,
    eps: np.ndarray,
    sched: DiffusionSchedule,
    t_prev: int,
) -> np.ndarray:
    """One deterministic implicit-sampler update from timestep t to t_prev."""
    if not 0 <= t_prev < t:
        raise ValueError("t_prev must satisfy 0 <= t_prev < t")
    ab_prev = sched.abar(t_prev)
    x0_hat = predict_x0(x_t, t, eps, sched)
    return np.sqrt(ab_prev) * x0_hat + np.sqrt(1.0 - ab_prev) * eps


class DenoiserInterface(ABC):
    """Noise predictor."""

    @abstractmethod
    def evaluate(self, x_t: np.ndarray, t: int, cond: np.ndarray | None = None) -> np.ndarray:
        """Predicted noise, same shape as x_t."""

    def prepare_condition(self, cond: np.ndarray):
        """cond in the form this denoiser evaluates fastest, for a caller that
        passes the same condition at many steps with unchanged weights, as a
        sampling chain does; evaluate takes either form. By default cond
        itself."""
        return cond


class GaussianDenoiser(DenoiserInterface):
    """Exact noise predictor for the elementwise Gaussian data distribution
    N(mean, var).

    The diffused marginal at t is N(sqrt(abar) mean, abar var + 1 - abar);
    the noise estimate is -sqrt(1 - abar) times its score.
    """

    def __init__(self, mean: np.ndarray, var: np.ndarray, sched: DiffusionSchedule):
        self.mean = np.asarray(mean, dtype=float)
        self.var = np.broadcast_to(np.asarray(var, dtype=float), self.mean.shape).copy()
        if np.any(self.var <= 0):
            raise ValueError("variances must be positive")
        self.sched = sched

    def evaluate(self, x_t, t, cond=None):
        ab = self.sched.abar(t)
        marg_var = ab * self.var + (1.0 - ab)
        return np.sqrt(1.0 - ab) * ((np.asarray(x_t, dtype=float) - np.sqrt(ab) * self.mean) / marg_var)


# --- geometric consistency ---

def geo_loss(
    gen: AxisObservation | ObservationBatch,
    gt: AxisObservation | ObservationBatch,
    dir_weight: np.ndarray | None = None,
):
    """Squared direction mismatch summed over axes, each axis weighted by
    dir_weight (default 1), plus squared centroid offset, with any leading
    batch axes of the observations and (B, 3) weights."""
    d = gen.dir - gt.dir
    c = gen.centroid - gt.centroid
    w = np.ones(3) if dir_weight is None else np.asarray(dir_weight, dtype=float)
    return (w[..., None, :] @ (d * d).sum(axis=-1)[..., None])[..., 0, 0] + (c * c).sum(axis=-1)


def geo_loss_adjoint(
    gen: AxisObservation | ObservationBatch,
    gt: AxisObservation | ObservationBatch,
    dir_weight: np.ndarray | None = None,
) -> ObservationAdjoint:
    """Gradient of geo_loss with respect to the generated observation(s)."""
    w = np.ones(3) if dir_weight is None else np.asarray(dir_weight, dtype=float)
    return ObservationAdjoint(
        origin_px=np.zeros(np.shape(gen.centroid)),
        dir=2.0 * w[..., None] * (gen.dir - gt.dir),
        centroid=2.0 * (gen.centroid - gt.centroid),
    )


def ray_distance_map(gt: AxisObservation | ObservationBatch, shape: tuple[int, int]) -> np.ndarray:
    """Squared pixel distance from every pixel to each target axis ray, the
    half-line from gt.origin_px along gt.dir[i], as an (H, W, 3) map, or a
    (B, H, W, 3) stack for a batch of targets."""
    rel = _pixel_grid(*shape) - gt.origin_px[..., None, None, :]  # ([B,] H, W, 2)
    along = np.maximum(rel @ np.swapaxes(gt.dir, -1, -2)[..., None, :, :], 0.0)  # ([B,] H, W, 3)
    return (rel * rel).sum(axis=-1, keepdims=True) - along * along


def geo_image_gradient(
    x0_hat: np.ndarray,
    target: ObservationBatch,
    sharpness: float,
    rays: np.ndarray | None = None,
) -> tuple[np.ndarray, np.ndarray, list[Exception | None]]:
    """Guidance losses of clip(x0_hat, 0, 1) for a batch x0_hat of shape
    (B, H, W, 3), and their gradients with respect to x0_hat, from one soft
    extraction and one pullback. Image b's loss is geo_loss of its soft
    observation against target b, each direction weighted by its channel's
    anisotropy, plus, summed over channels, the soft-weighted mean of the
    squared distance to the target's ray. The anisotropy weight vanishes
    smoothly as a channel nears isotropy, where the direction's adjoint is
    ill-defined, so the gradient stays bounded.

    ``rays`` is ray_distance_map(target, (H, W)), built here when not
    given. Returns (losses, grads, errors): a failed image has loss nan,
    gradient 0 and its VanishingMass or NoIntersection in errors.
    """
    if rays is None:
        rays = ray_distance_map(target, x0_hat.shape[1:3])
    gen, aniso, spread, pullback = soft_extract_with_pullback(np.clip(x0_hat, 0.0, 1.0), sharpness, rays)
    losses = geo_loss(gen, target, aniso) + spread.sum(axis=1)
    dir_err = ((gen.dir - target.dir) ** 2).sum(axis=-1)
    g_img = pullback(geo_loss_adjoint(gen, target, aniso), np.ones(aniso.shape), dir_err)
    return losses, g_img * ((x0_hat > 0.0) & (x0_hat < 1.0)), gen.errors  # clamp pass-through


def guided_epsilon_batch(
    x_t: np.ndarray,
    t: int,
    denoiser: DenoiserInterface,
    cond: np.ndarray | None,
    target: ObservationBatch,
    rays: np.ndarray,
    guidance: GuidanceParams,
    sched: DiffusionSchedule,
) -> tuple[np.ndarray, np.ndarray, list[Exception | None]]:
    """Adjusted noise estimates for a batch x_t of shape (B, H, W, 3), from
    one denoiser forward and one geo_image_gradient of the clean-image
    estimate x0_hat against target (B records) and its ray map rays, with
    each item's correction norm and soft-extraction error.

    The soft threshold's sharpness is guidance.sharpness * abar_t: x0_hat is
    a posterior mean, blurred in proportion to the noise, and a sharp
    threshold at 0.5 hides its fainter modes from the gradient, so the
    threshold sharpens as the signal fraction abar_t tends to 1.

    Item b's estimate is eps_phi + rho_eff * sqrt(1 - abar_t) * g, with
    g = d L_geo / d x0_hat / sqrt(abar_t) taken with eps_phi held fixed, so
    the denoiser is never differentiated (He et al., arXiv:2311.16424), and
    rho_eff = guidance.rho_base / (sqrt(L_geo) + 1e-6), which keeps the
    correction stable across timesteps. The DDIM update then moves x0_hat by
    -rho_eff * (1 - abar_t) / abar_t * d L_geo / d x0_hat.
    Its step is skipped, returning the raw estimate and the exception in
    errors[b], when soft extraction of x0_hat fails: a channel with no soft
    mass (VanishingMass) or three mutually parallel axis lines
    (NoIntersection).
    """
    eps = denoiser.evaluate(x_t, t, cond)
    x0_hat = predict_x0(x_t, t, eps, sched)
    ab = sched.abar(t)
    losses, grads, errors = geo_image_gradient(x0_hat, target, guidance.sharpness * ab, rays)
    grads = grads / np.sqrt(ab)
    rho_eff = np.where(np.isnan(losses), 0.0, guidance.rho_base / (np.sqrt(losses) + 1e-6))
    correction = (rho_eff * np.sqrt(1.0 - ab))[:, None, None, None] * grads
    return eps + correction, np.linalg.norm(correction.reshape(len(correction), -1), axis=1), errors


def _log_record(t: int, guidance_norm: float, error: Exception | None) -> dict:
    """One step's log entry: ``skipped`` is set, with the exception's type
    name in ``skip_reason``, when the step's guidance was skipped."""
    record = {"t": t, "guidance_norm": float(guidance_norm), "skipped": error is not None}
    if error is not None:
        record["skip_reason"] = type(error).__name__
    return record


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


@dataclass
class SampleResult:
    image: TriAxisImage
    log: list[dict] = field(default_factory=list)

    @property
    def skipped_steps(self) -> int:
        return sum(1 for r in self.log if r["skipped"])


def sample(
    denoiser: DenoiserInterface,
    cond: np.ndarray | None,
    target: AxisObservation | None,
    guidance: GuidanceParams | None,
    sched: DiffusionSchedule,
    steps: int,
    rng: np.random.Generator,
    shape: tuple[int, int],
) -> SampleResult:
    """Full deterministic reverse chain of ``steps`` uniformly strided
    timesteps producing an (H, W) = ``shape`` tri-axis image from the
    initial noise drawn from rng, guided toward target unless guidance is
    None or has rho_base 0.
    """
    return sample_batch(denoiser, [cond], [target], guidance, sched, steps, [rng], shape)[0]


def sample_batch(
    denoiser: DenoiserInterface,
    conds: Sequence[np.ndarray | None],
    targets: Sequence[AxisObservation | None],
    guidance: GuidanceParams | None,
    sched: DiffusionSchedule,
    steps: int,
    rngs: Sequence[np.random.Generator],
    shape: tuple[int, int],
) -> list[SampleResult]:
    """``sample`` for several records at once, one result per record.

    Record b has its own condition, target and generator; the guidance
    settings are the run's. Its initial noise comes from rngs[b] alone, so
    it draws the same numbers as ``sample`` would give it. Its image agrees
    with ``sample``'s up to floating-point rounding, which may differ between
    a batched and a single matrix product. A denoiser taking no condition
    gets cond None for every record.
    """
    ts = uniform_timesteps(sched, steps)
    x = np.stack([rng.standard_normal((shape[0], shape[1], 3)) for rng in rngs])
    cond = None
    if conds[0] is not None:  # prepared once for the whole chain
        cond = denoiser.prepare_condition(np.stack([np.asarray(c, dtype=float) for c in conds]))
    guided = guidance is not None and guidance.rho_base != 0.0
    if guided:  # the targets and the image shape are fixed along a chain
        target = ObservationBatch.stack(targets)
        rays = ray_distance_map(target, shape)
    steps_out = []  # (t, correction norms, errors) per step
    for i, t in enumerate(ts):
        t_prev = ts[i + 1] if i + 1 < len(ts) else 0
        if guided:
            eps, norms, errors = guided_epsilon_batch(x, t, denoiser, cond, target, rays, guidance, sched)
        else:
            eps, norms, errors = denoiser.evaluate(x, t, cond), np.zeros(len(x)), [None] * len(x)
        x = ddim_step(x, t, eps, sched, t_prev=t_prev)
        steps_out.append((t, norms, errors))
    return [
        SampleResult(
            image=TriAxisImage(np.clip(xb, 0.0, 1.0)),
            log=[_log_record(t, norms[b], errors[b]) for t, norms, errors in steps_out],
        )
        for b, xb in enumerate(x)
    ]
