"""DDPM/DDIM machinery with geometric-consistency guidance.

The sampler is deterministic DDIM (eta = 0, Song et al., arXiv:2010.02502):
each step predicts the clean image from the current noise estimate, then
re-mixes it with that estimate at the next noise level. Guidance adds the
gradient of a measurement-consistency loss to the predicted noise, scaled
by sqrt(1 - alpha_bar_t): the axis directions, each weighted by its
channel's anisotropy, and the centroid of the softly-extracted observation
of the clean-image estimate (geo_loss), plus each channel's mean squared
distance from the target's axis ray. The gradient runs through the
clean-image estimate into the denoiser (Chung et al., arXiv:2209.14687).
``sample_batch`` runs several records through one denoiser pass and one
batched soft extraction per step.

An analytic Gaussian score field doubles as a denoiser for which every
quantity is exact, giving an independent verification path for the sampler.
"""

from __future__ import annotations

import math
from abc import ABC, abstractmethod
from dataclasses import dataclass, field
from typing import Callable, Sequence

import numpy as np

from .errors import InvalidSchedule
from .extraction import (
    DEFAULT_SHARPNESS,
    AxisObservation,
    ObservationAdjoint,
    ObservationBatch,
    soft_extract_with_pullback,
)
from .render import TriAxisImage


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
    t_prev: int | None = None,
) -> np.ndarray:
    """One deterministic implicit-sampler update from timestep t to t_prev
    (default t - 1)."""
    if t_prev is None:
        t_prev = t - 1
    if not 0 <= t_prev < t:
        raise ValueError("t_prev must satisfy 0 <= t_prev < t")
    ab_prev = sched.abar(t_prev)
    x0_hat = predict_x0(x_t, t, eps, sched)
    return np.sqrt(ab_prev) * x0_hat + np.sqrt(1.0 - ab_prev) * eps


class DenoiserInterface(ABC):
    """Noise predictor whose forward pass also returns its input-side
    vector-Jacobian product."""

    @abstractmethod
    def evaluate(self, x_t: np.ndarray, t: int, cond: np.ndarray | None = None) -> np.ndarray:
        """Predicted noise, same shape as x_t."""

    @abstractmethod
    def evaluate_with_pullback(
        self, x_t: np.ndarray, t: int, cond: np.ndarray | None = None
    ) -> tuple[np.ndarray, Callable[[np.ndarray], np.ndarray]]:
        """evaluate(x_t) and the pullback cotangent -> d<cotangent, evaluate(x_t)>/d x_t."""

    def prepare_condition(self, cond: np.ndarray):
        """cond in the form this denoiser evaluates fastest, for a caller that
        passes the same condition at many steps with unchanged weights, as a
        sampling chain does; evaluate and evaluate_with_pullback take either
        form. By default cond itself."""
        return cond

    def vjp(
        self, x_t: np.ndarray, t: int, cond: np.ndarray | None, cotangent: np.ndarray
    ) -> np.ndarray:
        """d<cotangent, evaluate(x_t)>/d x_t."""
        return self.evaluate_with_pullback(x_t, t, cond)[1](cotangent)


@dataclass(frozen=True)
class GaussianScoreField:
    """Elementwise Gaussian data distribution N(mean, var) with known score."""

    mean: np.ndarray
    var: np.ndarray

    def __post_init__(self):
        m = np.asarray(self.mean, dtype=float)
        v = np.broadcast_to(np.asarray(self.var, dtype=float), m.shape).copy()
        if np.any(v <= 0):
            raise ValueError("variances must be positive")
        object.__setattr__(self, "mean", m)
        object.__setattr__(self, "var", v)


class _GaussianDenoiser(DenoiserInterface):
    """Exact noise predictor for a Gaussian data distribution.

    The diffused marginal at t is N(sqrt(abar) mean, abar var + 1 - abar);
    the noise estimate is -sqrt(1 - abar) times its score.
    """

    def __init__(self, fld: GaussianScoreField, sched: DiffusionSchedule):
        self.field = fld
        self.sched = sched

    def score(self, x_t: np.ndarray, t: int) -> np.ndarray:
        ab = self.sched.abar(t)
        marg_var = ab * self.field.var + (1.0 - ab)
        return -(np.asarray(x_t, dtype=float) - np.sqrt(ab) * self.field.mean) / marg_var

    def evaluate(self, x_t, t, cond=None):
        ab = self.sched.abar(t)
        return -np.sqrt(1.0 - ab) * self.score(x_t, t)

    def evaluate_with_pullback(self, x_t, t, cond=None):
        ab = self.sched.abar(t)
        gain = np.sqrt(1.0 - ab) / (ab * self.field.var + (1.0 - ab))
        return self.evaluate(x_t, t, cond), lambda cot: gain * np.asarray(cot, dtype=float)


def gaussian_denoiser(fld: GaussianScoreField, sched: DiffusionSchedule) -> _GaussianDenoiser:
    return _GaussianDenoiser(fld, sched)


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
    vv, uu = np.mgrid[0 : shape[0], 0 : shape[1]].astype(float)
    rel = np.stack([uu, vv], axis=-1) - gt.origin_px[..., None, None, :]  # ([B,] H, W, 2)
    along = np.maximum(rel @ np.swapaxes(gt.dir, -1, -2)[..., None, :, :], 0.0)  # ([B,] H, W, 3)
    return (rel * rel).sum(axis=-1, keepdims=True) - along * along


@dataclass(frozen=True)
class GuidanceConfig:
    """Measurement-consistency guidance settings.

    rho is the guidance step size; the effective scale is
    rho / (sqrt(loss) + 1e-6), keeping the correction stable across
    timesteps. sharpness is the soft threshold's sharpness at the end of
    sampling; guidance_sharpness gives the one used at each timestep.
    """

    target: AxisObservation
    rho: float = 1.0
    sharpness: float = DEFAULT_SHARPNESS

    def __post_init__(self):
        if self.rho < 0:
            raise ValueError("rho must be >= 0")
        if self.sharpness <= 0:
            raise ValueError("sharpness must be positive")


def geo_image_gradient(
    x0_hat: np.ndarray,
    target: ObservationBatch,
    sharpness: float | np.ndarray,
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

    sharpness is a number or one per image; ``rays`` is
    ray_distance_map(target, (H, W)), built here when not given. Returns
    (losses, grads, errors): a failed image has loss nan, gradient 0 and its
    VanishingMass or NoIntersection in errors.
    """
    if rays is None:
        rays = ray_distance_map(target, x0_hat.shape[1:3])
    gen, aniso, spread, pullback = soft_extract_with_pullback(np.clip(x0_hat, 0.0, 1.0), sharpness, rays)
    losses = geo_loss(gen, target, aniso) + spread.sum(axis=1)
    dir_err = ((gen.dir - target.dir) ** 2).sum(axis=-1)
    g_img = pullback(geo_loss_adjoint(gen, target, aniso), np.ones(aniso.shape), dir_err)
    return losses, g_img * ((x0_hat > 0.0) & (x0_hat < 1.0)), gen.errors  # clamp pass-through


def guidance_sharpness(sharpness: float | np.ndarray, t: int, sched: DiffusionSchedule) -> float | np.ndarray:
    """Soft-threshold sharpness of the guidance measurement at timestep t:
    sharpness * abar_t. The clean-image estimate at t is a posterior mean,
    blurred in proportion to the noise, and a sharp threshold at 0.5 hides
    its fainter modes from the gradient; the threshold sharpens as the
    signal fraction abar_t tends to 1."""
    return sharpness * sched.abar(t)


class GuidanceBatch:
    """The guidances of a batch of B items, stacked once for a whole chain.

    An item is guided when its GuidanceConfig is given and has rho != 0;
    ``index`` lists the guided items, and ``rho``, ``sharpness``, ``target``
    (an ObservationBatch) and ``rays`` (their ray_distance_map, (G, H, W, 3))
    hold their settings in that order. A target and the image shape are
    fixed along a chain, so each ray map is built once per sample_batch
    call, not at every step.
    """

    def __init__(self, guidances: Sequence[GuidanceConfig | None], shape: tuple[int, int]):
        self.size = len(guidances)
        guided = [(b, g) for b, g in enumerate(guidances) if g is not None and g.rho != 0.0]
        self.index = np.array([b for b, _ in guided], dtype=int)
        self.rho = np.array([g.rho for _, g in guided])
        self.sharpness = np.array([g.sharpness for _, g in guided])
        self.target = ObservationBatch.stack([g.target for _, g in guided]) if guided else None
        self.rays = ray_distance_map(self.target, shape) if guided else None


def geo_guidance_gradient_batch(
    x_t: np.ndarray,
    t: int,
    denoiser: DenoiserInterface,
    cond: np.ndarray | None,
    guidances: GuidanceBatch,
    sched: DiffusionSchedule,
) -> tuple[np.ndarray, np.ndarray, np.ndarray, list[Exception | None]]:
    """Noise estimate, guidance losses and d loss / d x_t for a batch x_t of
    shape (B, H, W, 3), from one denoiser forward, one geo_image_gradient
    and one denoiser pullback.

    Item b's chain is x_t -> eps_hat -> x0_hat -> geo_image_gradient's loss
    at guidance_sharpness; x0_hat depends on x_t both directly and through
    the denoiser. Returns (eps_hat, losses, grads, errors). An unguided item
    has loss nan and gradient 0, and with no guided item the denoiser runs
    without its pullback. An item whose soft extraction fails has loss nan,
    gradient 0 and its exception in errors[b].
    """
    guided = guidances.index
    losses = np.full(guidances.size, np.nan)
    errors = np.full(guidances.size, None, dtype=object)
    if not len(guided):
        return denoiser.evaluate(x_t, t, cond), losses, np.zeros(np.shape(x_t)), errors.tolist()
    eps, pullback = denoiser.evaluate_with_pullback(x_t, t, cond)
    x0_hat = predict_x0(x_t, t, eps, sched)
    g_img = np.zeros_like(x0_hat)
    losses[guided], g_img[guided], errors[guided] = geo_image_gradient(
        x0_hat[guided], guidances.target, guidance_sharpness(guidances.sharpness, t, sched), guidances.rays
    )
    ab = sched.abar(t)
    return eps, losses, (g_img - np.sqrt(1.0 - ab) * pullback(g_img)) / np.sqrt(ab), errors.tolist()


def guided_epsilon_batch(
    x_t: np.ndarray,
    t: int,
    denoiser: DenoiserInterface,
    cond: np.ndarray | None,
    guidances: GuidanceBatch,
    sched: DiffusionSchedule,
) -> tuple[np.ndarray, np.ndarray, list[Exception | None]]:
    """Adjusted noise estimates for a batch x_t of shape (B, H, W, 3), each
    item with its own guidance, from one geo_guidance_gradient_batch call,
    with each item's correction norm and soft-extraction error.

    Item b's estimate is eps_phi + rho_eff * sqrt(1 - abar_t) * grad L_geo.
    Its step is skipped, returning the raw estimate and the exception in
    errors[b], when soft extraction of the current clean-image prediction
    fails: a channel with no soft mass (VanishingMass) or three mutually
    parallel axis lines (NoIntersection).
    """
    eps, losses, grads, errors = geo_guidance_gradient_batch(x_t, t, denoiser, cond, guidances, sched)
    rho = np.zeros(guidances.size)
    rho[guidances.index] = guidances.rho
    rho_eff = np.where(np.isnan(losses), 0.0, rho / (np.sqrt(losses) + 1e-6))
    correction = (rho_eff * np.sqrt(1.0 - sched.abar(t)))[:, None, None, None] * grads
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
    guidance: GuidanceConfig | None,
    sched: DiffusionSchedule,
    steps,
    rng: np.random.Generator,
    shape: tuple[int, int] = None,
) -> SampleResult:
    """Full deterministic reverse chain producing a tri-axis image from the
    initial noise drawn from rng.

    ``steps`` is either a step count (uniform stride) or an explicit
    descending timestep sequence ending at 1. ``shape`` is (H, W); it may be
    omitted when the denoiser declares an image_size.
    """
    return sample_batch(denoiser, [cond], [guidance], sched, steps, [rng], shape)[0]


def sample_batch(
    denoiser: DenoiserInterface,
    conds: Sequence[np.ndarray | None],
    guidances: Sequence[GuidanceConfig | None],
    sched: DiffusionSchedule,
    steps,
    rngs: Sequence[np.random.Generator],
    shape: tuple[int, int] = None,
) -> list[SampleResult]:
    """``sample`` for several records at once, one result per record.

    Record b has its own condition, guidance and generator: its initial
    noise comes from rngs[b] alone, so it draws the same numbers as
    ``sample`` would give it. Its image agrees with ``sample``'s up to
    floating-point rounding, which may differ between a batched and a
    single matrix product. A denoiser taking no condition gets cond None
    for every record.
    """
    if shape is None:
        size = getattr(denoiser, "image_size", None)
        if size is None:
            raise ValueError("shape required when the denoiser has no image_size")
        shape = (size, size)
    ts = uniform_timesteps(sched, steps) if isinstance(steps, int) else [int(t) for t in steps]
    if ts[-1] != 1 or any(b >= a for a, b in zip(ts, ts[1:])):
        raise ValueError("timesteps must be strictly decreasing and end at 1")
    if ts[0] > sched.T:
        raise ValueError("timesteps exceed schedule length")

    x = np.stack([rng.standard_normal((shape[0], shape[1], 3)) for rng in rngs])
    cond = None
    if conds[0] is not None:  # prepared once for the whole chain
        cond = denoiser.prepare_condition(np.stack([np.asarray(c, dtype=float) for c in conds]))
    guided = GuidanceBatch(guidances, shape)
    steps_out = []  # (t, correction norms, errors) per step
    for i, t in enumerate(ts):
        t_prev = ts[i + 1] if i + 1 < len(ts) else 0
        eps, norms, errors = guided_epsilon_batch(x, t, denoiser, cond, guided, sched)
        x = ddim_step(x, t, eps, sched, t_prev=t_prev)
        steps_out.append((t, norms, errors))
    return [
        SampleResult(
            image=TriAxisImage(np.clip(xb, 0.0, 1.0)),
            log=[_log_record(t, norms[b], errors[b]) for t, norms, errors in steps_out],
        )
        for b, xb in enumerate(x)
    ]
