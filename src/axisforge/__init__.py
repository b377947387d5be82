"""axisforge: tri-axis 6D pose pipeline.

Guided-diffusion generation of tri-axis projections, moment-based axis
extraction, and closed-form pose recovery from the tri-axis.

Submodule attributes are loaded lazily so that the CLI can apply its thread
cap before numpy is first imported.
"""

from importlib import import_module

__version__ = "0.1.0"

_EXPORTS = {
    # configuration
    "CameraIntrinsics": "config",
    "RenderParams": "config",
    "SamplingConfig": "config",
    "DegradationSpec": "config",
    "ArchConfig": "config",
    "OptConfig": "config",
    "GuidanceParams": "config",
    "RunConfig": "config",
    "default_intrinsics": "config",
    "load_config": "config",
    "save_config": "config",
    # camera_geometry
    "Pose": "camera",
    "AxisLines": "camera",
    "project_point": "camera",
    "project_triaxis": "camera",
    "project_axes": "camera",
    "random_rotation": "camera",
    "rot_x": "camera",
    "rot_y": "camera",
    "rot_z": "camera",
    # triaxis_render
    "TriAxisImage": "render",
    "QueryImage": "render",
    "render_triaxis": "render",
    "render_query": "render",
    "apply_degradation": "render",
    "save_f32": "render",
    "load_f32": "render",
    # axis_extraction
    "AxisObservation": "extraction",
    "ObservationAdjoint": "extraction",
    "ObservationBatch": "extraction",
    "extract_axes_hard": "extraction",
    "extract_axes_soft": "extraction",
    "soft_extract_vjp": "extraction",
    "soft_extract_with_pullback": "extraction",
    # tbm_solver
    "recover_pose": "solver",
    # diffusion_engine
    "DiffusionSchedule": "diffusion",
    "DenoiserInterface": "diffusion",
    "GaussianDenoiser": "diffusion",
    "SampleResult": "diffusion",
    "make_schedule": "diffusion",
    "forward_diffuse": "diffusion",
    "ddim_step": "diffusion",
    "geo_loss": "diffusion",
    "geo_loss_adjoint": "diffusion",
    "ray_distance_map": "diffusion",
    "uniform_timesteps": "diffusion",
    "gaussian_optimal_timesteps": "diffusion",
    "sample": "diffusion",
    "sample_batch": "diffusion",
    "MLPDenoiser": "denoiser",
    "TrainResult": "denoiser",
    "train_denoiser": "denoiser",
    "save_checkpoint": "denoiser",
    "load_checkpoint": "denoiser",
    # metrics_eval
    "ModelPoints": "metrics",
    "MetricsReport": "metrics",
    "cuboid_model": "metrics",
    "add_metric": "metrics",
    "reproj_metric": "metrics",
    "rotation_geodesic": "metrics",
    "evaluate_pair": "metrics",
    "evaluate_suite": "metrics",
    # pipeline / dataset
    "DatasetRecord": "dataset",
    "Manifest": "dataset",
    "record_seed": "dataset",
    "sample_pose": "dataset",
    "pose_is_nondegenerate": "dataset",
    "generate_dataset": "dataset",
    "load_manifest": "dataset",
    "load_images": "dataset",
    # errors
    "AxisForgeError": "errors",
}

__all__ = sorted(_EXPORTS) + ["errors", "oracle"]


def __getattr__(name):
    if name in _EXPORTS:
        return getattr(import_module(f".{_EXPORTS[name]}", __name__), name)
    if name in ("errors", "oracle", "cli"):
        return import_module(f".{name}", __name__)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


def __dir__():
    return __all__
