"""axisforge: tri-axis 6D pose pipeline.

Guided-diffusion generation of tri-axis projections, moment-based axis
extraction, and closed-form pose recovery from the tri-axis.

Each name is imported from the module that defines it, for example
``from axisforge.solver import recover_pose``. This file imports nothing,
so the CLI can apply its thread cap before numpy is first imported.
"""
