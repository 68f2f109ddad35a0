"""Skill refiner: contact filter, IG selection."""

from .filter import (
    DEFAULT_PARTICLES,
    ContactMeasurement,
    NoiseConfig,
    ParticleSet,
    RelativePoseError,
    contact_likelihood,
    effective_sample_size,
    end_effector_target,
    filter_estimate,
    filter_init,
    filter_predict,
    filter_update,
    resample,
    state_entropy,
    weight_entropy,
)
from .loop import RefinementConfig, RefinementResult, StepDiagnostics, run_refinement
from .strategy import (
    StrategySelection,
    StrategySet,
    sample_contact_candidates,
    select_contact_strategy,
)

__all__ = [
    "NoiseConfig",
    "RelativePoseError",
    "ParticleSet",
    "ContactMeasurement",
    "contact_likelihood",
    "filter_init",
    "filter_predict",
    "filter_update",
    "filter_estimate",
    "resample",
    "effective_sample_size",
    "weight_entropy",
    "state_entropy",
    "end_effector_target",
    "DEFAULT_PARTICLES",
    "StrategySet",
    "StrategySelection",
    "sample_contact_candidates",
    "select_contact_strategy",
    "RefinementConfig",
    "RefinementResult",
    "StepDiagnostics",
    "run_refinement",
]
