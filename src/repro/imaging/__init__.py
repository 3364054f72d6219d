"""Imaging layer: dirty images, PSFs, weighting, CLEAN and the major cycle.

This package implements the surrounding machinery of the paper's Fig 2: the
imaging step (gridding + inverse FFT + grid correction), source extraction
with Hogbom CLEAN, and the predict step (model image -> FFT -> degridding),
iterated until the sky model converges.  IDG (or any baseline gridder with
the same interface) slots in as the gridding/degridding pair — the "drop-in
replacement" of Fig 4.
"""

from repro.imaging.image import (
    dirty_image_from_grid,
    model_image_to_grid,
    stokes_i_image,
)
from repro.imaging.weighting import natural_weights, uniform_weights, apply_weights
from repro.imaging.clean import CleanResult, hogbom_clean
from repro.imaging.cycle import ImagingCycle, MajorCycleResult
from repro.imaging.metrics import (
    BeamFit,
    dynamic_range,
    fit_beam,
    image_rms,
    model_fidelity,
)
from repro.imaging.restore import gaussian_beam_kernel, restore_image
from repro.imaging.spectral import (
    SpectralImager,
    SubbandImage,
    fit_spectral_index,
    make_subbands,
)
from repro.imaging.facets import (
    Facet,
    FacetScheme,
    facet_rotation_phasor,
    facet_shifted_uvw,
    plan_facets,
)
from repro.imaging.pipeline import (
    FTProcessor,
    ImagingContext,
    InvertResult,
    make_ftprocessor,
)

__all__ = [
    "dirty_image_from_grid",
    "model_image_to_grid",
    "stokes_i_image",
    "natural_weights",
    "uniform_weights",
    "apply_weights",
    "CleanResult",
    "hogbom_clean",
    "ImagingCycle",
    "MajorCycleResult",
    "BeamFit",
    "dynamic_range",
    "fit_beam",
    "image_rms",
    "model_fidelity",
    "gaussian_beam_kernel",
    "restore_image",
    "SpectralImager",
    "SubbandImage",
    "fit_spectral_index",
    "make_subbands",
    "Facet",
    "FacetScheme",
    "facet_rotation_phasor",
    "facet_shifted_uvw",
    "plan_facets",
    "FTProcessor",
    "ImagingContext",
    "InvertResult",
    "make_ftprocessor",
]
