"""Multi-subband imaging (the outer loop of the paper's Fig 2).

The imaging step "for a single subband" (Fig 2's caption) runs once per
subband; wide-band imaging combines them.  This module provides:

* :func:`make_subbands` — split a wide band into the per-subband
  :class:`~repro.telescope.observation.Observation` objects the paper's
  pipeline iterates over;
* :class:`SpectralImager` — grids every subband with its own plan (the uv
  coordinates scale with frequency, so plans differ) and combines the
  per-subband dirty images by weighted mean: multi-frequency synthesis at
  the image level;
* :func:`fit_spectral_index` — per-pixel power-law fit across subband
  images, the first-order wide-band science product.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any

import numpy as np

from repro.aterms.generators import ATermGenerator
from repro.core.pipeline import IDG
from repro.imaging.pipeline import ImagingContext, make_ftprocessor
from repro.telescope.observation import Observation, subband_frequencies


def make_subbands(
    base: Observation,
    n_subbands: int,
    subband_width_hz: float | None = None,
) -> list[Observation]:
    """Split an observation's band into contiguous subbands.

    Each subband keeps the base observation's array, time sampling and
    channel count; its channels start where the previous subband ends.
    """
    if n_subbands <= 0:
        raise ValueError("n_subbands must be positive")
    channel_width = (
        float(np.diff(base.frequencies_hz).mean())
        if base.n_channels > 1
        else 200e3
    )
    if subband_width_hz is None:
        subband_width_hz = base.n_channels * channel_width
    out = []
    for k in range(n_subbands):
        start = base.frequencies_hz[0] + k * subband_width_hz
        freqs = subband_frequencies(start, base.n_channels, channel_width)
        out.append(
            Observation(
                array=base.array,
                n_times=base.n_times,
                integration_time_s=base.integration_time_s,
                frequencies_hz=freqs,
                declination_rad=base.declination_rad,
                hour_angle_start_rad=base.hour_angle_start_rad,
            )
        )
    return out


@dataclass
class SubbandImage:
    """One subband's imaging product."""

    frequency_hz: float
    image: np.ndarray
    weight: float


class SpectralImager:
    """Images a list of subbands with IDG and combines them.

    All subbands share the IDG instance's grid geometry (the field of view
    is fixed; uv *pixel* coordinates differ per subband because they scale
    with frequency, which each subband's own plan accounts for).

    ``kind`` selects the :class:`~repro.imaging.pipeline.FTProcessor`
    variant for the per-subband inverts (``"2d"``, ``"wstack"``,
    ``"facets"``, ...), with ``ft_options`` forwarded to its constructor.
    Per-visibility imaging weights (e.g. Briggs from
    :mod:`repro.imaging.weighting`) and A-terms go through the processor —
    weighted wide-band imaging is the composition of the two modules.
    """

    def __init__(self, idg: IDG, kind: str = "2d", **ft_options: Any):
        self.idg = idg
        self.kind = kind
        self.ft_options = ft_options

    def image_subband(
        self,
        observation: Observation,
        visibilities: np.ndarray,
        aterms: ATermGenerator | None = None,
        weights: np.ndarray | None = None,
    ) -> SubbandImage:
        """Dirty Stokes-I image of one subband."""
        context = ImagingContext(
            idg=self.idg,
            uvw_m=observation.uvw_m,
            frequencies_hz=observation.frequencies_hz,
            baselines=observation.array.baselines(),
            aterms=aterms,
        )
        processor = make_ftprocessor(context, kind=self.kind, **self.ft_options)
        result = processor.invert(visibilities, weights=weights)
        return SubbandImage(
            frequency_hz=float(observation.frequencies_hz.mean()),
            image=result.image,
            weight=result.weight_sum,
        )

    def mfs_image(self, subband_images: list[SubbandImage]) -> np.ndarray:
        """Weighted mean of the subband images (image-plane MFS)."""
        if not subband_images:
            raise ValueError("no subband images to combine")
        total_weight = sum(s.weight for s in subband_images)
        if total_weight <= 0:
            raise ValueError("subband weights must be positive")
        return sum(s.weight * s.image for s in subband_images) / total_weight


def fit_spectral_index(
    subband_images: list[SubbandImage],
    threshold: float,
) -> np.ndarray:
    """Per-pixel spectral index ``alpha`` with ``I(nu) ~ nu**alpha``.

    A least-squares line fit of ``log I`` against ``log nu`` per pixel;
    pixels whose flux drops below ``threshold`` in any subband get NaN
    (the fit is meaningless in the noise).
    """
    if len(subband_images) < 2:
        raise ValueError("need at least two subbands to fit a spectral index")
    freqs = np.array([s.frequency_hz for s in subband_images])
    cube = np.stack([s.image for s in subband_images])  # (S, G, G)
    valid = np.all(cube > threshold, axis=0)
    log_nu = np.log(freqs)
    log_nu = log_nu - log_nu.mean()
    denominator = (log_nu**2).sum()
    with np.errstate(invalid="ignore", divide="ignore"):
        log_flux = np.where(cube > 0, np.log(np.where(cube > 0, cube, 1.0)), 0.0)
        alpha = np.tensordot(log_nu, log_flux, axes=(0, 0)) / denominator
    alpha[~valid] = np.nan
    return alpha
