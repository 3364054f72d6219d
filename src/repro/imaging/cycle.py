"""The imaging major cycle (paper Fig 2).

One *imaging cycle* is: grid the residual visibilities and inverse-FFT to a
dirty image; CLEAN the brightest emission into the sky model; predict the
model back to visibilities (FFT + degridding) and subtract — revealing
fainter structure for the next cycle.  The paper benchmarks exactly one such
cycle (Fig 9/14: "Distribution of runtime/energy for one full imaging
cycle"); this module also iterates it to convergence, since that is what a
downstream user runs.

The gridder/degridder pair is pluggable: anything exposing the
:class:`repro.core.IDG` interface (``make_plan``/``grid``/``degrid``) works,
which is how the W-projection baseline is compared end-to-end.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro.aterms.generators import ATermGenerator
from repro.aterms.schedule import ATermSchedule
from repro.constants import COMPLEX_DTYPE
from repro.core.pipeline import IDG
from repro.core.scratch import trim_thread_arenas
from repro.imaging.clean import CleanResult, hogbom_clean
from repro.imaging.image import dirty_image_from_grid, model_image_to_grid


@dataclass
class MajorCycleResult:
    """Result of :meth:`ImagingCycle.run`.

    Attributes
    ----------
    model_image:
        ``(G, G)`` real CLEAN-component image (Stokes I).
    residual_image:
        Final ``(G, G)`` Stokes-I residual dirty image.
    psf:
        ``(G, G)`` point spread function used by CLEAN.
    cycles:
        Per-major-cycle :class:`CleanResult` records.
    residual_rms_history:
        Residual-image rms after each major cycle.
    """

    model_image: np.ndarray
    residual_image: np.ndarray
    psf: np.ndarray
    cycles: list[CleanResult]
    residual_rms_history: list[float]

    @property
    def n_major_cycles(self) -> int:
        return len(self.cycles)

    def total_clean_flux(self) -> float:
        return float(sum(c.component_flux() for c in self.cycles))

    def restored(self):
        """Restored image: model convolved with the fitted clean beam plus
        the residual (see :mod:`repro.imaging.restore`).

        Returns ``(restored_image, beam_fit)``.
        """
        from repro.imaging.restore import restore_image

        return restore_image(self.model_image, self.residual_image, psf=self.psf)


class ImagingCycle:
    """Drives major cycles over a fixed observation with a given gridder.

    ``processor`` optionally replaces the direct grid/IFFT path with any
    :class:`repro.imaging.pipeline.FTProcessor` (w-stacked, faceted, ...);
    the major-cycle logic is identical, only invert/predict are delegated.

    The direct path transforms Stokes I only.  Stokes I is linear in the
    grid, so the dirty image (and the PSF) comes from the one plane
    ``0.5 * (XX + YY)`` of the gridded correlations, and a Stokes-I model
    is transformed once and written into the XX and YY planes of the model
    grid: one ``G x G`` FFT per direction instead of four.
    """

    def __init__(
        self,
        idg: IDG,
        uvw_m: np.ndarray,
        frequencies_hz: np.ndarray,
        baselines: np.ndarray,
        aterms: ATermGenerator | None = None,
        aterm_schedule: ATermSchedule | None = None,
        processor=None,
    ):
        self.idg = idg
        self.uvw_m = np.asarray(uvw_m, dtype=np.float64)
        self.frequencies_hz = np.atleast_1d(np.asarray(frequencies_hz, dtype=np.float64))
        self.baselines = np.asarray(baselines)
        self.aterms = aterms
        self.processor = processor
        if processor is not None:
            self.plan = processor.plan
        else:
            self.plan = idg.make_plan(
                self.uvw_m, self.frequencies_hz, self.baselines,
                aterm_schedule=aterm_schedule,
            )
        self._weight_sum = float(self.plan.statistics.n_visibilities_gridded)

    # ------------------------------------------------------------ building
    def make_dirty_image(self, visibilities: np.ndarray) -> np.ndarray:
        """Stokes-I dirty image of a visibility set (grid + IFFT + correct)."""
        if self.processor is not None:
            # Only override the processor's own A-term default when this
            # cycle was given one explicitly.
            if self.aterms is not None:
                return self.processor.invert(visibilities, aterms=self.aterms).stokes_i
            return self.processor.invert(visibilities).stokes_i
        grid = self.idg.grid(self.plan, self.uvw_m, visibilities, aterms=self.aterms)
        # Re(IFFT(0.5 (XX + YY))) == stokes_i_image(IFFT(grid)), one plane
        stokes_i_grid = 0.5 * (grid[0] + grid[3])
        image = dirty_image_from_grid(
            stokes_i_grid, self.idg.gridspec, weight_sum=self._weight_sum,
            taper=self.idg.config.taper, taper_beta=self.idg.config.taper_beta,
        )
        return np.real(image)

    def make_psf(self) -> np.ndarray:
        """PSF: the image of unit visibilities, normalised to peak 1."""
        shape = self.plan.flagged.shape + (2, 2)
        unit = np.zeros(shape, dtype=np.complex64)
        unit[..., 0, 0] = 1.0
        unit[..., 1, 1] = 1.0
        psf = self.make_dirty_image(unit)
        centre = self.idg.gridspec.grid_size // 2
        peak = psf[centre, centre]
        if peak == 0:
            raise RuntimeError("PSF centre is zero — no visibilities were gridded")
        return psf / peak

    def predict(self, model_image_stokes_i: np.ndarray) -> np.ndarray:
        """Predict visibilities of a Stokes-I model image (FFT + degrid)."""
        if self.processor is not None:
            if self.aterms is not None:
                return self.processor.predict(model_image_stokes_i, aterms=self.aterms)
            return self.processor.predict(model_image_stokes_i)
        g = self.idg.gridspec.grid_size
        stokes_i_grid = model_image_to_grid(
            np.asarray(model_image_stokes_i), self.idg.gridspec,
            taper=self.idg.config.taper, taper_beta=self.idg.config.taper_beta,
        )
        grid = np.zeros((4, g, g), dtype=COMPLEX_DTYPE)
        grid[0] = stokes_i_grid  # XX = YY = I (B = I*eye convention)
        grid[3] = stokes_i_grid
        return self.idg.degrid(self.plan, self.uvw_m, grid, aterms=self.aterms)

    # ------------------------------------------------------------- driving
    def run(
        self,
        visibilities: np.ndarray,
        n_major: int = 3,
        gain: float = 0.1,
        minor_iterations: int = 200,
        threshold_factor: float = 3.0,
        clean_window_fraction: float = 0.75,
        major_gain: float = 0.8,
    ) -> MajorCycleResult:
        """Run up to ``n_major`` major cycles.

        ``threshold_factor`` sets each cycle's CLEAN stop threshold at
        ``factor * residual rms`` — a standard auto-threshold rule.
        ``clean_window_fraction`` restricts CLEAN peaks to the central
        fraction of the image: near the edge the taper grid correction
        divides by a vanishing taper, amplifying aliasing into spurious
        peaks (the usual reason imagers pad their grids and image only the
        interior).
        ``major_gain`` (WSClean's ``-mgain``) stops each minor loop once the
        residual peak has dropped by this fraction.  The PSF is only
        approximately shift-invariant (w-terms make the true response
        position-dependent), so minor cycles must not dig too deep before the
        exact degridding predict of the next major cycle resynchronises the
        residual.
        """
        psf = self.make_psf()
        residual_vis = np.array(visibilities, copy=True)
        g = self.idg.gridspec.grid_size
        model = np.zeros((g, g), dtype=np.float64)
        window = None
        if 0.0 < clean_window_fraction < 1.0:
            margin = int(round(g * (1.0 - clean_window_fraction) / 2.0))
            window = np.zeros((g, g), dtype=bool)
            window[margin : g - margin, margin : g - margin] = True
        cycles: list[CleanResult] = []
        rms_history: list[float] = []
        residual_image = self.make_dirty_image(residual_vis)

        def windowed_rms(image: np.ndarray) -> float:
            values = image[window] if window is not None else image
            return float(np.sqrt((values**2).mean()))

        if not (0.0 < major_gain <= 1.0):
            raise ValueError("major_gain must be in (0, 1]")
        for _ in range(n_major):
            rms = windowed_rms(residual_image)
            peak = float(
                np.abs(residual_image[window] if window is not None else residual_image).max()
            )
            threshold = max(threshold_factor * rms, (1.0 - major_gain) * peak)
            result = hogbom_clean(
                residual_image, psf, gain=gain,
                threshold=threshold,
                max_iterations=minor_iterations,
                window=window,
            )
            cycles.append(result)
            if len(result.components) == 0:
                rms_history.append(rms)
                break
            model += result.model_image
            predicted = self.predict(model)
            residual_vis = np.asarray(visibilities) - predicted
            residual_image = self.make_dirty_image(residual_vis)
            rms_history.append(windowed_rms(residual_image))
            # The gridding/degridding above is quiescent here; shrink the
            # scratch arenas to this cycle's working set so one oversized
            # early bucket doesn't pin its peak footprint for the whole run.
            trim_thread_arenas()

        return MajorCycleResult(
            model_image=model,
            residual_image=residual_image,
            psf=psf,
            cycles=cycles,
            residual_rms_history=rms_history,
        )
