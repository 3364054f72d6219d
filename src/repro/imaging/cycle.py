"""The imaging major cycle (paper Fig 2).

One *imaging cycle* is: grid the residual visibilities and inverse-FFT to a
dirty image; CLEAN the brightest emission into the sky model; predict the
model back to visibilities (FFT + degridding) and subtract — revealing
fainter structure for the next cycle.  The paper benchmarks exactly one such
cycle (Fig 9/14: "Distribution of runtime/energy for one full imaging
cycle"); this module also iterates it to convergence, since that is what a
downstream user runs.  That loop, :meth:`ImagingCycle.major_rounds`, also
builds :func:`repro.calibration.self_calibrate`'s models.

The gridder/degridder pair is pluggable: anything exposing the
:class:`repro.core.IDG` interface (``make_plan``/``grid``/``degrid``) works,
which is how the W-projection baseline is compared end-to-end.  Invert and
predict always run through an :class:`repro.imaging.pipeline.FTProcessor`:
a :class:`~repro.imaging.pipeline.TwoDimFTProcessor` on the given gridder
unless another processor is passed.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import numpy as np

from repro.aterms.schedule import ATermSchedule
from repro.core.pipeline import IDG
from repro.core.scratch import trim_thread_arenas
from repro.imaging.clean import (
    CleanResult,
    check_clean_window,
    check_loop_gain,
    clean_window,
    hogbom_clean,
    peak_normalised_psf,
    windowed_peak,
    windowed_rms,
)

# Not called here: the benchmark suite's tracer patches these two names on
# this module by ``getattr``, so they must stay importable from it.
from repro.imaging.image import dirty_image_from_grid, model_image_to_grid  # noqa: F401
from repro.imaging.pipeline import ImagingContext, TwoDimFTProcessor


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

    ``processor`` is the :class:`repro.imaging.pipeline.FTProcessor`
    (w-stacked, faceted, ...) that every invert and predict goes through,
    with its own A-terms; by default a
    :class:`~repro.imaging.pipeline.TwoDimFTProcessor` on ``idg`` with the
    given A-term schedule.  The processors transform Stokes I only: one
    ``G x G`` FFT per direction.
    """

    def __init__(
        self,
        idg: IDG,
        uvw_m: np.ndarray,
        frequencies_hz: np.ndarray,
        baselines: np.ndarray,
        aterm_schedule: ATermSchedule | None = None,
        processor=None,
    ):
        self.idg = idg
        self.uvw_m = np.asarray(uvw_m, dtype=np.float64)
        self.frequencies_hz = np.atleast_1d(np.asarray(frequencies_hz, dtype=np.float64))
        self.baselines = np.asarray(baselines)
        if processor is None:
            processor = TwoDimFTProcessor(
                ImagingContext(
                    idg, self.uvw_m, self.frequencies_hz, self.baselines,
                    aterm_schedule=aterm_schedule,
                )
            )
        self.processor = processor
        self.plan = processor.plan

    # ------------------------------------------------------------ building
    def make_dirty_image(self, visibilities: np.ndarray) -> np.ndarray:
        """Stokes-I dirty image of a visibility set (grid + IFFT + correct)."""
        return self.processor.invert(visibilities).image

    def make_psf(self) -> np.ndarray:
        """PSF: the image of unit visibilities, normalised to peak 1."""
        return peak_normalised_psf(self.make_dirty_image, self.plan.flagged.shape)

    def predict(self, model_image_stokes_i: np.ndarray) -> np.ndarray:
        """Predict visibilities of a Stokes-I model image (FFT + degrid)."""
        return self.processor.predict(model_image_stokes_i)

    # ------------------------------------------------------------- driving
    def major_rounds(
        self,
        image_residual: Callable[[np.ndarray | None], np.ndarray],
        psf: np.ndarray,
        window: np.ndarray | None,
        n_major: int,
        *,
        gain: float,
        minor_iterations: int,
        threshold_factor: float,
        major_gain: float,
    ) -> tuple[np.ndarray, np.ndarray | None, list[CleanResult], list[float]]:
        """Run up to ``n_major`` image → CLEAN → predict rounds into a new model.

        Each round images ``image_residual(predicted)``, the residual of the
        latest prediction (``None`` before the first), CLEANs it inside
        ``window`` down to ``max(threshold_factor * rms, (1 - major_gain) *
        peak)``, adds the components to the model and predicts the model.
        The rounds stop after a CLEAN that finds nothing; the caller images
        the final residual.  Returns the float64 model, the latest prediction
        (``None`` if none), each round's :class:`CleanResult` and the
        windowed rms of each round's image.
        """
        model = np.zeros(psf.shape, dtype=np.float64)
        predicted = None
        cycles: list[CleanResult] = []
        rms: list[float] = []
        for _ in range(n_major):
            image = image_residual(predicted)
            rms.append(windowed_rms(image, window))
            peak = windowed_peak(image, window)
            threshold = max(threshold_factor * rms[-1], (1.0 - major_gain) * peak)
            result = hogbom_clean(
                image, psf, gain=gain, threshold=threshold,
                max_iterations=minor_iterations, window=window,
            )
            cycles.append(result)
            if len(result.components) == 0:
                break
            model += result.model_image
            predicted = self.predict(model)
        return model, predicted, cycles, rms

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
        """Run up to ``n_major`` major cycles (:meth:`major_rounds`) on the
        residual ``visibilities - predicted``, then image the final residual.

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
        g = self.idg.gridspec.grid_size
        check_loop_gain("gain", gain)
        check_loop_gain("major_gain", major_gain)
        check_clean_window(g, clean_window_fraction)
        psf = self.make_psf()
        # built after the PSF: kept alive across the PSF's grid-sized
        # temporaries it pins the heap and raises the peak RSS
        window = clean_window(g, clean_window_fraction)
        visibilities = np.asarray(visibilities)

        def image_residual(predicted: np.ndarray | None) -> np.ndarray:
            return self.make_dirty_image(
                visibilities if predicted is None else visibilities - predicted
            )

        model, predicted, cycles, rms = self.major_rounds(
            image_residual, psf, window, n_major, gain=gain,
            minor_iterations=minor_iterations, threshold_factor=threshold_factor,
            major_gain=major_gain,
        )
        if cycles and len(cycles[-1].components) == 0:
            # a CLEAN that found nothing left its round's image as it was
            residual_image = cycles[-1].residual
        else:
            residual_image = image_residual(predicted)
        # the residual after each round is the next round's image or the final one
        rms.append(windowed_rms(residual_image, window))
        # The gridding/degridding above is quiescent here; shrink the scratch
        # arenas to this run's working set so one oversized early bucket
        # doesn't pin its peak footprint.  Not in the rounds: the trim
        # touches every thread's arena, and self-cal also runs as a gridding
        # service job while other jobs' kernels use theirs.
        trim_thread_arenas()
        return MajorCycleResult(
            model_image=model,
            residual_image=residual_image,
            psf=psf,
            cycles=cycles,
            residual_rms_history=rms[1:],
        )
