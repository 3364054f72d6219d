"""Self-calibration major cycles: imaging and gain estimation closed-loop.

The classic VLA self-cal loop (Pearson & Readhead 1984) alternates between
two solvers that each need the other's output:

1. **Image** the data with the current gain solutions applied, and CLEAN the
   brightest emission into the sky model.
2. **Solve** per-station gains with StEFCal against visibilities predicted
   from that model, and subtract the (re-corrupted) model from the data to
   expose fainter residual structure for the next round.

The twist here is *how* step 1 applies the gains: instead of dividing the
visibilities (the usual ``CORRECTED_DATA`` column), the gain solutions are
folded into the gridder as A-terms — :class:`repro.aterms.GainATerm` in
``calibrate`` mode on the plan's :class:`~repro.aterms.ATermSchedule` — so
the calibrated image falls out of an ordinary IDG gridding pass.  That is
exactly the paper's argument: direction-independent corrections ride along
with the image-domain A-term machinery at no extra cost, and the same loop
generalises unchanged to direction-*dependent* solutions.

The imaging side is any :class:`repro.imaging.pipeline.FTProcessor`
(2d / w-stacking / facets / both), so wide-field self-cal composes freely
with the w-term handling — and with any executor.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace

import numpy as np

from repro.aterms.generators import GainATerm
from repro.aterms.schedule import ATermSchedule
from repro.calibration.gains import corrupt_with_gains
from repro.calibration.stefcal import stefcal
from repro.imaging.clean import (
    CleanResult,
    check_loop_gain,
    clean_window,
    hogbom_clean,
    peak_normalised_psf,
    windowed_peak,
    windowed_rms,
)
from repro.imaging.metrics import dynamic_range
from repro.imaging.pipeline import ImagingContext, make_ftprocessor

__all__ = [
    "SelfCalConfig",
    "SelfCalIteration",
    "SelfCalResult",
    "corrupt_with_interval_gains",
    "gain_amplitude_error",
    "self_calibrate",
    "selfcal_schedule",
]


@dataclass(frozen=True)
class SelfCalConfig:
    """Knobs of the self-cal loop.

    Attributes
    ----------
    n_cycles:
        Maximum number of self-cal major cycles.  Amplitude errors contract
        geometrically per cycle, then snap to the noise floor once the model
        dominates the artefacts — budget generously; the loop stops early on
        ``gain_tolerance`` anyway.
    n_major_per_cycle:
        Inner CLEAN major cycles (predict/subtract rounds with gains held
        fixed) used to rebuild the model within each self-cal cycle.
    phase_only_cycles:
        Bootstrap cycles: the first this-many cycles CLEAN *shallow*
        (``bootstrap_major_gain``, one inner major cycle) and project their
        solutions to unit amplitude.  The first model comes from the
        *uncalibrated* image; a deep CLEAN would absorb the corruption into
        the model (leaving StEFCal nothing to solve — ``g = 1`` explains a
        model built from the corrupted image), and an amplitude solve
        against a shallow model locks onto the wrong flux scale.  A shallow
        model of the dominant emission plus a phase-only solve sharpens the
        next image without either failure mode.
    bootstrap_major_gain:
        CLEAN depth of the bootstrap cycles: stop at this fraction of the
        initial peak (0.5 = clean only the top half of the dominant source).
    solution_interval:
        Timesteps per gain solution (0 = one solution for the whole
        observation).  Also the A-term update cadence of the imaging plan,
        so gain solutions and their application are interval-aligned.
    gain_tolerance:
        Convergence: stop once ``max |g_new - g_old|`` drops below this.
    clean_gain, minor_iterations, threshold_factor, clean_window_fraction,
    major_gain:
        CLEAN parameters, with :class:`repro.imaging.ImagingCycle`'s
        semantics (auto-threshold ``max(factor * rms, (1 - major_gain) *
        peak)``, peaks restricted to the central window).
    stefcal_max_iterations, stefcal_tolerance, reference_station:
        StEFCal parameters (see :func:`repro.calibration.stefcal`).
    """

    n_cycles: int = 20
    n_major_per_cycle: int = 2
    phase_only_cycles: int = 1
    bootstrap_major_gain: float = 0.5
    solution_interval: int = 0
    gain_tolerance: float = 1e-4
    clean_gain: float = 0.1
    minor_iterations: int = 200
    threshold_factor: float = 3.0
    clean_window_fraction: float = 0.75
    major_gain: float = 0.8
    stefcal_max_iterations: int = 200
    stefcal_tolerance: float = 1e-8
    reference_station: int = 0

    def __post_init__(self) -> None:
        if self.n_cycles <= 0:
            raise ValueError("n_cycles must be positive")
        if self.n_major_per_cycle <= 0:
            raise ValueError("n_major_per_cycle must be positive")
        if self.phase_only_cycles < 0:
            raise ValueError("phase_only_cycles must be >= 0")
        if self.solution_interval < 0:
            raise ValueError("solution_interval must be >= 0")
        check_loop_gain("clean_gain", self.clean_gain)
        check_loop_gain("major_gain", self.major_gain)
        check_loop_gain("bootstrap_major_gain", self.bootstrap_major_gain)


@dataclass(frozen=True)
class SelfCalIteration:
    """Telemetry of one self-cal cycle.

    ``gain_amplitude_error`` is populated only when the true gains are known
    (simulations); ``None`` on real data.
    """

    cycle: int
    residual_rms: float
    residual_peak: float
    dynamic_range: float
    clean_flux: float
    gain_change: float
    gain_amplitude_error: float | None
    stefcal_converged: bool
    stefcal_iterations: int


@dataclass
class SelfCalResult:
    """Result of :func:`self_calibrate`.

    Attributes
    ----------
    gains:
        ``(n_intervals, n_stations)`` final complex gain solutions.
    model_image:
        ``(G, G)`` Stokes-I CLEAN component image.
    residual_image:
        Final calibrated Stokes-I residual dirty image.
    psf:
        ``(G, G)`` PSF used by CLEAN.
    history:
        Per-cycle :class:`SelfCalIteration` telemetry.
    converged:
        True if the gain update fell below ``gain_tolerance`` before the
        cycle budget ran out.
    """

    gains: np.ndarray
    model_image: np.ndarray
    residual_image: np.ndarray
    psf: np.ndarray
    history: list[SelfCalIteration] = field(default_factory=list)
    converged: bool = False

    @property
    def n_cycles(self) -> int:
        return len(self.history)

    def restored(self):
        """Restored image (model convolved with the clean beam + residual);
        returns ``(restored_image, beam_fit)``."""
        from repro.imaging.restore import restore_image

        return restore_image(self.model_image, self.residual_image, psf=self.psf)


def selfcal_schedule(config: SelfCalConfig) -> ATermSchedule:
    """The A-term schedule matching the gain solution cadence."""
    return ATermSchedule(update_interval=config.solution_interval)


def corrupt_with_interval_gains(
    visibilities: np.ndarray,
    gains: np.ndarray,
    baselines: np.ndarray,
    solution_interval: int = 0,
) -> np.ndarray:
    """Apply ``V'_pq = g_p V_pq conj(g_q)`` with per-interval gain rows.

    ``gains`` is ``(n_intervals, n_stations)``; timestep ``t`` uses row
    ``t // solution_interval`` (clamped to the last row), matching both
    :func:`repro.calibration.stefcal` chunking and
    :class:`~repro.aterms.ATermSchedule` interval indexing.
    """
    gains = np.atleast_2d(np.asarray(gains))
    n_times = visibilities.shape[1]
    interval = solution_interval or n_times
    out = np.empty_like(visibilities)
    for k in range(0, n_times, interval):
        row = min(k // interval, gains.shape[0] - 1)
        out[:, k : k + interval] = corrupt_with_gains(
            visibilities[:, k : k + interval], gains[row], baselines
        )
    return out


def gain_amplitude_error(solved: np.ndarray, true: np.ndarray) -> float:
    """Worst-case relative amplitude error ``max | |g_sol|/|g_true| - 1 |``.

    ``true`` broadcasts against ``solved`` (a single gain row is compared
    with every solved interval).
    """
    solved = np.atleast_2d(np.asarray(solved))
    true = np.atleast_2d(np.asarray(true))
    ratio = np.abs(solved) / np.abs(true)
    return float(np.abs(ratio - 1.0).max())


def _clean_pass(
    residual_image: np.ndarray,
    psf: np.ndarray,
    window: np.ndarray | None,
    config: SelfCalConfig,
    major_gain: float | None = None,
) -> CleanResult:
    rms = windowed_rms(residual_image, window)
    peak = windowed_peak(residual_image, window)
    gain_fraction = config.major_gain if major_gain is None else major_gain
    threshold = max(config.threshold_factor * rms, (1.0 - gain_fraction) * peak)
    return hogbom_clean(
        residual_image,
        psf,
        gain=config.clean_gain,
        threshold=threshold,
        max_iterations=config.minor_iterations,
        window=window,
    )


def self_calibrate(
    context: ImagingContext,
    visibilities: np.ndarray,
    n_stations: int,
    config: SelfCalConfig | None = None,
    kind: str = "2d",
    true_gains: np.ndarray | None = None,
    **processor_options,
) -> SelfCalResult:
    """Run self-cal major cycles on a corrupted visibility set.

    Parameters
    ----------
    context:
        Imaging context (gridder, geometry, executor).  Its
        ``aterm_schedule`` is overridden with the gain solution cadence so
        gain A-terms land on interval-aligned subgrids, and its ``aterms``
        are ignored — the loop supplies :class:`~repro.aterms.GainATerm`
        fields itself.
    visibilities:
        ``(n_baselines, n_times, n_channels, 2, 2)`` observed (corrupted)
        visibilities.
    n_stations:
        Number of stations (gain solutions per interval).
    config:
        Loop parameters (:class:`SelfCalConfig`; defaults used if ``None``).
    kind:
        FT processor kind (``"2d"``, ``"wstack"``, ``"facets"``,
        ``"wstack_facets"``) — wide-field self-cal composes with the w-term
        machinery.
    true_gains:
        Optional injected gains of a simulation; enables the
        ``gain_amplitude_error`` telemetry column.
    processor_options:
        Extra options for :func:`repro.imaging.pipeline.make_ftprocessor`
        (``n_w_planes``, ``n_facets``, ...).

    Each cycle rebuilds the sky model from scratch: image the data through a
    ``calibrate``-mode :class:`~repro.aterms.GainATerm` (re-gridding applies
    the current gains), CLEAN over ``n_major_per_cycle`` inner major cycles
    (predict/subtract with the gains held fixed), then solve StEFCal against
    the model prediction and re-image.  Rebuilding, rather than accumulating
    components across self-cal cycles, is what lets the loop *unlearn* the
    distorted structure the first (uncalibrated) image puts into the
    bootstrap model — cycle 0 only needs to get the phases roughly right;
    cycle 1 re-images with those solutions and recovers the structure.
    The first cycle CLEANs before solving — StEFCal against an empty model
    would leave every station unconstrained.

    **Amplitude convention.**  Self-cal alone cannot determine the global
    flux scale: for any ``c``, gains ``c * g`` together with a model of flux
    ``F / c**2`` reproduce the data exactly, so an unconstrained loop drifts
    along this degenerate direction (each solve multiplies the amplitudes by
    ``1/sqrt(captured flux fraction)``, which compounds).  The loop pins the
    scale with the same convention StEFCal already uses for phase: the
    *reference station's* gain amplitude is unity.  Returned gains therefore
    recover the injected ones only after those are normalised identically
    (``g_true / |g_true[reference_station]|``).
    """
    config = config or SelfCalConfig()
    visibilities = np.asarray(visibilities)
    if visibilities.ndim != 5 or visibilities.shape[3:] != (2, 2):
        raise ValueError("expected (n_bl, n_times, n_channels, 2, 2) visibilities")
    n_times = visibilities.shape[1]
    schedule = selfcal_schedule(config)
    n_intervals = schedule.n_intervals(n_times)

    context = replace(context, aterms=None, aterm_schedule=schedule)
    processor = make_ftprocessor(context, kind=kind, **processor_options)

    g = context.idg.gridspec.grid_size
    window = clean_window(g, config.clean_window_fraction)
    # the PSF is the response to unit visibilities with identity A-terms
    psf = peak_normalised_psf(
        lambda unit: processor.invert(unit, aterms=None).image,
        visibilities.shape[:3],
    )

    gains = np.ones((n_intervals, n_stations), dtype=np.complex128)
    model = np.zeros((g, g), dtype=np.float64)
    model_vis = np.zeros_like(visibilities)
    residual_image = np.zeros((g, g), dtype=np.float64)
    history: list[SelfCalIteration] = []
    converged = False

    for cycle in range(config.n_cycles):
        bootstrap = cycle < config.phase_only_cycles
        n_major = 1 if bootstrap else max(1, config.n_major_per_cycle)
        major_gain = config.bootstrap_major_gain if bootstrap else None
        calibrate_aterm = GainATerm(gains, mode="calibrate")
        # rebuild the model from scratch against the current solutions
        model = np.zeros((g, g), dtype=np.float64)  # idglint: disable=IDG003  (bounded: n_cycles)
        model_vis = np.zeros_like(visibilities)  # idglint: disable=IDG003  (bounded: n_cycles)
        clean_flux = 0.0
        for _ in range(n_major):
            residual_vis = visibilities - corrupt_with_interval_gains(
                model_vis, gains, context.baselines, config.solution_interval
            )
            residual_image = processor.invert(
                residual_vis, aterms=calibrate_aterm
            ).image
            clean_result = _clean_pass(
                residual_image, psf, window, config, major_gain=major_gain
            )
            if len(clean_result.components) == 0:
                break
            model += clean_result.model_image
            clean_flux += float(clean_result.component_flux())
            model_vis = processor.predict(model, aterms=None)

        if not model.any():
            raise RuntimeError(
                "CLEAN produced an empty model — nothing to calibrate "
                "against (lower threshold_factor or check the data)"
            )
        solution = stefcal(
            visibilities,
            model_vis,
            context.baselines,
            n_stations,
            solution_interval=config.solution_interval,
            max_iterations=config.stefcal_max_iterations,
            tolerance=config.stefcal_tolerance,
            reference_station=config.reference_station,
        )
        new_gains = solution.gains
        if bootstrap:
            amplitude = np.abs(new_gains)
            amplitude[amplitude == 0] = 1.0
            new_gains = new_gains / amplitude
        else:
            # Self-cal cannot determine the global amplitude scale: for any
            # c, gains c*g with model flux F/c**2 fit the data exactly (the
            # flux-scale degeneracy).  Pin it with the same convention that
            # already fixes the phase: the reference station's amplitude is
            # unity.  Simulations must normalise injected gains identically
            # before comparing.
            reference = np.abs(new_gains[:, config.reference_station])
            reference[reference == 0] = 1.0
            new_gains = new_gains / reference[:, np.newaxis]
        gain_change = float(np.abs(new_gains - gains).max())
        gains = new_gains

        residual_vis = visibilities - corrupt_with_interval_gains(
            model_vis, gains, context.baselines, config.solution_interval
        )
        residual_image = processor.invert(
            residual_vis, aterms=GainATerm(gains, mode="calibrate")
        ).image

        amp_error = (
            gain_amplitude_error(gains, true_gains)
            if true_gains is not None
            else None
        )
        history.append(
            SelfCalIteration(
                cycle=cycle,
                residual_rms=windowed_rms(residual_image, window),
                residual_peak=windowed_peak(residual_image, window),
                dynamic_range=float(dynamic_range(model + residual_image)),
                clean_flux=clean_flux,
                gain_change=gain_change,
                gain_amplitude_error=amp_error,
                stefcal_converged=bool(solution.converged.all()),
                stefcal_iterations=int(solution.n_iterations.max()),
            )
        )
        if gain_change < config.gain_tolerance:
            converged = True
            break

    return SelfCalResult(
        gains=gains,
        model_image=model,
        residual_image=residual_image,
        psf=psf,
        history=history,
        converged=converged,
    )
