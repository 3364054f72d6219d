"""Hogbom CLEAN deconvolution.

The imaging cycle (paper Fig 2) extracts bright sources from the dirty image
with "a variant of the CLEAN algorithm".  Hogbom's classic variant iterates:
find the absolute peak of the residual image, subtract ``gain * peak`` times
the PSF centred there, and record the subtracted flux as a *CLEAN component*.
Components accumulate into the sky model that the predict step (FFT +
degridding) turns back into visibilities.

The helpers after :func:`hogbom_clean` are the parts of a CLEAN major-cycle
loop that :class:`repro.imaging.ImagingCycle` and
:func:`repro.calibration.self_calibrate` share: argument checks that run
before the first grid pass, the central clean window, windowed statistics
and the peak-normalised PSF.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import numpy as np

from repro.constants import COMPLEX_DTYPE, FLOAT_DTYPE


@dataclass
class CleanResult:
    """Outcome of a CLEAN run.

    Attributes
    ----------
    components:
        ``(n_components, 3)`` float64 array of (row, col, flux).
    model_image:
        float64 component image (same shape as the input dirty image).
    residual:
        Residual dirty image after subtraction, in the dirty image's
        precision.
    n_iterations:
        Number of minor-cycle iterations performed.
    converged:
        True if the stop threshold was reached before the iteration cap.
    """

    components: np.ndarray
    model_image: np.ndarray
    residual: np.ndarray
    n_iterations: int
    converged: bool

    def component_flux(self) -> float:
        """Total CLEANed flux."""
        return float(self.components[:, 2].sum()) if len(self.components) else 0.0


def hogbom_clean(
    dirty: np.ndarray,
    psf: np.ndarray,
    gain: float = 0.1,
    threshold: float = 0.0,
    max_iterations: int = 1000,
    window: np.ndarray | None = None,
) -> CleanResult:
    """Hogbom CLEAN of a real dirty image.

    The residual, the PSF and the peak search run in the dirty image's
    precision (``FLOAT_DTYPE`` from every FT processor; a float64 image
    stays float64); the components and the component image are float64.

    Parameters
    ----------
    dirty:
        ``(G, G)`` real dirty image.
    psf:
        ``(G, G)`` point spread function with its peak at the image centre
        ``(G//2, G//2)``, normalised to peak 1.
    gain:
        Loop gain (fraction of the peak removed per iteration).
    threshold:
        Stop when the residual peak drops below this absolute value.
    max_iterations:
        Minor-cycle cap.
    window:
        Optional boolean mask restricting where peaks may be found.  Must
        have the image's shape and select at least one pixel.  Peaks are
        searched only inside its bounding box, whose unselected pixels are
        masked; row-major order inside the box keeps ``argmax`` ties where
        a full-image search puts them.

    Returns
    -------
    :class:`CleanResult`.
    """
    if dirty.ndim != 2 or dirty.shape[0] != dirty.shape[1]:
        raise ValueError("dirty image must be square 2-D")
    if psf.shape != dirty.shape:
        raise ValueError("psf must match the dirty image shape")
    check_loop_gain("gain", gain)
    g = dirty.shape[0]
    centre = g // 2
    peak_psf = psf[centre, centre]
    if not np.isclose(peak_psf, 1.0, atol=1e-3):
        raise ValueError(f"psf peak at centre must be ~1, got {peak_psf}")

    row0, row1, col0, col1 = 0, g, 0, g
    outside = None
    if window is not None:
        window = np.asarray(window, dtype=bool)
        if window.shape != dirty.shape:
            raise ValueError(
                f"window shape {window.shape} must match the dirty image shape {dirty.shape}"
            )
        rows, cols = np.flatnonzero(window.any(axis=1)), np.flatnonzero(window.any(axis=0))
        if rows.size == 0:
            raise ValueError("window selects no pixel")
        row0, row1 = int(rows[0]), int(rows[-1]) + 1
        col0, col1 = int(cols[0]), int(cols[-1]) + 1
        outside = ~window[row0:row1, col0:col1]
        if not outside.any():
            outside = None

    dtype = np.result_type(dirty.dtype, FLOAT_DTYPE)
    residual = dirty.astype(dtype)
    psf = np.asarray(psf, dtype=dtype)
    model = np.zeros(residual.shape, dtype=np.float64)
    comps: list[tuple[int, int, float]] = []
    box = residual[row0:row1, col0:col1]
    search = np.empty(box.shape, dtype=dtype)

    converged = False
    iteration = 0
    for iteration in range(1, max_iterations + 1):
        np.abs(box, out=search)
        if outside is not None:
            np.copyto(search, -np.inf, where=outside)
        box_row, box_col = divmod(int(np.argmax(search)), box.shape[1])
        row, col = row0 + box_row, col0 + box_col
        peak = residual[row, col]
        if abs(peak) <= threshold:
            converged = True
            iteration -= 1
            break
        flux = gain * peak

        # Subtract the shifted PSF; clip the overlap windows at the edges.
        r0, r1 = row - centre, row - centre + g
        c0, c1 = col - centre, col - centre + g
        pr0, pr1 = max(0, -r0), g - max(0, r1 - g)
        pc0, pc1 = max(0, -c0), g - max(0, c1 - g)
        rr0, rr1 = max(0, r0), min(g, r1)
        cc0, cc1 = max(0, c0), min(g, c1)
        residual[rr0:rr1, cc0:cc1] -= flux * psf[pr0:pr1, pc0:pc1]

        model[row, col] += flux
        comps.append((row, col, flux))
    else:
        converged = abs(residual).max() <= threshold if threshold > 0 else False

    components = (
        np.array(comps, dtype=np.float64) if comps else np.empty((0, 3), dtype=np.float64)
    )
    return CleanResult(
        components=components,
        model_image=model,
        residual=residual,
        n_iterations=iteration,
        converged=converged,
    )


# ------------------------------------------------ major-cycle loop helpers


def check_loop_gain(name: str, value: float) -> None:
    """Raise ``ValueError`` unless ``value`` is a loop gain in (0, 1]."""
    if not (0.0 < value <= 1.0):
        raise ValueError(f"{name} must be in (0, 1], got {value}")


def _window_margin(grid_size: int, fraction: float) -> int:
    return int(round(grid_size * (1.0 - fraction) / 2.0))


def check_clean_window(grid_size: int, fraction: float) -> None:
    """Raise ``ValueError`` when :func:`clean_window` would select no pixel."""
    if 0.0 < fraction < 1.0 and 2 * _window_margin(grid_size, fraction) >= grid_size:
        raise ValueError(
            f"clean window fraction {fraction} selects no pixel of a "
            f"{grid_size}-pixel image"
        )


def clean_window(grid_size: int, fraction: float) -> np.ndarray | None:
    """Boolean mask of the central ``fraction`` of a ``(G, G)`` image.

    ``None`` (no window) unless ``0 < fraction < 1``.  Near the edge the
    taper grid correction divides by a vanishing taper and amplifies
    aliasing into spurious peaks, so CLEAN searches only the interior.
    Raises ``ValueError`` when the fraction selects no pixel.
    """
    check_clean_window(grid_size, fraction)
    if not (0.0 < fraction < 1.0):
        return None
    margin = _window_margin(grid_size, fraction)
    window = np.zeros((grid_size, grid_size), dtype=bool)
    window[margin : grid_size - margin, margin : grid_size - margin] = True
    return window


def windowed_rms(image: np.ndarray, window: np.ndarray | None) -> float:
    """RMS of ``image`` inside ``window`` (everywhere when ``None``),
    accumulated in float64."""
    values = image[window] if window is not None else image
    return float(np.sqrt(np.mean(np.square(values), dtype=np.float64)))


def windowed_peak(image: np.ndarray, window: np.ndarray | None) -> float:
    """Largest ``|image|`` inside ``window`` (everywhere when ``None``)."""
    values = image[window] if window is not None else image
    return float(np.abs(values).max())


def peak_normalised_psf(
    dirty_image: Callable[[np.ndarray], np.ndarray], vis_shape: tuple[int, ...]
) -> np.ndarray:
    """PSF: ``dirty_image`` of unpolarised unit visibilities (``XX = YY =
    1``) of ``(n_bl, T, C)`` layout ``vis_shape``, normalised to 1 at the
    image centre, in the image's precision."""
    unit = np.zeros(vis_shape + (2, 2), dtype=COMPLEX_DTYPE)
    unit[..., 0, 0] = 1.0
    unit[..., 1, 1] = 1.0
    psf = dirty_image(unit)
    centre = psf.shape[0] // 2
    peak = psf[centre, centre]
    if peak == 0:
        raise RuntimeError("PSF centre is zero — no visibilities were gridded")
    return psf / peak
