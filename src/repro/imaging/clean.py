"""Hogbom CLEAN deconvolution.

The imaging cycle (paper Fig 2) extracts bright sources from the dirty image
with "a variant of the CLEAN algorithm".  Hogbom's classic variant iterates:
find the absolute peak of the residual image, subtract ``gain * peak`` times
the PSF centred there, and record the subtracted flux as a *CLEAN component*.
Components accumulate into the sky model that the predict step (FFT +
degridding) turns back into visibilities.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np


@dataclass
class CleanResult:
    """Outcome of a CLEAN run.

    Attributes
    ----------
    components:
        ``(n_components, 3)`` array of (row, col, flux).
    model_image:
        Component image (same shape as the input dirty image).
    residual:
        Residual dirty image after subtraction.
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
    if not (0.0 < gain <= 1.0):
        raise ValueError("gain must be in (0, 1]")
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

    residual = dirty.astype(np.float64).copy()
    model = np.zeros_like(residual)
    comps: list[tuple[int, int, float]] = []
    box = residual[row0:row1, col0:col1]
    search = np.empty(box.shape)

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
