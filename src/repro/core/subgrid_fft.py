"""Batched subgrid FFTs (paper Fig 4, step 2).

After gridding, every image-domain subgrid is Fourier-transformed (one
``N x N`` FFT per subgrid and correlation: four for the full polarisation
products, one for the Stokes-I sample alone) before the adder places it on
the master grid; degridding applies the reverse transform after the
splitter.  The paper offloads this embarrassingly parallel step to
MKL/cuFFT/clFFT; here a single batched ``numpy.fft`` call over the stacked
``(n_subgrids, N, N, a, a)`` array plays that role.

Normalisation.  Both directions carry a ``1/N**2``:

* ``subgrids_to_fourier`` — the centered forward FFT scaled by ``1/N**2``
  (``norm="forward"``, folded into the transform) — an on-cell visibility
  of amplitude V then lands on the master grid as exactly V, so the master
  image ``IFFT(grid) * G**2`` sums visibilities with unit weight;
* ``subgrids_to_image = centered_ifft2`` (which contains ``1/N**2``) — a
  model image FFT'd onto the master grid then degrids to exactly its DFT for
  aligned sources.

With this choice the two transforms are *adjoints* of each other (not
inverses: composing them yields ``1/N**2``), which makes the full degridding
pipeline the exact adjoint of the full gridding pipeline — the property the
property-based tests assert.

Folding the scale into the forward transform also keeps numpy off a slow
path: numpy 2.4 runs a complex64 transform whose normalisation factor is
exactly 1 about 3-4x slower than a scaled one (32 four-correlation
subgrids of 24 x 24: 3.4 ms as a default-norm ``fft2`` followed by the
division, 0.95 ms with ``norm="forward"``, on a 2-vCPU KVM guest), and it
rounds once instead of twice.
"""

from __future__ import annotations

import numpy as np

from repro.analysis.contracts import shape_checked
from repro.kernels.fft import centered_fft2, centered_ifft2


@shape_checked(subgrid_images="(..., N, N, a, a)", returns="(..., N, N, a, a)")
def subgrids_to_fourier(subgrid_images: np.ndarray) -> np.ndarray:
    """Forward transform: image-domain subgrids -> uv-domain subgrids.

    ``subgrid_images`` has shape ``(..., N, N, a, a)``; the FFT acts on the
    two pixel axes and is scaled by ``1/N**2`` (see module docstring).
    """
    # Move the correlation axes ahead of the pixel axes so axes=(-2, -1)
    # are pixels.
    moved = np.moveaxis(subgrid_images, (-2, -1), (0, 1))
    transformed = centered_fft2(moved, axes=(-2, -1), norm="forward")
    return np.moveaxis(transformed, (0, 1), (-2, -1)).astype(subgrid_images.dtype)


@shape_checked(subgrid_fourier="(..., N, N, a, a)", returns="(..., N, N, a, a)")
def subgrids_to_image(subgrid_fourier: np.ndarray) -> np.ndarray:
    """Reverse transform: uv-domain subgrids -> image-domain subgrids.

    The centered inverse FFT (its built-in ``1/N**2`` included), i.e. the
    adjoint of :func:`subgrids_to_fourier`.
    """
    moved = np.moveaxis(subgrid_fourier, (-2, -1), (0, 1))
    transformed = centered_ifft2(moved, axes=(-2, -1))
    return np.moveaxis(transformed, (0, 1), (-2, -1)).astype(subgrid_fourier.dtype)
