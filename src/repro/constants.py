"""Physical constants and package-wide numeric conventions.

All quantities in the package are SI unless a name says otherwise:

* station/antenna positions and baseline vectors — metres,
* ``uvw`` coordinates — metres until scaled by ``freq / c`` into wavelengths,
* image coordinates ``(l, m)`` — direction cosines (dimensionless, radians in
  the small-angle limit),
* frequencies — Hz, time — seconds.

Complex visibilities are stored as ``complex64`` by default, and the
production kernels compute in it (the paper uses single precision
throughout; Section VI-A: "All computations are performed in single
precision").
"""

from __future__ import annotations

import numpy as np
from numpy.typing import NDArray

#: Speed of light in vacuum [m/s]; used to convert uvw metres -> wavelengths.
SPEED_OF_LIGHT = 299_792_458.0

#: Default dtype for visibilities, subgrids and grids (paper: single
#: precision), and the compute dtype of the bucket kernels: their phasors,
#: channel recurrence and stacked matrix products.
COMPLEX_DTYPE = np.complex64

#: Accumulation dtype: the sums that stay double.  The gridder adds each
#: channel's single-precision product into a complex128 subgrid, so rounding
#: does not compound across channels, and the taper and A-term sandwiches
#: are applied to subgrid pixels in complex128.  The ``reference`` oracle
#: kernels run in it throughout.
ACCUM_DTYPE = np.complex128

#: Default dtype for real-valued auxiliary data (uvw, tapers), and of the
#: kernels' factor-row phases and phasor magnitudes.
FLOAT_DTYPE = np.float32

#: Array aliases used in kernel signatures (kept loose on purpose: kernels
#: accept either storage or accumulation precision and convert on return).
ComplexArray = NDArray[np.complexfloating]
FloatArray = NDArray[np.floating]
IntArray = NDArray[np.integer]

#: Number of polarisation products per visibility (2x2 Jones correlations:
#: XX, XY, YX, YY).
NR_POLARIZATIONS = 4

#: Number of correlations along one polarisation axis.
NR_CORRELATIONS = 2


def wavenumbers(frequencies: np.ndarray) -> np.ndarray:
    """Return ``2*pi * f / c`` for each frequency — the factor that converts a
    uvw coordinate in metres into a phase per unit direction cosine.

    Parameters
    ----------
    frequencies:
        Array of channel frequencies in Hz.
    """
    frequencies = np.asarray(frequencies, dtype=np.float64)
    return 2.0 * np.pi * frequencies / SPEED_OF_LIGHT


def metres_to_wavelengths(uvw_m: np.ndarray, frequency: float | np.ndarray) -> np.ndarray:
    """Convert uvw coordinates from metres to wavelengths at ``frequency`` Hz.

    Supports broadcasting: ``uvw_m`` of shape ``(..., 3)`` against a scalar
    frequency, or ``(...,)`` coordinate arrays against an array of channel
    frequencies.
    """
    return np.asarray(uvw_m) * (np.asarray(frequency) / SPEED_OF_LIGHT)
