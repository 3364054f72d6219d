"""Pluggable invert/predict pipeline: 2-D, w-stacked, faceted imaging.

This is the repo's equivalent of ARL's ``ftprocessor``: a single
:class:`FTProcessor` contract — ``invert`` (visibilities → normalised image)
and ``predict`` (model image → visibilities) — with four interchangeable
implementations:

* :class:`TwoDimFTProcessor`      — plain IDG on the master grid (``2d``);
* :class:`WStackFTProcessor`      — IDG under w-stacking
  (:func:`repro.core.wstack.split_plan_by_w` layers, ``wstack``);
* :class:`FacetsFTProcessor`      — phase-rotated facets, plain IDG per
  facet (``facets``);
* :class:`WStackFacetsFTProcessor`— w-stacking inside every facet
  (``wstack_facets``).

:func:`make_ftprocessor` builds one by name.  A processor plans once and
serves any number of ``invert``/``predict`` calls.

Every variant uses IDG as the inner gridder — through **any** of the four
executors (serial / threads / streaming / processes), selected on the
:class:`ImagingContext`.  Because all executors are bit-identical on
grids and predictions (the PR 8 conformance corpus pins this) and the
image-domain post-processing here is identical numpy code, a pipeline
result is ``np.array_equal`` across executors.

Normalisation contract: everything here is Stokes I.  ``invert`` returns an
:class:`InvertResult` whose ``image`` is the real, taper-corrected
``(G, G)`` Stokes-I dirty image in flux units, in ``FLOAT_DTYPE``;
``predict`` takes a real ``(G, G)`` Stokes-I model (any other shape raises
``ValueError``) and returns ``(n_bl, T, C, 2, 2)`` visibilities with
``XX = YY = I``.

Stokes I is also all that is gridded, whenever the A-terms allow it.  With
no A-terms, or with fields that are each a scalar times the identity at
every pixel (gains, beams, pointing errors, ionospheric phases), the
sandwich ``A_p B A_q^H`` is one complex factor per pixel, so ``invert``
reduces the visibilities to the one correlation ``0.5 (XX + YY)`` and grids,
transforms and adds that alone onto a ``(1, G, G)`` grid, and ``predict``
transforms the model onto one plane, degrids one correlation and writes it
into XX and YY.  Any other field (polarisation leakage) mixes the
correlations: those calls grid all four, and every transform still runs on
the one Stokes-I plane ``0.5 * (XX + YY)`` of a gridded layer, with the
model written into the XX and YY planes of the model grid.
Weighted imaging passes Briggs/uniform weights from
:mod:`repro.imaging.weighting` straight into ``invert`` — the weights
multiply the visibilities and their (coverage-masked) sum normalises the
image.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Final, Protocol

import numpy as np

from repro.aterms.generators import ATermGenerator
from repro.aterms.jones import scalar_jones_fields
from repro.aterms.schedule import ATermSchedule
from repro.constants import COMPLEX_DTYPE, FLOAT_DTYPE
from repro.core.pipeline import IDG
from repro.core.plan import Plan
from repro.core.wstack import WLayer, split_plan_by_w
from repro.imaging.facets import (
    FacetScheme,
    Facet,
    embed_tile,
    extract_tile,
    facet_idg,
    facet_rotation_phasor,
    facet_shifted_uvw,
    plan_facets,
)
from repro.imaging.image import (
    apply_grid_correction,
    dirty_image_from_grid,
    model_image_to_grid,
)
from repro.imaging.weighting import apply_weights
from repro.kernels.fft import centered_fft2, centered_ifft2
from repro.kernels.spheroidal import grid_correction_window
from repro.kernels.wkernel import n_term

__all__ = [
    "EXECUTORS",
    "FTProcessor",
    "FacetsFTProcessor",
    "ImagingContext",
    "InvertResult",
    "TwoDimFTProcessor",
    "WStackFTProcessor",
    "WStackFacetsFTProcessor",
    "make_engine",
    "make_ftprocessor",
    "plan_coverage",
    "plan_weight_sum",
]

#: Executor names an :class:`ImagingContext` accepts.
EXECUTORS = ("serial", "threads", "streaming", "processes")

#: Sentinel distinguishing "use the context's A-terms" from an explicit
#: ``None`` (identity) override on ``invert``/``predict``.
_UNSET: Any = object()


def make_engine(
    idg: IDG,
    executor: str = "serial",
    n_workers: int = 2,
    n_buffers: int = 3,
    start_method: str = "fork",
) -> Any:
    """Wrap an IDG facade in one of the four executors.

    All executors share the ``grid(plan, uvw, vis, *, aterms=..., flags=...)``
    / ``degrid(plan, uvw, grid, *, aterms=...)`` surface, everything after
    the data keyword-only, and produce bit-identical results, so callers can
    treat the return value as an opaque gridding engine.  ``n_buffers``
    sizes the streaming window; ``threads`` keeps ``2 * n_workers`` work
    groups in flight.
    """
    if executor == "serial":
        return idg
    if executor == "threads":
        from repro.parallel.executor import ParallelIDG

        return ParallelIDG(idg, n_workers=n_workers)
    if executor == "streaming":
        from repro.runtime import RuntimeConfig, StreamingIDG

        return StreamingIDG(
            idg, RuntimeConfig(n_buffers=n_buffers, workers=n_workers)
        )
    if executor == "processes":
        from repro.parallel.process import ProcessConfig, ProcessShardedIDG

        return ProcessShardedIDG(
            idg, ProcessConfig(n_procs=n_workers, start_method=start_method)
        )
    raise ValueError(
        f"executor must be one of {EXECUTORS}, got {executor!r}"
    )


@dataclass
class ImagingContext:
    """Everything the FT processors share for one observation.

    Attributes
    ----------
    idg:
        The configured IDG facade — its gridspec/config define the master
        grid geometry and inner-gridder parameters.
    uvw_m, frequencies_hz, baselines:
        The observation.
    aterms:
        Default A-term generator applied by ``invert``/``predict`` (both
        accept a per-call override).
    aterm_schedule:
        A-term update cadence baked into every plan (required whenever
        ``aterms`` vary per interval — e.g. gain solutions).
    executor:
        One of :data:`EXECUTORS`; how every inner grid/degrid executes.
    executor_workers, executor_buffers, start_method:
        Executor sizing knobs (ignored by ``serial``).
    """

    idg: IDG
    uvw_m: np.ndarray
    frequencies_hz: np.ndarray
    baselines: np.ndarray
    aterms: ATermGenerator | None = None
    aterm_schedule: ATermSchedule | None = None
    executor: str = "serial"
    executor_workers: int = 2
    executor_buffers: int = 3
    start_method: str = "fork"

    def __post_init__(self) -> None:
        self.uvw_m = np.asarray(self.uvw_m, dtype=np.float64)
        self.frequencies_hz = np.atleast_1d(
            np.asarray(self.frequencies_hz, dtype=np.float64)
        )
        self.baselines = np.asarray(self.baselines)
        if self.executor not in EXECUTORS:
            raise ValueError(
                f"executor must be one of {EXECUTORS}, got {self.executor!r}"
            )

    def engine(self, idg: IDG | None = None) -> Any:
        """An executor-wrapped gridding engine (for ``idg`` or the master)."""
        return make_engine(
            idg if idg is not None else self.idg,
            self.executor,
            n_workers=self.executor_workers,
            n_buffers=self.executor_buffers,
            start_method=self.start_method,
        )


@dataclass(frozen=True)
class InvertResult:
    """Normalised dirty image plus the weight that normalised it."""

    image: np.ndarray  # (G, G) FLOAT_DTYPE Stokes I, taper-corrected, flux units
    weight_sum: float


# --------------------------------------------------------------- weighting


def plan_coverage(plan: Plan) -> np.ndarray:
    """``(n_bl, T, C)`` bool mask of samples the plan's work items grid."""
    out = np.zeros(plan.flagged.shape, dtype=bool)
    for item in plan:
        out[
            item.baseline,
            item.time_start : item.time_end,
            item.channel_start : item.channel_end,
        ] = True
    return out & ~plan.flagged


def plan_weight_sum(
    plan: Plan,
    weights: np.ndarray | None = None,
    flags: np.ndarray | None = None,
) -> float:
    """Total gridded weight of a plan under optional weights and flags.

    With unit weights and no flags this equals
    ``plan.statistics.n_visibilities_gridded``; otherwise the imaging
    weights are summed over exactly the samples the gridder will accept
    (covered by a work item, not plan-flagged, not caller-flagged).
    """
    if weights is None and flags is None:
        return float(plan.statistics.n_visibilities_gridded)
    covered = plan_coverage(plan)
    if flags is not None:
        covered &= ~np.asarray(flags, dtype=bool)
    if weights is None:
        return float(covered.sum())
    weights = np.asarray(weights)
    if weights.shape != covered.shape:
        raise ValueError(
            f"weights shape {weights.shape} != visibility layout {covered.shape}"
        )
    return float(weights[covered].sum())


def _stokes_i_model(model_image: np.ndarray, grid_size: int) -> np.ndarray:
    """A predict input checked against the ``(G, G)`` Stokes-I contract."""
    model_image = np.asarray(model_image)
    if model_image.shape != (grid_size, grid_size):
        raise ValueError(
            f"model image must be a ({grid_size}, {grid_size}) Stokes-I "
            f"image, got shape {model_image.shape}"
        )
    return model_image


def _stokes_i_plane(grid: np.ndarray) -> np.ndarray:
    """The Stokes-I plane of a ``(1, g, g)`` grid (its one plane) or of a
    ``(4, g, g)`` grid (``0.5 * (XX + YY)``)."""
    if grid.shape[0] == 1:
        return grid[0]
    return 0.5 * (grid[0] + grid[3])


def _set_stokes_i(grid: np.ndarray, plane: np.ndarray) -> None:
    """Write a Stokes-I model plane into a ``(1, g, g)`` grid, or into the
    XX and YY planes of a zeroed ``(4, g, g)`` grid."""
    grid[0] = plane
    if grid.shape[0] == 4:
        grid[3] = grid[0]


def _stokes_i_visibilities(visibilities: np.ndarray) -> np.ndarray:
    """The Stokes-I sample ``0.5 (XX + YY)`` of ``(n_bl, T, C, 2, 2)``
    visibilities, as ``(n_bl, T, C, 1, 1)`` ``COMPLEX_DTYPE`` (rounded
    once)."""
    out = np.empty(visibilities.shape[:3] + (1, 1), dtype=COMPLEX_DTYPE)
    np.add(visibilities[..., 0, 0], visibilities[..., 1, 1], out=out[..., 0, 0])
    out *= 0.5
    return out


def _four_correlations(predicted: np.ndarray) -> np.ndarray:
    """``(n_bl, T, C, 2, 2)`` visibilities of a prediction: a ``(..., 1, 1)``
    Stokes-I one becomes ``XX = YY = I``, ``XY = YX = 0``."""
    if predicted.shape[-1] == 2:
        return predicted
    out = np.zeros(predicted.shape[:3] + (2, 2), dtype=predicted.dtype)
    out[..., 0, 0] = out[..., 1, 1] = predicted[..., 0, 0]
    return out


def _rotate_visibilities(
    visibilities: np.ndarray,
    uvw_m: np.ndarray,
    frequencies_hz: np.ndarray,
    facet: Facet,
    sign: float,
) -> np.ndarray:
    """Phase-rotate ``(n_bl, T, C, a, a)`` visibilities to (+1) / from (-1)
    a facet centre (:func:`~repro.imaging.facets.facet_rotation_phasor`),
    into a ``COMPLEX_DTYPE`` array: the complex128 product is rounded as it
    is written, never held whole."""
    phasor = facet_rotation_phasor(uvw_m, frequencies_hz, facet.l0, facet.m0, sign)
    out = np.empty(visibilities.shape, dtype=COMPLEX_DTYPE)
    np.multiply(
        visibilities, phasor[..., np.newaxis, np.newaxis], out=out,
        casting="same_kind",
    )
    return out


def _weighted(
    visibilities: np.ndarray, weights: np.ndarray | None
) -> np.ndarray:
    """Visibilities multiplied by imaging weights (identity when None)."""
    if weights is None:
        return visibilities
    return apply_weights(visibilities, np.asarray(weights))


# ------------------------------------------------------------ single field


class _Field:
    """One phase centre: a grid (master or facet) with optional w layers.

    This is the shared core all four processors are assembled from: the
    2-D variants use a layer-less field, the w-stack variants split the
    field's plan into :class:`~repro.core.wstack.WLayer` sub-plans; the
    facet variants run one field per tile on the facet grid.

    Every transform is one Stokes-I plane, and with scalar A-terms (or
    none) every grid and degrid is one correlation too
    (:meth:`_resolve_aterms`).  A w-layer's image-domain correction — its
    w screen ``exp(+2πi w_p n(l, m))`` divided by the taper — is built for
    all layers at once on first use and kept: ``invert`` multiplies each
    layer's image by its screen, ``predict`` multiplies the model by the
    conjugate.  Both run at the precision of the ``COMPLEX_DTYPE`` grids
    (:mod:`repro.imaging.image`).
    """

    def __init__(
        self,
        idg: IDG,
        engine: Any,
        uvw_m: np.ndarray,
        frequencies_hz: np.ndarray,
        baselines: np.ndarray,
        aterm_schedule: ATermSchedule | None,
        n_w_planes: int,
    ):
        self.idg = idg
        self.engine = engine
        self.uvw_m = uvw_m
        self.plan = idg.make_plan(
            uvw_m, frequencies_hz, baselines, aterm_schedule=aterm_schedule
        )
        self.layers: list[WLayer] | None = (
            None
            if n_w_planes <= 1
            else split_plan_by_w(self.plan, uvw_m, n_w_planes)
        )
        self._screens: np.ndarray | None = None

    def _layer_screens(self) -> np.ndarray:
        """``(P, g, g)`` ``COMPLEX_DTYPE`` screens ``exp(+2πi w_p n(l, m)) /
        taper`` of the P w-layers, built on first use: each phase is formed
        in float64 and reduced to one cycle, then rounded once, so the
        single-precision sin/cos sees an argument in ``[-π, π]``."""
        if self._screens is None:
            gs = self.idg.gridspec
            g = gs.grid_size
            coords = (np.arange(g) - g // 2) * (gs.image_size / g)
            n = n_term(coords[np.newaxis, :], coords[:, np.newaxis])
            w = np.array([layer.w_centre for layer in self.layers])
            phase = w[:, np.newaxis, np.newaxis] * n  # in turns
            phase -= np.rint(phase)
            phase *= 2.0 * np.pi
            phase = phase.astype(FLOAT_DTYPE)
            screens = np.empty(phase.shape, dtype=COMPLEX_DTYPE)
            np.cos(phase, out=screens.real)
            np.sin(phase, out=screens.imag)
            self._screens = apply_grid_correction(
                screens,
                grid_correction_window(
                    g, taper=self.idg.config.taper, beta=self.idg.config.taper_beta
                ),
            )
        return self._screens

    def _resolve_aterms(
        self, aterms: ATermGenerator | None
    ) -> tuple[int, dict[tuple[int, int], np.ndarray] | None]:
        """``(a, fields)``: the correlations per axis this call grids and
        degrids, and the ``(N, N, a, a)`` A-term fields of this field's plan
        (``None`` for identity), evaluated once for all its w-layers.

        ``a = 1`` — the Stokes-I sample alone — when there are no fields or
        every field is exactly a scalar times the identity; ``a = 2``
        otherwise."""
        fields = self.idg.aterm_fields(self.plan, aterms)
        if fields is None:
            return 1, None
        scalar = scalar_jones_fields(fields)
        if scalar is None:
            return 2, fields
        return 1, scalar

    # -- the two directions ------------------------------------------------

    def weight_sum(
        self, weights: np.ndarray | None, flags: np.ndarray | None
    ) -> float:
        return plan_weight_sum(self.plan, weights, flags)

    def invert(
        self,
        visibilities: np.ndarray,
        aterms: ATermGenerator | None,
        flags: np.ndarray | None,
        weight_sum: float,
        resolved: tuple[int, dict[tuple[int, int], np.ndarray] | None] | None = None,
    ) -> np.ndarray:
        """Normalised, taper-corrected real ``(g, g)`` Stokes-I image of
        this field, from a ``(1, g, g)`` grid of ``0.5 (XX + YY)`` when the
        A-terms allow it (:meth:`_resolve_aterms`, or ``resolved`` when the
        caller already resolved them).  ``visibilities`` are ``(..., 2, 2)``
        or, when one correlation is gridded, already the ``(..., 1, 1)``
        Stokes-I sample."""
        if weight_sum <= 0:
            raise ValueError(
                "weight_sum must be positive — no unflagged visibility was "
                "covered by the plan (or the imaging weights sum to zero)"
            )
        a, fields = resolved if resolved is not None else self._resolve_aterms(aterms)
        if a == 1 and visibilities.shape[-1] == 2:
            visibilities = _stokes_i_visibilities(visibilities)
        if self.layers is None:
            grid = self.engine.grid(
                self.plan, self.uvw_m, visibilities, flags=flags,
                aterm_fields=fields,
            )
            # astype copies even at FLOAT_DTYPE.  Kept: without the copy
            # cycle-1024's peak RSS read 159 MB against 148, a matter of how
            # glibc reuses its heap rather than of live bytes
            return dirty_image_from_grid(
                _stokes_i_plane(grid),
                self.idg.gridspec,
                weight_sum=weight_sum,
                taper=self.idg.config.taper,
                taper_beta=self.idg.config.taper_beta,
            ).astype(FLOAT_DTYPE)
        g = self.idg.gridspec.grid_size
        image = np.zeros((g, g), dtype=FLOAT_DTYPE)
        for layer, screen in zip(self.layers, self._layer_screens()):
            grid = self.engine.grid(
                layer.plan, self.uvw_m, visibilities, flags=flags,
                aterm_fields=fields,
            )
            layer_image = centered_ifft2(_stokes_i_plane(grid))
            layer_image *= screen
            image += layer_image.real
        image *= g * g / weight_sum
        return image

    def predict(
        self, model: np.ndarray, aterms: ATermGenerator | None
    ) -> np.ndarray:
        """Predicted ``(n_bl, T, C, a, a)`` visibilities of a ``(g, g)``
        Stokes-I model on this field's raster, degridded from one ``(1, g,
        g)`` plane (``a = 1``, the Stokes-I sample) when the A-terms allow it
        (:meth:`_resolve_aterms`); :func:`_four_correlations` expands them
        to ``XX = YY = I``."""
        g = self.idg.gridspec.grid_size
        a, fields = self._resolve_aterms(aterms)
        if self.layers is None:
            plane = model_image_to_grid(
                model,
                self.idg.gridspec,
                taper=self.idg.config.taper,
                taper_beta=self.idg.config.taper_beta,
            )
            # allocated after the transform: its temporaries are freed by now
            grid = np.zeros((a * a, g, g), dtype=COMPLEX_DTYPE)
            _set_stokes_i(grid, plane)
            return self.engine.degrid(self.plan, self.uvw_m, grid, aterm_fields=fields)
        n_bl, n_times, _ = self.uvw_m.shape
        out = np.zeros(
            (n_bl, n_times, self.plan.n_channels, a, a), dtype=COMPLEX_DTYPE
        )
        # rounded once and scaled by G**2, which the forward-normalised
        # transform (numpy's fast complex64 path) divides out again
        scaled = model.astype(FLOAT_DTYPE)
        scaled *= g * g
        screened = np.empty((g, g), dtype=COMPLEX_DTYPE)
        grid = np.zeros((a * a, g, g), dtype=COMPLEX_DTYPE)  # reused by every layer
        for layer, screen in zip(self.layers, self._layer_screens()):
            np.conjugate(screen, out=screened)
            screened *= scaled
            _set_stokes_i(grid, centered_fft2(screened, norm="forward"))
            # the layers' work items cover disjoint visibility blocks
            out += self.engine.degrid(
                layer.plan, self.uvw_m, grid, aterm_fields=fields
            )
        return out


# -------------------------------------------------------------- processors


class FTProcessor(Protocol):
    """The invert/predict contract every processor implements."""

    def invert(
        self,
        visibilities: np.ndarray,
        weights: np.ndarray | None = None,
        flags: np.ndarray | None = None,
        aterms: ATermGenerator | None = _UNSET,
    ) -> InvertResult: ...

    def predict(
        self,
        model_image: np.ndarray,
        aterms: ATermGenerator | None = _UNSET,
    ) -> np.ndarray: ...


class _SingleFieldProcessor:
    """Shared implementation of the un-faceted processors."""

    def __init__(self, ctx: ImagingContext, n_w_planes: int):
        self.ctx = ctx
        self._field = _Field(
            ctx.idg,
            ctx.engine(),
            ctx.uvw_m,
            ctx.frequencies_hz,
            ctx.baselines,
            ctx.aterm_schedule,
            n_w_planes,
        )

    @property
    def plan(self) -> Plan:
        """The master-grid execution plan (shape/weight bookkeeping)."""
        return self._field.plan

    def _aterms(self, override: ATermGenerator | None) -> ATermGenerator | None:
        return self.ctx.aterms if override is _UNSET else override

    def invert(
        self,
        visibilities: np.ndarray,
        weights: np.ndarray | None = None,
        flags: np.ndarray | None = None,
        aterms: ATermGenerator | None = _UNSET,
    ) -> InvertResult:
        weight_sum = self._field.weight_sum(weights, flags)
        image = self._field.invert(
            _weighted(visibilities, weights), self._aterms(aterms), flags, weight_sum
        )
        return InvertResult(image=image, weight_sum=weight_sum)

    def predict(
        self,
        model_image: np.ndarray,
        aterms: ATermGenerator | None = _UNSET,
    ) -> np.ndarray:
        model = _stokes_i_model(model_image, self.ctx.idg.gridspec.grid_size)
        return _four_correlations(self._field.predict(model, self._aterms(aterms)))


class TwoDimFTProcessor(_SingleFieldProcessor):
    """Plain IDG on the master grid (w handled exactly per subgrid)."""

    kind = "2d"

    def __init__(self, ctx: ImagingContext):
        super().__init__(ctx, n_w_planes=1)


class WStackFTProcessor(_SingleFieldProcessor):
    """IDG + w-stacking on the master grid (paper Section IV)."""

    kind = "wstack"

    def __init__(self, ctx: ImagingContext, n_w_planes: int = 4):
        if n_w_planes <= 0:
            raise ValueError("n_w_planes must be positive")
        # n_w_planes == 1 degenerates to a single mean-w layer, which is
        # plain IDG up to a constant w shift the screen exactly undoes —
        # keep the layered path so the variant stays honest about its math.
        super().__init__(ctx, n_w_planes=max(n_w_planes, 2))
        self.n_w_planes = n_w_planes


class _FacetedProcessor:
    """Shared implementation of the faceted processors.

    All facets share the facet grid geometry and executor engine (same
    pixel scale, same uv extent), but each facet grids with its own
    :func:`~repro.imaging.facets.facet_shifted_uvw` coordinates — the
    per-facet (u, v) shift that absorbs the first-order tangent-plane w
    error — and therefore builds its own plan.
    """

    def __init__(
        self,
        ctx: ImagingContext,
        n_facets: int,
        n_w_planes: int,
        padding: float,
    ):
        self.ctx = ctx
        self.scheme: FacetScheme = plan_facets(
            ctx.idg.gridspec, n_facets, padding=padding
        )
        self._idg_f = facet_idg(ctx.idg, self.scheme)
        engine = ctx.engine(self._idg_f)
        self._fields = [
            _Field(
                self._idg_f,
                engine,
                facet_shifted_uvw(ctx.uvw_m, facet),
                ctx.frequencies_hz,
                ctx.baselines,
                ctx.aterm_schedule,
                n_w_planes,
            )
            for facet in self.scheme.facets
        ]

    @property
    def plan(self) -> Plan:
        """The first facet's execution plan (shape/weight bookkeeping; all
        facets share the visibility layout)."""
        return self._fields[0].plan

    def _aterms(self, override: ATermGenerator | None) -> ATermGenerator | None:
        return self.ctx.aterms if override is _UNSET else override

    # -- per-facet helpers (loop bodies live here, not in the loop) --------

    def _facet_invert_into(
        self,
        mosaic: np.ndarray,
        index: int,
        visibilities: np.ndarray,
        aterms: ATermGenerator | None,
        flags: np.ndarray | None,
        weights: np.ndarray | None,
    ) -> None:
        """Image one facet and place its central tile into the mosaic.  A
        field that grids one correlation rotates the Stokes-I sample alone."""
        facet = self.scheme.facets[index]
        field = self._fields[index]
        resolved = field._resolve_aterms(aterms)
        if resolved[0] == 1:
            visibilities = _stokes_i_visibilities(visibilities)
        rotated = _rotate_visibilities(
            visibilities, self.ctx.uvw_m, self.ctx.frequencies_hz, facet, sign=+1.0
        )
        weight_sum = field.weight_sum(weights, flags)
        image = field.invert(rotated, aterms, flags, weight_sum, resolved=resolved)
        tile = extract_tile(image, self.scheme, facet)
        t = self.scheme.tile_size
        mosaic[facet.row0 : facet.row0 + t, facet.col0 : facet.col0 + t] = tile

    def _facet_predict(
        self,
        model: np.ndarray,
        index: int,
        aterms: ATermGenerator | None,
    ) -> np.ndarray:
        """One facet's (de-rotated) ``(..., a, a)`` contribution to the
        predicted set: a one-correlation prediction is rotated before it is
        expanded to XX and YY."""
        facet = self.scheme.facets[index]
        facet_model = embed_tile(model, self.scheme, facet)
        predicted = self._fields[index].predict(facet_model, aterms)
        return _rotate_visibilities(
            predicted, self.ctx.uvw_m, self.ctx.frequencies_hz, facet, sign=-1.0
        )

    # -- the two directions ------------------------------------------------

    def invert(
        self,
        visibilities: np.ndarray,
        weights: np.ndarray | None = None,
        flags: np.ndarray | None = None,
        aterms: ATermGenerator | None = _UNSET,
    ) -> InvertResult:
        weighted = _weighted(visibilities, weights)
        aterms_ = self._aterms(aterms)
        g = self.scheme.master.grid_size
        mosaic = np.zeros((g, g), dtype=FLOAT_DTYPE)
        # each facet normalises by its own gridded weight (the uv shift can
        # move samples on/off the grid edge per facet)
        for index in range(len(self.scheme.facets)):
            self._facet_invert_into(
                mosaic, index, weighted, aterms_, flags, weights
            )
        return InvertResult(
            image=mosaic,
            weight_sum=self._fields[0].weight_sum(weights, flags),
        )

    def predict(
        self,
        model_image: np.ndarray,
        aterms: ATermGenerator | None = _UNSET,
    ) -> np.ndarray:
        model = _stokes_i_model(model_image, self.scheme.master.grid_size)
        aterms_ = self._aterms(aterms)
        n_bl, n_times, _ = self.ctx.uvw_m.shape
        out = np.zeros(
            (n_bl, n_times, self.ctx.frequencies_hz.size, 2, 2),
            dtype=COMPLEX_DTYPE,
        )
        # every sky component lives in exactly one facet's tile, so the
        # per-facet predictions add to the full-model prediction.
        for index in range(len(self.scheme.facets)):
            predicted = self._facet_predict(model, index, aterms_)
            if predicted.shape[-1] == 1:
                out[..., 0, 0] += predicted[..., 0, 0]
                out[..., 1, 1] += predicted[..., 0, 0]
            else:
                out += predicted
        return out


class FacetsFTProcessor(_FacetedProcessor):
    """Phase-rotated facets, plain IDG inside each (exact per-subgrid w)."""

    kind = "facets"

    def __init__(self, ctx: ImagingContext, n_facets: int = 2, padding: float = 1.5):
        super().__init__(ctx, n_facets, n_w_planes=1, padding=padding)


class WStackFacetsFTProcessor(_FacetedProcessor):
    """W-stacking inside every phase-rotated facet — the full wide-field
    decomposition (w planes x facets)."""

    kind = "wstack_facets"

    def __init__(
        self,
        ctx: ImagingContext,
        n_facets: int = 2,
        n_w_planes: int = 4,
        padding: float = 1.5,
    ):
        if n_w_planes <= 0:
            raise ValueError("n_w_planes must be positive")
        super().__init__(
            ctx, n_facets, n_w_planes=max(n_w_planes, 2), padding=padding
        )
        self.n_w_planes = n_w_planes


_PROCESSORS: Final = {
    "2d": TwoDimFTProcessor,
    "wstack": WStackFTProcessor,
    "facets": FacetsFTProcessor,
    "wstack_facets": WStackFacetsFTProcessor,
}


def make_ftprocessor(ctx: ImagingContext, kind: str = "2d", **options: Any) -> FTProcessor:
    """Build a processor by name (``2d``/``wstack``/``facets``/
    ``wstack_facets``); ``options`` forward to the constructor
    (``n_w_planes``, ``n_facets``, ``padding``)."""
    try:
        cls = _PROCESSORS[kind]
    except KeyError:
        raise ValueError(
            f"kind must be one of {sorted(_PROCESSORS)}, got {kind!r}"
        ) from None
    return cls(ctx, **options)

