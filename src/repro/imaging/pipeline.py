"""Pluggable invert/predict pipeline: 2-D, w-stacked, faceted imaging.

This is the repo's equivalent of ARL's ``ftprocessor``: a single
:class:`FTProcessor` contract — ``invert`` (visibilities → normalised image)
and ``predict`` (model image → visibilities) — with four interchangeable
implementations:

* :class:`TwoDimFTProcessor`      — plain IDG on the master grid
  (``invert_2d`` / ``predict_2d``);
* :class:`WStackFTProcessor`      — IDG under w-stacking
  (:func:`repro.core.wstack.split_plan_by_w` layers,
  ``invert_wstack`` / ``predict_wstack``);
* :class:`FacetsFTProcessor`      — phase-rotated facets, plain IDG per
  facet (``invert_facets`` / ``predict_facets``);
* :class:`WStackFacetsFTProcessor`— w-stacking inside every facet
  (``invert_wstack_facets`` / ``predict_wstack_facets``).

Every variant uses IDG as the inner gridder — through **any** of the four
executors (serial / threads / streaming / processes), selected on the
:class:`ImagingContext`.  Because all executors are bit-identical on
grids and predictions (the PR 8 conformance corpus pins this) and the
image-domain post-processing here is identical numpy code, a pipeline
result is ``np.array_equal`` across executors.

Normalisation contract: everything here is Stokes I.  ``invert`` returns an
:class:`InvertResult` whose ``image`` is the real, taper-corrected
``(G, G)`` Stokes-I dirty image in flux units; ``predict`` takes a real
``(G, G)`` Stokes-I model (any other shape raises ``ValueError``) and
returns ``(n_bl, T, C, 2, 2)`` visibilities with ``XX = YY = I``.  Stokes I
is linear in the grid, so every transform runs on the one plane
``0.5 * (XX + YY)`` of a gridded layer, and a model is transformed once per
layer and written into the XX and YY planes of the model grid.
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
from repro.aterms.schedule import ATermSchedule
from repro.constants import ACCUM_DTYPE, COMPLEX_DTYPE
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
from repro.imaging.image import dirty_image_from_grid, model_image_to_grid
from repro.imaging.weighting import apply_weights
from repro.kernels.fft import centered_fft2, centered_ifft2
from repro.kernels.spheroidal import grid_correction
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
    "invert_2d",
    "invert_facets",
    "invert_wstack",
    "invert_wstack_facets",
    "make_engine",
    "make_ftprocessor",
    "plan_coverage",
    "plan_weight_sum",
    "predict_2d",
    "predict_facets",
    "predict_wstack",
    "predict_wstack_facets",
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

    All executors share the ``grid(plan, uvw, vis, aterms=..., flags=...)``
    / ``degrid(plan, uvw, grid, aterms=...)`` surface and produce
    bit-identical results, so callers can treat the return value as an
    opaque gridding engine.
    """
    if executor == "serial":
        return idg
    if executor == "threads":
        from repro.parallel.executor import ParallelIDG

        return ParallelIDG(idg, n_workers=n_workers)
    if executor == "streaming":
        from repro.runtime import RuntimeConfig, StreamingIDG

        return StreamingIDG(
            idg,
            RuntimeConfig(
                n_buffers=n_buffers,
                gridder_workers=n_workers,
                fft_workers=n_workers,
                degridder_workers=n_workers,
            ),
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

    image: np.ndarray  # (G, G) real Stokes I, taper-corrected, flux units
    weight_sum: float

    @property
    def stokes_i(self) -> np.ndarray:
        """Alias of ``image``."""
        return self.image


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
    """The Stokes-I plane ``0.5 * (XX + YY)`` of a ``(4, g, g)`` grid."""
    return 0.5 * (grid[0] + grid[3])


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

    Every transform is one Stokes-I plane.  A w-layer's image-domain
    correction — its w screen ``exp(+2πi w_p n(l, m))`` divided by the
    taper — is built for all layers at once on first use and kept:
    ``invert`` multiplies each layer's image by its screen, ``predict``
    multiplies the model by the conjugate.
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
        """``(P, g, g)`` screens ``exp(+2πi w_p n(l, m)) / taper`` of the
        P w-layers (built by one ``np.exp`` on first use)."""
        if self._screens is None:
            gs = self.idg.gridspec
            g = gs.grid_size
            coords = (np.arange(g) - g // 2) * (gs.image_size / g)
            n = n_term(coords[np.newaxis, :], coords[:, np.newaxis])
            w = np.array([layer.w_centre for layer in self.layers])
            screens = np.exp(2.0j * np.pi * w[:, np.newaxis, np.newaxis] * n)
            screens /= grid_correction(
                g, taper=self.idg.config.taper, beta=self.idg.config.taper_beta
            )
            self._screens = screens
        return self._screens

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
    ) -> np.ndarray:
        """Normalised, taper-corrected real ``(g, g)`` Stokes-I image of
        this field."""
        if weight_sum <= 0:
            raise ValueError(
                "weight_sum must be positive — no unflagged visibility was "
                "covered by the plan (or the imaging weights sum to zero)"
            )
        if self.layers is None:
            grid = self.engine.grid(
                self.plan, self.uvw_m, visibilities, aterms=aterms, flags=flags
            )
            # copied: a view would keep the complex image, twice the size,
            # alive for as long as the caller holds the result
            return np.real(
                dirty_image_from_grid(
                    _stokes_i_plane(grid),
                    self.idg.gridspec,
                    weight_sum=weight_sum,
                    taper=self.idg.config.taper,
                    taper_beta=self.idg.config.taper_beta,
                )
            ).copy()
        g = self.idg.gridspec.grid_size
        accum = np.zeros((g, g), dtype=ACCUM_DTYPE)
        for layer, screen in zip(self.layers, self._layer_screens()):
            grid = self.engine.grid(
                layer.plan, self.uvw_m, visibilities, aterms=aterms, flags=flags
            )
            accum += centered_ifft2(_stokes_i_plane(grid)) * screen
        return accum.real * (g * g / weight_sum)

    def predict(
        self, model: np.ndarray, aterms: ATermGenerator | None
    ) -> np.ndarray:
        """Predicted ``(n_bl, T, C, 2, 2)`` visibilities of a ``(g, g)``
        Stokes-I model on this field's raster (``XX = YY = I``)."""
        g = self.idg.gridspec.grid_size
        if self.layers is None:
            plane = model_image_to_grid(
                model,
                self.idg.gridspec,
                taper=self.idg.config.taper,
                taper_beta=self.idg.config.taper_beta,
            )
            # allocated after the transform: its temporaries are freed by now
            grid = np.zeros((4, g, g), dtype=COMPLEX_DTYPE)
            grid[0] = grid[3] = plane
            return self.engine.degrid(self.plan, self.uvw_m, grid, aterms=aterms)
        n_bl, n_times, _ = self.uvw_m.shape
        out = np.zeros(
            (n_bl, n_times, self.plan.n_channels, 2, 2), dtype=COMPLEX_DTYPE
        )
        grid = np.zeros((4, g, g), dtype=COMPLEX_DTYPE)  # reused by every layer
        for layer, screen in zip(self.layers, self._layer_screens()):
            grid[0] = grid[3] = centered_fft2(model * np.conj(screen))
            # the layers' work items cover disjoint visibility blocks
            out += self.engine.degrid(layer.plan, self.uvw_m, grid, aterms=aterms)
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
        return self._field.predict(model, self._aterms(aterms))


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

    def _rotate(self, visibilities: np.ndarray, facet: Facet, sign: float) -> np.ndarray:
        """Phase-rotate a visibility set to (+1) / from (-1) a facet centre."""
        phasor = facet_rotation_phasor(
            self.ctx.uvw_m, self.ctx.frequencies_hz, facet.l0, facet.m0, sign
        )
        return (visibilities * phasor[..., np.newaxis, np.newaxis]).astype(
            COMPLEX_DTYPE
        )

    def _facet_invert_into(
        self,
        mosaic: np.ndarray,
        index: int,
        visibilities: np.ndarray,
        aterms: ATermGenerator | None,
        flags: np.ndarray | None,
        weights: np.ndarray | None,
    ) -> None:
        """Image one facet and place its central tile into the mosaic."""
        facet = self.scheme.facets[index]
        field = self._fields[index]
        rotated = self._rotate(visibilities, facet, sign=+1.0)
        weight_sum = field.weight_sum(weights, flags)
        image = field.invert(rotated, aterms, flags, weight_sum)
        tile = extract_tile(image, self.scheme, facet)
        t = self.scheme.tile_size
        mosaic[facet.row0 : facet.row0 + t, facet.col0 : facet.col0 + t] = tile

    def _facet_predict(
        self,
        model: np.ndarray,
        index: int,
        aterms: ATermGenerator | None,
    ) -> np.ndarray:
        """One facet's (de-rotated) contribution to the predicted set."""
        facet = self.scheme.facets[index]
        facet_model = embed_tile(model, self.scheme, facet)
        predicted = self._fields[index].predict(facet_model, aterms)
        return self._rotate(predicted, facet, sign=-1.0)

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
        mosaic = np.zeros((g, g), dtype=np.float64)
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
            out += self._facet_predict(model, index, aterms_)
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


# ------------------------------------------------- functional conveniences


def invert_2d(ctx: ImagingContext, visibilities: np.ndarray, **kw: Any) -> InvertResult:
    """One-shot plain-IDG invert (see :class:`TwoDimFTProcessor`)."""
    return TwoDimFTProcessor(ctx).invert(visibilities, **kw)


def predict_2d(ctx: ImagingContext, model_image: np.ndarray, **kw: Any) -> np.ndarray:
    """One-shot plain-IDG predict."""
    return TwoDimFTProcessor(ctx).predict(model_image, **kw)


def invert_wstack(
    ctx: ImagingContext,
    visibilities: np.ndarray,
    n_w_planes: int = 4,
    **kw: Any,
) -> InvertResult:
    """One-shot w-stacked invert."""
    return WStackFTProcessor(ctx, n_w_planes=n_w_planes).invert(visibilities, **kw)


def predict_wstack(
    ctx: ImagingContext,
    model_image: np.ndarray,
    n_w_planes: int = 4,
    **kw: Any,
) -> np.ndarray:
    """One-shot w-stacked predict."""
    return WStackFTProcessor(ctx, n_w_planes=n_w_planes).predict(model_image, **kw)


def invert_facets(
    ctx: ImagingContext,
    visibilities: np.ndarray,
    n_facets: int = 2,
    padding: float = 1.5,
    **kw: Any,
) -> InvertResult:
    """One-shot faceted invert."""
    return FacetsFTProcessor(ctx, n_facets=n_facets, padding=padding).invert(
        visibilities, **kw
    )


def predict_facets(
    ctx: ImagingContext,
    model_image: np.ndarray,
    n_facets: int = 2,
    padding: float = 1.5,
    **kw: Any,
) -> np.ndarray:
    """One-shot faceted predict."""
    return FacetsFTProcessor(ctx, n_facets=n_facets, padding=padding).predict(
        model_image, **kw
    )


def invert_wstack_facets(
    ctx: ImagingContext,
    visibilities: np.ndarray,
    n_facets: int = 2,
    n_w_planes: int = 4,
    padding: float = 1.5,
    **kw: Any,
) -> InvertResult:
    """One-shot w-planes x facets invert."""
    return WStackFacetsFTProcessor(
        ctx, n_facets=n_facets, n_w_planes=n_w_planes, padding=padding
    ).invert(visibilities, **kw)


def predict_wstack_facets(
    ctx: ImagingContext,
    model_image: np.ndarray,
    n_facets: int = 2,
    n_w_planes: int = 4,
    padding: float = 1.5,
    **kw: Any,
) -> np.ndarray:
    """One-shot w-planes x facets predict."""
    return WStackFacetsFTProcessor(
        ctx, n_facets=n_facets, n_w_planes=n_w_planes, padding=padding
    ).predict(model_image, **kw)
