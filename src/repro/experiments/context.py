"""Shared experiment context.

Every table/figure reproduction consumes some subset of the same world:
the synthetic AS topology, the routing oracle, the RouteViews/RIPE
routers, the NomadLog device workload, and the content measurement.
:class:`World` builds each piece lazily and caches it, so a bench that
only needs Fig. 6 does not pay for BGP route computation, while a full
run shares everything.

Two scales are provided: ``DEFAULT_SCALE`` reproduces the paper's
parameters (372 users, full popular set); ``SMALL_SCALE`` runs the same
pipelines in seconds for CI and examples.
"""

from __future__ import annotations

import dataclasses
import os
from dataclasses import dataclass
from typing import Any, Callable, Dict, List, Optional

from ..content import (
    DomainUniverse,
    DomainUniverseConfig,
    HostingDirectory,
    assign_hosting,
    generate_domain_universe,
)
from ..latency import IPlanePredictor
from ..measurement import (
    ContentMeasurement,
    MeasurementConfig,
    MeasurementController,
    build_ripe_routers,
    build_routeviews_routers,
)
from ..mobility import (
    MobilityWorkload,
    MobilityWorkloadConfig,
    generate_workload,
)
from .. import obs
from ..core import ContentUpdateCostEvaluator
from ..engine.cache import ArtifactCache
from ..routing import RoutingOracle, VantagePoint
from ..topology import ASTopology, ASTopologyConfig, generate_as_topology

__all__ = ["ExperimentScale", "DEFAULT_SCALE", "SMALL_SCALE", "World", "active_scale"]


@dataclass(frozen=True)
class ExperimentScale:
    """Workload sizes for one experiment run."""

    label: str
    num_users: int
    device_days: int
    content_days: int
    #: None = the full 500-domain universe; otherwise a domain count.
    num_popular_domains: Optional[int]
    seed: int = 2014


#: The paper's parameters: 372 users, the full popular set, 21
#: measurement days shortened to 7 (content statistics are per-day, so
#: the week-long window preserves every reported distribution).
DEFAULT_SCALE = ExperimentScale(
    label="paper",
    num_users=372,
    device_days=14,
    content_days=7,
    num_popular_domains=None,
)

#: A seconds-scale configuration for CI, examples, and quick benches.
SMALL_SCALE = ExperimentScale(
    label="small",
    num_users=120,
    device_days=5,
    content_days=3,
    num_popular_domains=120,
)


def active_scale() -> ExperimentScale:
    """The scale selected via the ``REPRO_SCALE`` environment variable.

    ``REPRO_SCALE=small`` selects :data:`SMALL_SCALE`; anything else
    (including unset) selects the paper-parameter :data:`DEFAULT_SCALE`.
    """
    return SMALL_SCALE if os.environ.get("REPRO_SCALE") == "small" else DEFAULT_SCALE


class World:
    """Lazily-constructed shared substrate for all experiments.

    With an :class:`~repro.engine.cache.ArtifactCache`, the expensive
    pieces (topology, routing oracle, workloads, content measurements)
    are loaded from / persisted to disk, content-addressed by scale,
    seed, and generator version — parallel engine workers and repeated
    CLI invocations then share one substrate instead of regenerating
    it. Without a cache, behaviour is unchanged from the original
    in-process lazy construction.
    """

    def __init__(
        self,
        scale: Optional[ExperimentScale] = None,
        cache: Optional[ArtifactCache] = None,
    ):
        self.scale = scale or active_scale()
        self.cache = cache
        self._topology: Optional[ASTopology] = None
        self._oracle: Optional[RoutingOracle] = None
        self._routeviews: Optional[List[VantagePoint]] = None
        self._ripe: Optional[List[VantagePoint]] = None
        self._workload: Optional[MobilityWorkload] = None
        self._event_columns = None
        self._universe: Optional[DomainUniverse] = None
        self._hosting: Optional[HostingDirectory] = None
        self._popular: Optional[ContentMeasurement] = None
        self._unpopular: Optional[ContentMeasurement] = None
        self._content_evaluator: Optional[ContentUpdateCostEvaluator] = None
        self._iplane: Optional[IPlanePredictor] = None

    # -- artifact caching --------------------------------------------------

    def _artifact(
        self, name: str, builder: Callable[[], Any], **params: Any
    ) -> Any:
        """Build ``name`` via ``builder``, going through the cache if set.

        The whole acquisition is traced as span ``world.<name>``; when
        the builder actually runs (a cache miss, or no cache at all)
        the construction itself nests as ``world.build.<name>``, so a
        profile separates "loaded from disk" from "regenerated".
        """
        def timed_builder() -> Any:
            with obs.span(f"world.build.{name}"):
                return builder()

        with obs.span(f"world.{name}"):
            if self.cache is None:
                return timed_builder()
            return self.cache.get_or_build(name, timed_builder, **params)

    @staticmethod
    def _topology_params() -> Dict[str, Any]:
        """The generator parameters the shared topology is built with.

        The world builds the topology with the default
        :class:`~repro.topology.ASTopologyConfig`; keying the topology
        artifact — and the warm oracle derived from it — by these
        fields means a future config change can never resurrect routes
        computed over a different graph.
        """
        cfg = ASTopologyConfig()
        return {f.name: getattr(cfg, f.name)
                for f in dataclasses.fields(cfg)}

    def save_warm_artifacts(self) -> None:
        """Persist accumulated lazy state back to the cache.

        The routing oracle computes best paths on demand, so a freshly
        built oracle is an empty shell — the valuable state is the
        per-destination route cache it accumulates *during* a run. The
        engine calls this after experiments finish so the next run (or
        a sibling parallel worker) starts with the routes pre-computed.
        Concurrent writers are safe: stores are atomic and any
        complete snapshot yields identical routes.

        The store is skipped entirely when the oracle has accumulated
        no routes since it was built or loaded — re-pickling an
        unchanged oracle after every experiment is pure overhead.
        """
        if self.cache is None or self._oracle is None:
            return
        if self._oracle.table_dirty > 0:
            # The array control plane's tables persist as a flat-buffer
            # artifact warm runs memory-map and copy — no unpickle on
            # reload.
            buffers = self._oracle.export_route_tables()
            if buffers is not None:
                with obs.span("world.oracle_tables_store"):
                    self.cache.store_arrays(
                        self.cache.key(
                            "oracle-tables", **self._topology_params()
                        ),
                        buffers,
                    )
                obs.incr("oracle.tables_stored")
        if self._oracle.dirty_routes == 0:
            obs.incr("oracle.warm_store_skipped")
            return
        with obs.span("world.oracle_warm_store"):
            self.cache.store(
                self.cache.key("oracle-warm", **self._topology_params()),
                self._oracle,
            )
        obs.incr("oracle.warm_stored")
        self._oracle.mark_clean()

    # -- substrate pieces ------------------------------------------------

    @property
    def topology(self) -> ASTopology:
        """The synthetic AS-level Internet."""
        if self._topology is None:
            self._topology = self._artifact(
                "topology", generate_as_topology, **self._topology_params()
            )
        return self._topology

    @property
    def oracle(self) -> RoutingOracle:
        """Policy routing over the topology."""
        if self._oracle is None:
            with obs.span("world.oracle"):
                warm = (
                    self.cache.load(
                        self.cache.key("oracle-warm",
                                       **self._topology_params())
                    )
                    if self.cache is not None
                    else None
                )
                obs.incr("oracle.warm_load" if warm is not None
                         else "oracle.cold_start")
                self._oracle = warm or RoutingOracle(self.topology)
                self._adopt_table_artifact()
        return self._oracle

    def _adopt_table_artifact(self) -> None:
        """Copy previously persisted array route tables, if any, into
        the oracle's store; tables that do not fit the topology are
        refused (``oracle.tables_rejected``) and computed afresh."""
        if self.cache is None:
            return
        loaded = self.cache.load_arrays(
            self.cache.key("oracle-tables", **self._topology_params())
        )
        if loaded is None:
            return
        buffers, _meta = loaded
        try:
            self._oracle.import_route_tables(buffers)
        except ValueError:
            obs.incr("oracle.tables_rejected")
            return
        obs.incr("oracle.tables_mmap")

    @property
    def routeviews(self) -> List[VantagePoint]:
        """The 12 RouteViews routers of Fig. 8."""
        if self._routeviews is None:
            self._routeviews = build_routeviews_routers(self.topology)
        return self._routeviews

    @property
    def ripe(self) -> List[VantagePoint]:
        """The 13 RIPE routers of §6.2.2."""
        if self._ripe is None:
            self._ripe = build_ripe_routers(self.topology)
        return self._ripe

    @property
    def iplane(self) -> IPlanePredictor:
        """The iPlane latency-predictor substitute."""
        if self._iplane is None:
            self._iplane = IPlanePredictor(self.oracle)
        return self._iplane

    # -- device workload ---------------------------------------------------

    @property
    def workload(self) -> MobilityWorkload:
        """The synthetic NomadLog workload."""
        if self._workload is None:
            self._workload = self._artifact(
                "workload",
                lambda: generate_workload(
                    self.topology,
                    MobilityWorkloadConfig(
                        num_users=self.scale.num_users,
                        num_days=self.scale.device_days,
                        seed=self.scale.seed,
                    ),
                ),
                num_users=self.scale.num_users,
                num_days=self.scale.device_days,
                seed=self.scale.seed,
            )
        return self._workload

    @property
    def device_event_columns(self):
        """All device mobility events as one columnar batch.

        The :class:`~repro.workload.DeviceEventColumns` the vectorized
        evaluators reduce over — same events, same order as
        ``workload.all_transitions()``. Content-addressed like the other
        world artifacts (keyed by workload parameters plus the table
        layout version), so a cache hit skips workload generation
        entirely.
        """
        if self._event_columns is None:
            from ..workload import DeviceEventColumns

            params = dict(
                num_users=self.scale.num_users,
                num_days=self.scale.device_days,
                seed=self.scale.seed,
                layout=DeviceEventColumns.LAYOUT_VERSION,
            )
            if self.cache is not None:
                self._event_columns = self._event_columns_arrays(
                    DeviceEventColumns, params
                )
            else:
                self._event_columns = self._artifact(
                    "event-columns",
                    lambda: self.workload.as_columns(),
                    **params,
                )
        return self._event_columns

    def _event_columns_arrays(self, columns_cls, params):
        """The event table as an array artifact: mmap hit or build+store.

        Stored as flat buffers rather than a pickle, so a warm run maps
        the structured table straight off disk instead of unpickling an
        object graph.
        """
        key = self.cache.key("event-columns", **params)
        with obs.span("world.event-columns"):
            loaded = self.cache.load_arrays(key)
            if loaded is not None:
                buffers, meta = loaded
                try:
                    columns = columns_cls(
                        buffers["table"], tuple(meta["users"])
                    )
                    obs.incr("world.event_columns.mmap")
                    return columns
                except Exception:
                    pass  # malformed entry: rebuild below
            with obs.span("world.build.event-columns"):
                columns = self.workload.as_columns()
            self.cache.store_arrays(
                key,
                {"table": columns.table},
                meta={"users": list(columns.users)},
            )
            return columns

    def alternate_workload(self, num_users: int, seed: int) -> MobilityWorkload:
        """A second workload (the §6.2.2 IMAP-style sensitivity input)."""
        return self._artifact(
            "workload",
            lambda: generate_workload(
                self.topology,
                MobilityWorkloadConfig(
                    num_users=num_users,
                    num_days=self.scale.device_days,
                    seed=seed,
                ),
            ),
            num_users=num_users,
            num_days=self.scale.device_days,
            seed=seed,
        )

    # -- content workload ---------------------------------------------------

    @property
    def universe(self) -> DomainUniverse:
        """The popular + unpopular domain universe."""
        if self._universe is None:
            if self.scale.num_popular_domains is None:
                cfg = DomainUniverseConfig(seed=self.scale.seed)
            else:
                n = self.scale.num_popular_domains
                cfg = DomainUniverseConfig(
                    num_popular=n,
                    num_unpopular=max(n // 2, 20),
                    popular_total_names=int(n * 24.7),
                    seed=self.scale.seed,
                )
            self._universe = self._artifact(
                "universe",
                lambda: generate_domain_universe(cfg),
                num_popular_domains=self.scale.num_popular_domains,
                seed=self.scale.seed,
            )
        return self._universe

    @property
    def hosting(self) -> HostingDirectory:
        """Hosting models for every name in the universe."""
        if self._hosting is None:
            self._hosting = self._artifact(
                "hosting",
                lambda: assign_hosting(self.universe, self.topology),
                num_popular_domains=self.scale.num_popular_domains,
                seed=self.scale.seed,
            )
        return self._hosting

    def _controller(self) -> MeasurementController:
        return MeasurementController(
            self.topology,
            self.hosting,
            config=MeasurementConfig(days=self.scale.content_days,
                                     seed=self.scale.seed),
        )

    @property
    def popular_measurement(self) -> ContentMeasurement:
        """Merged hourly Addrs(d,t) for the popular set."""
        if self._popular is None:
            self._popular = self._measurement(popular=True)
        return self._popular

    def _measurement(self, popular: bool) -> ContentMeasurement:
        return self._artifact(
            "measurement",
            lambda: self._controller().measure_universe(
                self.universe, popular=popular
            ),
            popular=popular,
            days=self.scale.content_days,
            num_popular_domains=self.scale.num_popular_domains,
            seed=self.scale.seed,
        )

    @property
    def unpopular_measurement(self) -> ContentMeasurement:
        """Merged hourly Addrs(d,t) for the unpopular set."""
        if self._unpopular is None:
            self._unpopular = self._measurement(popular=False)
        return self._unpopular

    @property
    def content_evaluator(self) -> ContentUpdateCostEvaluator:
        """Content update costs at the RouteViews routers.

        Shared by every content experiment, so each measurement is
        reduced once per World however many experiments read it.
        """
        if self._content_evaluator is None:
            self._content_evaluator = ContentUpdateCostEvaluator(
                self.routeviews, self.oracle
            )
        return self._content_evaluator
