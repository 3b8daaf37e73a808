"""The benchmark's two workloads, as one child process runs them.

Each workload is a fixed amount of work made from ``--seed``: a set of
*units* (an experiment, or one generated Internet), each reported as ok
or failed with the digests of the series it produced. One child runs
one *pass* of one workload, a few seconds of work, in one of two modes:

``run``
    Untraced: the form the end-to-end metrics time.
``trace``
    The same pass with the :mod:`tracing` wrappers installed.

Workloads name their units the same way at every seed, so the golden
file can list the series each unit must produce.
"""

from __future__ import annotations

import contextlib
import dataclasses
import hashlib
import sys
import time
import traceback
from typing import Callable, Dict, Optional

from tracing import Tracer, install

MODES = ("run", "trace")

#: The content experiments: fig11 and both content ablations re-evaluate
#: the same popular measurement, fig12 adds the table-size view.
CONTENT_EXPERIMENTS = ("fig11", "ablation-union", "ablation-tradeoff", "fig12")

#: 40 popular domains (~1,000 measured names): the content mix of the
#: paper-scale suite in about eight seconds a pass.
CONTENT_DOMAINS = 40

#: Every experiment on the device path and none that evaluates content.
DEVICE_EXPERIMENTS = (
    "fig6", "fig7", "fig8", "fig8-sensitivity", "fig9", "fig10", "fib-size",
    "perturbation", "policy-sensitivity", "ablation-multihoming",
    "ablation-outage",
)

#: ~2,124 ASes and ~2,350 prefixes: five times World's topology, so the
#: control plane dominates instead of hiding under the evaluators.
INTERNET_TOPOLOGY = dict(
    t2_per_region=12,
    stubs_per_region=180,
    prefixes_per_stub=(1, 1),
    prefixes_per_t2=(2, 3),
    prefixes_per_t1=(2, 4),
)


class Run:
    """What one child observed: unit outcomes, set-up time, spans."""

    def __init__(self, mode: str):
        if mode not in MODES:
            raise ValueError(f"unknown mode {mode!r}")
        self.mode = mode
        self.units: Dict[str, dict] = {}
        self.setup_at: Optional[float] = None
        self.tracer: Optional[Tracer] = None

    def load_repro(self) -> None:
        """Import every ``repro`` module, then install the wrappers."""
        from repro.engine.registry import load_registry

        load_registry()
        if self.mode == "trace":
            self.tracer = install(Tracer())

    def setup_done(self) -> None:
        self.setup_at = time.time()

    def span(self, layer: str):
        if self.tracer is None:
            return contextlib.nullcontext()
        return self.tracer.span(layer)

    def unit(self, name: str, body: Callable[[], Dict[str, str]]) -> None:
        """Run one unit, isolating its failure from the rest."""
        try:
            self.units[name] = {"ok": True, "digests": body()}
        except Exception:
            error = traceback.format_exc()
            sys.stderr.write(f"bench: unit {name!r} failed:\n{error}")
            self.units[name] = {"ok": False, "error": error}


def _digest_arrays(*arrays) -> str:
    h = hashlib.sha256()
    for a in arrays:
        h.update(a.tobytes())
    return h.hexdigest()[:16]


def _experiment(run: Run, world, name: str) -> Dict[str, str]:
    from repro.engine.registry import get_spec
    from repro.obs import digest_series

    spec = get_spec(name)
    with run.span(f"experiments.{name}"):
        result = spec.execute(world)
    return {
        s.name: digest_series(s.name, s.headers, s.rows)
        for s in spec.series(result)
    }


def _experiments(run: Run, world, names) -> None:
    for name in names:
        run.unit(name, lambda name=name: _experiment(run, world, name))


# -- content-churn -------------------------------------------------------


def content_churn(run: Run, seed: int) -> None:
    run.load_repro()
    from repro.experiments import ExperimentScale, World

    world = World(ExperimentScale(
        "bench-content", num_users=120, device_days=5, content_days=3,
        num_popular_domains=CONTENT_DOMAINS, seed=seed,
    ))
    # Set-up: build the substrate the experiments share (lazy properties).
    world.routeviews
    world.popular_measurement
    world.unpopular_measurement
    run.setup_done()
    _experiments(run, world, CONTENT_EXPERIMENTS)


# -- device-routing ------------------------------------------------------


def require_prefixes(topology) -> None:
    """Fail when an AS owns no prefix.

    ``generate_as_topology`` stops handing out /16s once a region's /8
    is used up, silently leaving later ASes without address space; the
    mobility generator then fails far from the cause.
    """
    bare = sorted(asn for asn, node in topology.ases.items()
                  if not node.prefixes)
    if bare:
        raise ValueError(
            f"{len(bare)} of {len(topology)} ASes own no prefix (a "
            f"region's /8 ran out of /16s), first AS{bare[0]}"
        )


def _internet(seed: int) -> Dict[str, str]:
    """One 2,124-AS Internet: bulk routes, next-hop tables, device costs."""
    from repro.core.evaluator import DeviceUpdateCostEvaluator
    from repro.measurement import build_ripe_routers, build_routeviews_routers
    from repro.mobility import MobilityWorkloadConfig, generate_workload
    from repro.obs import digest_series
    from repro.routing import RoutingOracle
    from repro.topology import ASTopologyConfig, generate_as_topology

    topology = generate_as_topology(
        ASTopologyConfig(seed=seed, **INTERNET_TOPOLOGY))
    require_prefixes(topology)
    oracle = RoutingOracle(topology)
    batch = oracle.routes_to_many(sorted(topology.ases))
    routers = (build_routeviews_routers(topology)
               + build_ripe_routers(topology))
    prefixes = [prefix for prefix, _origin in topology.all_prefixes()]
    tables = [router.next_hop_table(oracle, prefixes) for router in routers]
    workload = generate_workload(topology, MobilityWorkloadConfig(
        num_users=120, num_days=5, seed=seed))
    report = DeviceUpdateCostEvaluator(routers, oracle).evaluate(
        workload.as_columns())
    return {
        "routes": _digest_arrays(batch.dests, batch.ptype, batch.plen,
                                 batch.parent),
        "next_hops": digest_series(
            "next_hops", ("router", "prefixes", "table"),
            [(r.name, len(prefixes), _digest_arrays(t))
             for r, t in zip(routers, tables)],
        ),
        "device_updates": digest_series(
            "device_updates", ("router", "events", "updates"),
            [(name, report.num_events, n)
             for name, n in sorted(report.updates.items())],
        ),
    }


def device_routing(run: Run, seed: int) -> None:
    run.load_repro()
    from repro.experiments import SMALL_SCALE, World

    world = World(dataclasses.replace(SMALL_SCALE, seed=seed))
    # Set-up: build the substrate the experiments share (lazy properties).
    world.routeviews
    world.ripe
    world.device_event_columns
    run.setup_done()
    _experiments(run, world, DEVICE_EXPERIMENTS)
    run.unit("internet", lambda: _internet(seed))


WORKLOADS: Dict[str, Callable[[Run, int], None]] = {
    "content-churn": content_churn,
    "device-routing": device_routing,
}
