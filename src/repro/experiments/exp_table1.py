"""Table 1 — path stretch vs. aggregate update cost on toy topologies.

Reproduces the §5 analytic comparison for the chain, clique, binary
tree, and star, printing for each topology the paper's asymptotic
expression, our exact closed form, and a Monte Carlo measurement on the
actual graph (which validates that the formulas describe the system we
built).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict

from ..core import (
    TOPOLOGY_KINDS,
    Table1Row,
    closed_form_row,
    paper_asymptotic_row,
    simulate_row,
)
from ..engine import Series, register
from ..obs import PaperTarget, PerfBudget
from .report import banner, render_table

__all__ = ["Table1Result", "run", "format_result", "series",
           "PAPER_TARGETS", "PERF_BUDGETS", "target_values"]

#: §5 closed forms are scale-independent (n=63 fixed), so the bands
#: are tight: the exact formulas must keep matching the paper's
#: asymptotics to within discretisation error.
PAPER_TARGETS = (
    PaperTarget(
        key="chain.ind_stretch.exact", paper=21.00, lo=20.5, hi=21.5,
        section="§5 Table 1",
        note="indirection stretch on the chain, exact closed form",
    ),
    PaperTarget(
        key="clique.nb_update.exact", paper=1.0, lo=0.95, hi=1.0,
        section="§5 Table 1",
        note="name-based update cost on the clique",
    ),
    PaperTarget(
        key="star.nb_update.exact", paper=0.0156, lo=0.013, hi=0.018,
        section="§5 Table 1",
        note="name-based update cost on the star",
    ),
)


#: Cost bands for ``repro check``: Table 1 is world-free analytics on
#: 63-node toys — it must stay cheap at any scale. The wall band is
#: about three times its slowest plain reading on a 2-vCPU host (0.55
#: s); a blown band means the Monte Carlo pass regressed to something
#: super-linear.
PERF_BUDGETS = (
    PerfBudget(key="wall_s", hi=2.0,
               note="closed forms + 4000-step Monte Carlo on n=63"),
    PerfBudget(key="peak_rss_mb", hi=2048.0,
               note="toy topologies need no real memory"),
)


def target_values(result: "Table1Result") -> Dict[str, float]:
    """Observed values for :data:`PAPER_TARGETS`."""
    return {
        "chain.ind_stretch.exact":
            result.exact["chain"].indirection_stretch,
        "clique.nb_update.exact":
            result.exact["clique"].name_based_update_cost,
        "star.nb_update.exact":
            result.exact["star"].name_based_update_cost,
    }


@dataclass
class Table1Result:
    """Closed-form, asymptotic, and simulated rows per topology."""

    n: int
    steps: int
    exact: Dict[str, Table1Row]
    asymptotic: Dict[str, Table1Row]
    simulated: Dict[str, Table1Row]


@register(
    "table1",
    description="Table 1: analytic stretch vs update cost",
    section="§5",
    needs_world=False,
    tags=("table", "analytic"),
)
def run(n: int = 63, steps: int = 4000, seed: int = 2014) -> Table1Result:
    """Evaluate all four toy topologies at size ``n``."""
    exact = {}
    asym = {}
    sim = {}
    for kind in TOPOLOGY_KINDS:
        exact[kind] = closed_form_row(kind, n)
        asym[kind] = paper_asymptotic_row(kind, n)
        sim[kind] = simulate_row(kind, n, steps=steps, seed=seed)
    return Table1Result(n=n, steps=steps, exact=exact, asymptotic=asym,
                        simulated=sim)


def format_result(result: Table1Result) -> str:
    """Render the Table 1 comparison."""
    rows = []
    for kind in TOPOLOGY_KINDS:
        e, a, s = (
            result.exact[kind],
            result.asymptotic[kind],
            result.simulated[kind],
        )
        rows.append(
            [
                kind,
                f"{a.indirection_stretch:.2f}",
                f"{e.indirection_stretch:.3f}",
                f"{s.indirection_stretch:.3f}",
                f"{a.name_based_update_cost:.4f}",
                f"{e.name_based_update_cost:.4f}",
                f"{s.name_based_update_cost:.4f}",
            ]
        )
    table = render_table(
        [
            "topology",
            "ind.stretch (paper)",
            "(exact)",
            "(simulated)",
            "nb.update (paper)",
            "(exact)",
            "(simulated)",
        ],
        rows,
    )
    head = banner(
        f"Table 1 -- stretch vs update cost (n={result.n}, "
        f"{result.steps} Monte Carlo steps)"
    )
    note = (
        "indirection update cost = 1/n and name-based stretch = 0 "
        "everywhere, as in the paper."
    )
    return f"{head}\n{table}\n{note}"


def series(result: Table1Result) -> list:
    """The exact-vs-simulated rows behind Table 1."""
    return [
        Series(
            "table1",
            ("topology", "ind_stretch_exact", "ind_stretch_sim",
             "nb_update_exact", "nb_update_sim"),
            [
                [
                    kind,
                    result.exact[kind].indirection_stretch,
                    result.simulated[kind].indirection_stretch,
                    result.exact[kind].name_based_update_cost,
                    result.simulated[kind].name_based_update_cost,
                ]
                for kind in result.exact
            ],
        )
    ]
