"""Hand-built scenarios: the paper's figures plus workflow-shape variety.

``fig1_workflow`` reconstructs the running example — two part suppliers,
one American, feeding a European warehouse — with the reference attribute
names section 3.1 prescribes: American and European dates share ``DATE``
(used only as groupers / equality keys), while Dollar and Euro costs get
distinct names (``DCOST`` / ``ECOST``), and the *monthly* Euro cost —
PARTS1's granularity and the aggregation's output — is ``ECOST_M``.

``fig4_*`` builds the three states of the Fig. 4 cost example (surrogate
keys and a selection around a union) that motivates DIS and FAC.

The remaining scenarios exercise graph shapes beyond the running example:
``star_join_scenario`` (a JOIN binary), ``dual_target_scenario`` (source
fan-out into two target pipelines), and ``two_branch_scenario`` (compact
enough for full exhaustive search).
"""

from __future__ import annotations

from collections.abc import Callable
from dataclasses import dataclass, field

from repro.core.activity import Activity
from repro.core.attributes import NamingRegistry
from repro.core.recordset import RecordSet, RecordSetKind
from repro.core.schema import Schema
from repro.core.workflow import ETLWorkflow
from repro.engine.operators import EngineContext, default_scalar_functions
from repro.engine.rows import Row
from repro.templates import builtin as t
from repro.workloads.datagen import make_generic_rows, make_parts1_rows, make_parts2_rows

__all__ = [
    "Scenario",
    "fig1_workflow",
    "fig1_naming",
    "fig4_states",
    "fig4_context",
    "star_join_scenario",
    "dual_target_scenario",
    "two_branch_scenario",
]


@dataclass
class Scenario:
    """A workflow bundled with everything needed to run it on data."""

    workflow: ETLWorkflow
    context: EngineContext
    make_data: Callable[..., dict[str, list[Row]]]
    description: str = ""
    merge_constraints: tuple[tuple[str, str], ...] = ()
    extras: dict = field(default_factory=dict)


def fig1_naming() -> NamingRegistry:
    """The reference-name mapping of the running example (section 3.1)."""
    registry = NamingRegistry()
    registry.register("PARTS1.PKEY", "part key", "PKEY")
    registry.register("PARTS2.PKEY", "part key", "PKEY")
    registry.register("PARTS1.SOURCE", "supplier id", "SOURCE")
    registry.register("PARTS2.SOURCE", "supplier id", "SOURCE")
    # American and European dates share one reference name: downstream
    # treats them equivalently as groupers (paper, section 3.1).
    registry.register("PARTS1.DATE", "supply date", "DATE")
    registry.register("PARTS2.DATE", "supply date", "DATE")
    registry.register("PARTS2.DEPT", "department", "DEPT")
    # Dollar and Euro costs are different entities (selection on Euros!).
    registry.register("PARTS2.COST", "per-delivery cost in dollars", "DCOST")
    registry.register("<$2E output>", "per-delivery cost in euros", "ECOST")
    # PARTS1 stores monthly figures; the aggregation produces the same
    # real-world entity, so both map to ECOST_M.
    registry.register("PARTS1.COST", "monthly cost in euros", "ECOST_M")
    return registry


def fig1_workflow(
    threshold: float = 100.0,
    parts1_cardinality: float = 1000,
    parts2_cardinality: float = 3000,
) -> Scenario:
    """The initial state of Fig. 1, numbered exactly as in the paper.

    Node priorities: 1=PARTS1, 2=PARTS2, 3=NN(ECOST_M), 4=$2E, 5=A2E,
    6=γ_SUM, 7=U, 8=σ, 9=DW — so the state signature is
    ``((1.3)//(2.4.5.6)).7.8.9``.
    """
    wf = ETLWorkflow()
    parts1 = wf.add_node(
        RecordSet(
            "1",
            "PARTS1",
            Schema(["PKEY", "SOURCE", "DATE", "ECOST_M"]),
            RecordSetKind.SOURCE,
            cardinality=parts1_cardinality,
        )
    )
    parts2 = wf.add_node(
        RecordSet(
            "2",
            "PARTS2",
            Schema(["PKEY", "SOURCE", "DATE", "DEPT", "DCOST"]),
            RecordSetKind.SOURCE,
            cardinality=parts2_cardinality,
        )
    )
    not_null = wf.add_node(
        Activity(
            "3",
            t.NOT_NULL,
            {"attr": "ECOST_M"},
            selectivity=0.95,
            name="NN(ECOST_M)",
        )
    )
    dollars_to_euros = wf.add_node(
        Activity(
            "4",
            t.FUNCTION_APPLY,
            {
                "function": "dollar_to_euro",
                "inputs": ("DCOST",),
                "output": "ECOST",
                "injective": True,
            },
            selectivity=1.0,
            name="$2E(DCOST)",
        )
    )
    american_to_european = wf.add_node(
        Activity(
            "5",
            t.FUNCTION_APPLY,
            {
                "function": "date_us_to_eu",
                "inputs": ("DATE",),
                "output": "DATE",
                "injective": True,
            },
            selectivity=1.0,
            name="A2E(DATE)",
        )
    )
    aggregate = wf.add_node(
        Activity(
            "6",
            t.AGGREGATION,
            {
                "group_by": ("PKEY", "SOURCE", "DATE"),
                "measure": "ECOST",
                "agg": "sum",
                "output": "ECOST_M",
            },
            selectivity=0.30,
            name="γSUM(ECOST->ECOST_M)",
        )
    )
    union = wf.add_node(Activity("7", t.UNION, {}, name="U"))
    select = wf.add_node(
        Activity(
            "8",
            t.SELECTION,
            {"attr": "ECOST_M", "op": ">=", "value": threshold},
            selectivity=0.60,
            name=f"σ(ECOST_M>={threshold:g})",
        )
    )
    warehouse = wf.add_node(
        RecordSet(
            "9",
            "DW",
            Schema(["PKEY", "SOURCE", "DATE", "ECOST_M"]),
            RecordSetKind.TARGET,
        )
    )
    wf.add_edge(parts1, not_null)
    wf.add_edge(parts2, dollars_to_euros)
    wf.add_edge(dollars_to_euros, american_to_european)
    wf.add_edge(american_to_european, aggregate)
    wf.add_edge(not_null, union, port=0)
    wf.add_edge(aggregate, union, port=1)
    wf.add_edge(union, select)
    wf.add_edge(select, warehouse)

    context = EngineContext(scalar_functions=default_scalar_functions())

    def make_data(seed: int = 0, n1: int = 200, n2: int = 600) -> dict[str, list[Row]]:
        return {
            "PARTS1": make_parts1_rows(n1, seed=seed),
            "PARTS2": make_parts2_rows(n2, seed=seed + 1),
        }

    return Scenario(
        workflow=wf,
        context=context,
        make_data=make_data,
        description=(
            "Fig. 1 running example: PARTS1 (monthly, Euros) and PARTS2 "
            "(daily, Dollars, US dates) populating DW(PKEY,SOURCE,DATE,ECOST_M)"
        ),
        extras={"naming": fig1_naming()},
    )


# -- Fig. 4: the DIS / FAC cost example ------------------------------------------------


def _fig4_base_nodes(cardinality: float) -> dict:
    """Shared node builders for the three Fig. 4 states."""
    schema = Schema(["KEY", "SRC", "VAL"])
    out_schema = Schema(["SKEY", "SRC", "VAL"])
    return {
        "schema": schema,
        "out_schema": out_schema,
        "r1": lambda: RecordSet("1", "R1", schema, RecordSetKind.SOURCE, cardinality),
        "r2": lambda: RecordSet("2", "R2", schema, RecordSetKind.SOURCE, cardinality),
        "sk": lambda node_id: Activity(
            node_id,
            t.SURROGATE_KEY,
            # lookup_size (the lookup table's row count) is read by no
            # optimizer or engine path.  It stays because parameters feed
            # workflow_fingerprint: dropping it would change the
            # fingerprints, and so the cache and memo keys, of this
            # scenario and of every generated workflow that carries it.
            {
                "key_attr": "KEY",
                "skey_attr": "SKEY",
                "lookup": "skeys",
                "lookup_size": 1000,
            },
            selectivity=1.0,
            name="SK",
        ),
        "sigma": lambda node_id: Activity(
            node_id,
            t.SELECTION,
            {"attr": "VAL", "op": ">=", "value": 50.0},
            selectivity=0.50,
            name="σ(VAL>=50)",
        ),
        "union": lambda: Activity("5", t.UNION, {}, name="U"),
        "dw": lambda: RecordSet("9", "DW", out_schema, RecordSetKind.TARGET),
    }


def fig4_states(cardinality: float = 8) -> dict[str, ETLWorkflow]:
    """The three states of Fig. 4 (n = 8 rows per flow in the paper).

    * ``initial`` — SK on each branch, union, selection after the union;
    * ``distributed`` — the selection DIS-ed into both branches and swapped
      before the SKs (paper case 2);
    * ``factorized`` — additionally the two SKs FAC-ed into one after the
      union (paper case 3).
    """
    states: dict[str, ETLWorkflow] = {}

    # Case 1: SK twice, selection after the union.
    nodes = _fig4_base_nodes(cardinality)
    wf = ETLWorkflow()
    r1, r2 = wf.add_node(nodes["r1"]()), wf.add_node(nodes["r2"]())
    sk1, sk2 = wf.add_node(nodes["sk"]("3")), wf.add_node(nodes["sk"]("4"))
    union = wf.add_node(nodes["union"]())
    sigma = wf.add_node(nodes["sigma"]("6"))
    dw = wf.add_node(nodes["dw"]())
    wf.add_edge(r1, sk1)
    wf.add_edge(r2, sk2)
    wf.add_edge(sk1, union, port=0)
    wf.add_edge(sk2, union, port=1)
    wf.add_edge(union, sigma)
    wf.add_edge(sigma, dw)
    states["initial"] = wf

    # Case 2: selection distributed into both branches, before the SKs.
    nodes = _fig4_base_nodes(cardinality)
    wf = ETLWorkflow()
    r1, r2 = wf.add_node(nodes["r1"]()), wf.add_node(nodes["r2"]())
    sig1, sig2 = wf.add_node(nodes["sigma"]("6_1")), wf.add_node(nodes["sigma"]("6_2"))
    sk1, sk2 = wf.add_node(nodes["sk"]("3")), wf.add_node(nodes["sk"]("4"))
    union = wf.add_node(nodes["union"]())
    dw = wf.add_node(nodes["dw"]())
    wf.add_edge(r1, sig1)
    wf.add_edge(r2, sig2)
    wf.add_edge(sig1, sk1)
    wf.add_edge(sig2, sk2)
    wf.add_edge(sk1, union, port=0)
    wf.add_edge(sk2, union, port=1)
    wf.add_edge(union, dw)
    states["distributed"] = wf

    # Case 3: selections in the branches, a single factorized SK after U.
    nodes = _fig4_base_nodes(cardinality)
    wf = ETLWorkflow()
    r1, r2 = wf.add_node(nodes["r1"]()), wf.add_node(nodes["r2"]())
    sig1, sig2 = wf.add_node(nodes["sigma"]("6_1")), wf.add_node(nodes["sigma"]("6_2"))
    union = wf.add_node(nodes["union"]())
    sk = wf.add_node(nodes["sk"]("3"))
    dw = wf.add_node(nodes["dw"]())
    wf.add_edge(r1, sig1)
    wf.add_edge(r2, sig2)
    wf.add_edge(sig1, union, port=0)
    wf.add_edge(sig2, union, port=1)
    wf.add_edge(union, sk)
    wf.add_edge(sk, dw)
    states["factorized"] = wf

    return states


def fig4_context(key_domain: int = 1000) -> EngineContext:
    """Engine context with the surrogate-key lookup the Fig. 4 states use."""
    context = EngineContext(scalar_functions=default_scalar_functions())
    context.lookups["skeys"] = {key: 10_000 + key for key in range(key_domain)}
    return context


def star_join_scenario(
    orders_cardinality: float = 5000, customers_cardinality: float = 400
) -> Scenario:
    """A star-schema load: orders joined with a customer dimension.

    Exercises the JOIN binary activity: a primary-key violation check on
    the join key sits *after* the join in the initial design and can be
    distributed into both branches (its functionality, CUSTKEY, exists on
    both sides); the amount filter upstream of nothing can only be pushed
    within the fact branch by swaps.  Demonstrates the paper's machinery
    on a binary activity other than union.
    """
    wf = ETLWorkflow()
    orders = wf.add_node(
        RecordSet(
            "1",
            "ORDERS",
            Schema(["OID", "CUSTKEY", "DATE", "AMOUNT"]),
            RecordSetKind.SOURCE,
            cardinality=orders_cardinality,
        )
    )
    customers = wf.add_node(
        RecordSet(
            "2",
            "CUSTOMERS",
            Schema(["CUSTKEY", "SEGMENT", "BALANCE"]),
            RecordSetKind.SOURCE,
            cardinality=customers_cardinality,
        )
    )
    convert = wf.add_node(
        Activity(
            "3",
            t.FUNCTION_APPLY,
            {
                "function": "scale_double",
                "inputs": ("AMOUNT",),
                "output": "NET",
                "injective": True,
            },
            name="f(AMOUNT->NET)",
        )
    )
    amount_filter = wf.add_node(
        Activity(
            "4",
            t.SELECTION,
            {"attr": "NET", "op": ">=", "value": 20.0},
            selectivity=0.5,
            name="σ(NET>=20)",
        )
    )
    segment_filter = wf.add_node(
        Activity(
            "5",
            t.SELECTION,
            {"attr": "SEGMENT", "op": "==", "value": "GOLD"},
            selectivity=0.3,
            name="σ(SEGMENT=GOLD)",
        )
    )
    join = wf.add_node(
        Activity(
            "6",
            t.JOIN,
            {"on": ("CUSTKEY",)},
            selectivity=1.0 / customers_cardinality,
            name="⋈(CUSTKEY)",
        )
    )
    key_check = wf.add_node(
        Activity(
            "7",
            t.PK_CHECK,
            {"key_attrs": ("CUSTKEY",), "reference": "blocked_keys"},
            selectivity=0.9,
            name="PK(CUSTKEY)",
        )
    )
    dw = wf.add_node(
        RecordSet(
            "9",
            "FACT_ORDERS",
            Schema(["OID", "CUSTKEY", "DATE", "NET", "SEGMENT", "BALANCE"]),
            RecordSetKind.TARGET,
        )
    )
    wf.add_edge(orders, convert)
    wf.add_edge(convert, amount_filter)
    wf.add_edge(customers, segment_filter)
    wf.add_edge(amount_filter, join, port=0)
    wf.add_edge(segment_filter, join, port=1)
    wf.add_edge(join, key_check)
    wf.add_edge(key_check, dw)
    wf.validate()
    wf.propagate_schemas()

    context = EngineContext(scalar_functions=default_scalar_functions())
    context.references["blocked_keys"] = frozenset({(1,), (2,), (3,)})

    def make_data(seed: int = 0, n_orders: int = 300, n_customers: int = 60):
        import random as _random

        rng = _random.Random(seed)
        customers_rows = [
            {
                "CUSTKEY": key,
                "SEGMENT": rng.choice(["GOLD", "SILVER", "BRONZE"]),
                "BALANCE": round(rng.uniform(-100, 1000), 2),
            }
            for key in range(n_customers)
        ]
        orders_rows = [
            {
                "OID": i,
                "CUSTKEY": rng.randrange(n_customers),
                "DATE": f"{rng.randint(1, 6):02d}/01/2005",
                "AMOUNT": round(rng.uniform(1, 100), 2),
            }
            for i in range(n_orders)
        ]
        return {"ORDERS": orders_rows, "CUSTOMERS": customers_rows}

    return Scenario(
        workflow=wf,
        context=context,
        make_data=make_data,
        description="Star-schema join load (orders ⋈ customers)",
    )


def dual_target_scenario(cardinality: float = 8000) -> Scenario:
    """One source feeding two independent target pipelines.

    A single extract populates both a detail table (filtered) and a
    monthly summary (aggregated, thresholded) — recordset fan-out, which
    the paper's graph model allows (a recordset may provide several
    consumers).  Each pipeline optimizes independently; the state
    signature is the ``//``-join of the per-target signatures.

    Built with :class:`~repro.core.builder.WorkflowBuilder`.
    """
    from repro.core.builder import WorkflowBuilder

    b = WorkflowBuilder()
    src = b.source(
        "ORDERS", ["OID", "REGION", "DATE", "AMOUNT"], cardinality=cardinality
    )
    # Pipeline 1: detail rows, cleansing written after the conversion.
    detail_tail = b.chain(
        src,
        b.activity(
            "function_apply",
            {
                "function": "scale_double",
                "inputs": ("AMOUNT",),
                "output": "NET",
                "injective": True,
            },
            name="f(AMOUNT->NET)",
        ),
        b.activity("not_null", {"attr": "NET"}, selectivity=0.95),
        b.activity(
            "selection",
            {"attr": "NET", "op": ">=", "value": 10.0},
            selectivity=0.4,
            name="σ(NET>=10)",
        ),
    )
    b.target("DW_DETAIL", ["OID", "REGION", "DATE", "NET"], provider=detail_tail)

    # Pipeline 2: monthly revenue with a post-aggregation threshold.
    summary_tail = b.chain(
        src,
        b.activity(
            "function_apply",
            {
                "function": "scale_double",
                "inputs": ("AMOUNT",),
                "output": "NET",
                "injective": True,
            },
            name="f2(AMOUNT->NET)",
        ),
        b.activity(
            "aggregation",
            {
                "group_by": ("REGION", "DATE"),
                "measure": "NET",
                "agg": "sum",
                "output": "REVENUE",
            },
            selectivity=0.05,
            name="γSUM(NET->REVENUE)",
        ),
        b.activity(
            "selection",
            {"attr": "REVENUE", "op": ">=", "value": 100.0},
            selectivity=0.7,
            name="σ(REVENUE>=100)",
        ),
    )
    b.target("DW_MONTHLY", ["REGION", "DATE", "REVENUE"], provider=summary_tail)
    workflow = b.build()

    context = EngineContext(scalar_functions=default_scalar_functions())

    def make_data(seed: int = 0, n: int = 400) -> dict[str, list[Row]]:
        import random as _random

        rng = _random.Random(seed)
        rows = [
            {
                "OID": i,
                "REGION": rng.choice(["EU", "US"]),
                "DATE": f"2005-{rng.randint(1, 6):02d}-01",
                "AMOUNT": None if rng.random() < 0.03 else round(rng.uniform(1, 80), 2),
            }
            for i in range(n)
        ]
        return {"ORDERS": rows}

    return Scenario(
        workflow=workflow,
        context=context,
        make_data=make_data,
        description="One extract, two targets: detail table + monthly summary",
    )


def two_branch_scenario(
    cardinality: float = 100, selectivity: float = 0.4
) -> Scenario:
    """A compact two-branch scenario small enough for exhaustive search.

    Two generic sources, a filter and a Dollar->Euro conversion per branch,
    a union, and a late selection — rich enough to exercise SWA, FAC and
    DIS, small enough that ES terminates in seconds.
    """
    schema = Schema(["KEY", "SRC", "DATE", "V1", "V2", "V3"])
    wf = ETLWorkflow()
    s1 = wf.add_node(
        RecordSet("1", "SRC1", schema, RecordSetKind.SOURCE, cardinality)
    )
    s2 = wf.add_node(
        RecordSet("2", "SRC2", schema, RecordSetKind.SOURCE, cardinality)
    )
    convert1 = wf.add_node(
        Activity(
            "3",
            t.FUNCTION_APPLY,
            {
                "function": "scale_double",
                "inputs": ("V1",),
                "output": "W1",
                "injective": True,
            },
            name="f(V1->W1)/a",
        )
    )
    convert2 = wf.add_node(
        Activity(
            "4",
            t.FUNCTION_APPLY,
            {
                "function": "scale_double",
                "inputs": ("V1",),
                "output": "W1",
                "injective": True,
            },
            name="f(V1->W1)/b",
        )
    )
    filter1 = wf.add_node(
        Activity(
            "5",
            t.SELECTION,
            {"attr": "V2", "op": ">=", "value": 40.0},
            selectivity=0.6,
            name="σ(V2>=40)/a",
        )
    )
    filter2 = wf.add_node(
        Activity(
            "6",
            t.NOT_NULL,
            {"attr": "V1"},
            selectivity=0.95,
            name="NN(V1)",
        )
    )
    union = wf.add_node(Activity("7", t.UNION, {}, name="U"))
    late_filter = wf.add_node(
        Activity(
            "8",
            t.SELECTION,
            {"attr": "V3", "op": "<=", "value": 100.0 * selectivity},
            selectivity=selectivity,
            name="σ(V3)",
        )
    )
    dw = wf.add_node(
        RecordSet(
            "9",
            "DW",
            Schema(["KEY", "SRC", "DATE", "W1", "V2", "V3"]),
            RecordSetKind.TARGET,
        )
    )
    wf.add_edge(s1, convert1)
    wf.add_edge(convert1, filter1)
    wf.add_edge(s2, filter2)
    wf.add_edge(filter2, convert2)
    wf.add_edge(filter1, union, port=0)
    wf.add_edge(convert2, union, port=1)
    wf.add_edge(union, late_filter)
    wf.add_edge(late_filter, dw)

    context = EngineContext(scalar_functions=default_scalar_functions())

    def make_data(seed: int = 0, n: int = 150) -> dict[str, list[Row]]:
        return {
            "SRC1": make_generic_rows(n, seed, "SRC1"),
            "SRC2": make_generic_rows(n, seed + 1, "SRC2"),
        }

    return Scenario(
        workflow=wf,
        context=context,
        make_data=make_data,
        description="Two-branch union scenario sized for exhaustive search",
    )
