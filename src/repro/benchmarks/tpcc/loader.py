"""TPC-C data loader.

Populates warehouses, districts, customers, items, stock and a handful of
initial orders so that every stored procedure finds the rows it expects.
Warehouse ids are assigned so that warehouse ``w`` lives on partition
``w % num_partitions``, giving the clean one-warehouse-per-partition layout
the paper's experiments assume.
"""

from __future__ import annotations

from ...catalog.schema import Catalog
from ...storage.partition_store import Database
from ...workload.rng import WorkloadRandom
from .schema import TpccConfig


def load(catalog: Catalog, database: Database, config: TpccConfig, rng: WorkloadRandom) -> None:
    """Populate ``database`` with a deterministic TPC-C data set."""
    _load_items(database, config, rng)
    for w_id in range(config.num_warehouses):
        _load_warehouse(database, config, rng, w_id)


def _load_items(database, config, rng) -> None:
    for i_id in range(config.items):
        database.load_row("ITEM", {
            "I_ID": i_id,
            "I_NAME": f"item-{i_id}",
            "I_PRICE": round(rng.floating(1.0, 100.0), 2),
        })


def _load_warehouse(database, config, rng, w_id: int) -> None:
    database.load_row("WAREHOUSE", {
        "W_ID": w_id,
        "W_NAME": f"warehouse-{w_id}",
        "W_TAX": round(rng.floating(0.0, 0.2), 4),
        "W_YTD": 300000.0,
    })
    for i_id in range(config.items):
        database.load_row("STOCK", {
            "S_W_ID": w_id,
            "S_I_ID": i_id,
            "S_QUANTITY": rng.integer(10, 100),
            "S_YTD": 0,
            "S_ORDER_CNT": 0,
            "S_REMOTE_CNT": 0,
        })
    for d_id in range(config.districts_per_warehouse):
        _load_district(database, config, rng, w_id, d_id)


def _load_district(database, config, rng, w_id: int, d_id: int) -> None:
    next_order_id = config.initial_orders_per_district
    database.load_row("DISTRICT", {
        "D_W_ID": w_id,
        "D_ID": d_id,
        "D_NAME": f"district-{w_id}-{d_id}",
        "D_TAX": round(rng.floating(0.0, 0.2), 4),
        "D_YTD": 30000.0,
        "D_NEXT_O_ID": next_order_id,
    })
    for c_id in range(config.customers_per_district):
        database.load_row("CUSTOMER", {
            "C_W_ID": w_id,
            "C_D_ID": d_id,
            "C_ID": c_id,
            "C_LAST": f"customer-{c_id}",
            "C_CREDIT": "BC" if rng.probability(0.10) else "GC",
            "C_DISCOUNT": round(rng.floating(0.0, 0.5), 4),
            "C_BALANCE": -10.0,
            "C_YTD_PAYMENT": 10.0,
            "C_PAYMENT_CNT": 1,
            "C_DELIVERY_CNT": 0,
            "C_DATA": "initial",
        })
    for o_id in range(config.initial_orders_per_district):
        _load_order(database, config, rng, w_id, d_id, o_id)


def _load_order(database, config, rng, w_id: int, d_id: int, o_id: int) -> None:
    customer_id = rng.integer(0, config.customers_per_district - 1)
    line_count = rng.integer(3, 8)
    # Half of the initial orders are still undelivered so Delivery has work.
    delivered = o_id < config.initial_orders_per_district // 2
    database.load_row("ORDERS", {
        "O_W_ID": w_id,
        "O_D_ID": d_id,
        "O_ID": o_id,
        "O_C_ID": customer_id,
        "O_CARRIER_ID": rng.integer(1, 10) if delivered else None,
        "O_OL_CNT": line_count,
    })
    if not delivered:
        database.load_row("NEW_ORDER", {
            "NO_W_ID": w_id,
            "NO_D_ID": d_id,
            "NO_O_ID": o_id,
        })
    for number in range(1, line_count + 1):
        database.load_row("ORDER_LINE", {
            "OL_W_ID": w_id,
            "OL_D_ID": d_id,
            "OL_O_ID": o_id,
            "OL_NUMBER": number,
            "OL_I_ID": rng.integer(0, config.items - 1),
            "OL_SUPPLY_W_ID": w_id,
            "OL_QUANTITY": rng.integer(1, 10),
            "OL_AMOUNT": round(rng.floating(1.0, 300.0), 2),
            "OL_DELIVERY_D": 1 if delivered else None,
        })
