"""AuctionMark data loader."""

from __future__ import annotations

from ...catalog.schema import Catalog
from ...storage.partition_store import Database
from ...workload.rng import WorkloadRandom
from .schema import ITEM_STATUS_OPEN, AuctionMarkConfig


def load(catalog: Catalog, database: Database, config: AuctionMarkConfig, rng: WorkloadRandom) -> None:
    """Populate users, items, bids, comments, feedback, watches."""
    num_users = config.num_users
    for u_id in range(num_users):
        database.load_row("USERACCT", {
            "U_ID": u_id,
            "U_NAME": f"user-{u_id}",
            "U_BALANCE": round(rng.floating(0.0, 1000.0), 2),
            "U_COMMENTS": 0,
            "U_ITEM_COUNT": config.items_per_user,
            "U_RATING": rng.integer(0, 5),
        })
        for i_id in range(config.items_per_user):
            database.load_row("ITEM", {
                "I_U_ID": u_id,
                "I_ID": i_id,
                "I_NAME": f"item-{u_id}-{i_id}",
                "I_CURRENT_PRICE": round(rng.floating(1.0, 200.0), 2),
                "I_NUM_BIDS": config.bids_per_item,
                "I_STATUS": ITEM_STATUS_OPEN,
                "I_END_DATE": rng.integer(10, 1000),
                "I_BUYER_ID": None,
                "I_DESCRIPTION": "initial",
            })
            for b_id in range(config.bids_per_item):
                database.load_row("BID", {
                    "B_U_ID": u_id,
                    "B_I_ID": i_id,
                    "B_ID": b_id,
                    "B_BUYER_ID": rng.integer(0, num_users - 1),
                    "B_AMOUNT": round(rng.floating(1.0, 150.0), 2),
                })
        for f_id in range(config.feedback_per_user):
            database.load_row("FEEDBACK", {
                "F_FROM_ID": u_id,
                "F_TO_ID": rng.integer(0, num_users - 1),
                "F_ID": f_id,
                "F_RATING": rng.integer(-1, 1),
                "F_TEXT": rng.alphanumeric(8),
            })
        for _ in range(config.watches_per_user):
            seller_id = rng.integer(0, num_users - 1)
            item_id = rng.integer(0, config.items_per_user - 1)
            try:
                database.load_row("USER_WATCH", {
                    "UW_U_ID": u_id,
                    "UW_SELLER_ID": seller_id,
                    "UW_I_ID": item_id,
                })
            except Exception:
                # Duplicate watch entries are simply skipped.
                continue
