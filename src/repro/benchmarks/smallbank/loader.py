"""SmallBank data loader."""

from __future__ import annotations

from ...catalog.schema import Catalog
from ...storage.partition_store import Database
from ...workload.rng import WorkloadRandom
from .schema import SmallBankConfig


def load(
    catalog: Catalog, database: Database, config: SmallBankConfig, rng: WorkloadRandom
) -> None:
    """Populate one account row plus savings/checking balances per customer."""
    spread = config.initial_balance_max - config.initial_balance_min
    for custid in range(config.num_accounts):
        database.load_row("ACCOUNTS", {
            "CUSTID": custid,
            "NAME": f"Customer{custid:08d}",
        })
        database.load_row("SAVINGS", {
            "CUSTID": custid,
            "BAL": config.initial_balance_min + rng.integer(0, int(spread)) * 1.0,
        })
        database.load_row("CHECKING", {
            "CUSTID": custid,
            "BAL": config.initial_balance_min + rng.integer(0, int(spread)) * 1.0,
        })
