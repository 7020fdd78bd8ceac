"""TATP data loader."""

from __future__ import annotations

from ...catalog.schema import Catalog
from ...storage.partition_store import Database
from ...workload.rng import WorkloadRandom
from .schema import TatpConfig, sub_nbr_for


def load(catalog: Catalog, database: Database, config: TatpConfig, rng: WorkloadRandom) -> None:
    """Populate subscribers, access info, facilities and call forwardings."""
    for s_id in range(config.num_subscribers):
        database.load_row("SUBSCRIBER", {
            "S_ID": s_id,
            "SUB_NBR": sub_nbr_for(s_id),
            "BIT_1": rng.integer(0, 1),
            "VLR_LOCATION": rng.integer(0, 2 ** 16),
        })
        for ai_type in range(1, rng.integer(1, 4) + 1):
            database.load_row("ACCESS_INFO", {
                "AI_S_ID": s_id,
                "AI_TYPE": ai_type,
                "DATA1": rng.integer(0, 255),
                "DATA3": rng.alphanumeric(3),
            })
        for sf_type in range(1, config.special_facilities_per_subscriber + 1):
            database.load_row("SPECIAL_FACILITY", {
                "SF_S_ID": s_id,
                "SF_TYPE": sf_type,
                "IS_ACTIVE": 1 if rng.probability(0.85) else 0,
                "DATA_A": rng.alphanumeric(5),
            })
            for slot in range(config.call_forwardings_per_facility):
                database.load_row("CALL_FORWARDING", {
                    "CF_S_ID": s_id,
                    "CF_SF_TYPE": sf_type,
                    "START_TIME": slot * 8,
                    "END_TIME": slot * 8 + 8,
                    "NUMBERX": rng.numeric_string(15),
                })
