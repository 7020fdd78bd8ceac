"""TATP stored procedures.

Seven procedures (paper §6.1): four are always single-partitioned (the
subscriber id is an input parameter), and three — UpdateLocation,
InsertCallForwarding, DeleteCallForwarding — first execute a *broadcast*
query that looks up the subscriber id from the ``SUB_NBR`` string (a column
the tables are not partitioned on) and then operate on a single partition
determined by that lookup's result.  Houdini cannot predict that partition
from the input parameters, which is why the paper reports ~95% OP1 accuracy
for TATP rather than 100%.
"""

from __future__ import annotations

from typing import Any

from ...catalog.procedure import ExecutionContext, ProcedureParameter, StoredProcedure
from ...catalog.statement import Operation, Statement, param
from ...errors import UserAbort


class GetSubscriberData(StoredProcedure):
    """Read a subscriber row by id (always single-partitioned, read-only)."""

    name = "GetSubscriberData"
    read_only = True
    parameters = (ProcedureParameter("s_id"),)
    statements = {
        "GetSubscriber": Statement(
            name="GetSubscriber", table="SUBSCRIBER", operation=Operation.SELECT,
            where={"S_ID": param(0)},
        ),
    }

    def run(self, ctx: ExecutionContext, s_id) -> Any:
        rows = ctx.execute("GetSubscriber", [s_id])
        return rows[0] if rows else None


class GetAccessData(StoredProcedure):
    """Read one access-info row (always single-partitioned, read-only)."""

    name = "GetAccessData"
    read_only = True
    parameters = (ProcedureParameter("s_id"), ProcedureParameter("ai_type"))
    statements = {
        "GetAccessInfo": Statement(
            name="GetAccessInfo", table="ACCESS_INFO", operation=Operation.SELECT,
            where={"AI_S_ID": param(0), "AI_TYPE": param(1)},
            output_columns=("DATA1", "DATA3"),
        ),
    }

    def run(self, ctx: ExecutionContext, s_id, ai_type) -> Any:
        rows = ctx.execute("GetAccessInfo", [s_id, ai_type])
        return rows[0] if rows else None


class GetNewDestination(StoredProcedure):
    """Find active call-forwarding destinations (single-partitioned)."""

    name = "GetNewDestination"
    read_only = True
    parameters = (
        ProcedureParameter("s_id"),
        ProcedureParameter("sf_type"),
        ProcedureParameter("start_time"),
        ProcedureParameter("end_time"),
    )
    statements = {
        "GetSpecialFacility": Statement(
            name="GetSpecialFacility", table="SPECIAL_FACILITY", operation=Operation.SELECT,
            where={"SF_S_ID": param(0), "SF_TYPE": param(1)},
            output_columns=("IS_ACTIVE",),
        ),
        "GetCallForwarding": Statement(
            name="GetCallForwarding", table="CALL_FORWARDING", operation=Operation.SELECT,
            where={"CF_S_ID": param(0), "CF_SF_TYPE": param(1)},
            output_columns=("START_TIME", "END_TIME", "NUMBERX"),
        ),
    }

    def run(self, ctx: ExecutionContext, s_id, sf_type, start_time, end_time) -> Any:
        facilities = ctx.execute("GetSpecialFacility", [s_id, sf_type])
        if not facilities or not facilities[0]["IS_ACTIVE"]:
            return []
        forwardings = ctx.execute("GetCallForwarding", [s_id, sf_type])
        return [
            row["NUMBERX"]
            for row in forwardings
            if row["START_TIME"] <= start_time and row["END_TIME"] > end_time
        ]


class UpdateLocation(StoredProcedure):
    """Update a subscriber's location, addressed by SUB_NBR.

    The first query is a broadcast (the tables are not partitioned on
    SUB_NBR); the second touches only the partition owning the subscriber
    found by that broadcast — a partition Houdini cannot know in advance.
    """

    name = "UpdateLocation"
    parameters = (ProcedureParameter("sub_nbr"), ProcedureParameter("vlr_location"))
    statements = {
        "GetSubscriberByNumber": Statement(
            name="GetSubscriberByNumber", table="SUBSCRIBER", operation=Operation.SELECT,
            where={"SUB_NBR": param(0)}, output_columns=("S_ID",),
        ),
        "UpdateSubscriberLocation": Statement(
            name="UpdateSubscriberLocation", table="SUBSCRIBER", operation=Operation.UPDATE,
            where={"S_ID": param(0)}, set_values={"VLR_LOCATION": param(1)},
        ),
    }

    def run(self, ctx: ExecutionContext, sub_nbr, vlr_location) -> Any:
        rows = ctx.execute("GetSubscriberByNumber", [sub_nbr])
        if not rows:
            raise UserAbort("unknown subscriber number")
        s_id = rows[0]["S_ID"]
        ctx.execute("UpdateSubscriberLocation", [s_id, vlr_location])
        return s_id


class InsertCallForwarding(StoredProcedure):
    """Insert a call-forwarding record, addressed by SUB_NBR (Fig. 10a)."""

    name = "InsertCallForwarding"
    parameters = (
        ProcedureParameter("sub_nbr"),
        ProcedureParameter("sf_type"),
        ProcedureParameter("start_time"),
        ProcedureParameter("end_time"),
        ProcedureParameter("numberx"),
    )
    statements = {
        "GetSubscriberByNumber": Statement(
            name="GetSubscriberByNumber", table="SUBSCRIBER", operation=Operation.SELECT,
            where={"SUB_NBR": param(0)}, output_columns=("S_ID",),
        ),
        "GetSpecialFacilityType": Statement(
            name="GetSpecialFacilityType", table="SPECIAL_FACILITY", operation=Operation.SELECT,
            where={"SF_S_ID": param(0)}, output_columns=("SF_TYPE",),
        ),
        "CheckCallForwarding": Statement(
            name="CheckCallForwarding", table="CALL_FORWARDING", operation=Operation.SELECT,
            where={"CF_S_ID": param(0), "CF_SF_TYPE": param(1)},
            output_columns=("START_TIME",),
        ),
        "InsertCallForwarding": Statement(
            name="InsertCallForwarding", table="CALL_FORWARDING", operation=Operation.INSERT,
            insert_values={
                "CF_S_ID": param(0), "CF_SF_TYPE": param(1), "START_TIME": param(2),
                "END_TIME": param(3), "NUMBERX": param(4),
            },
        ),
    }

    def run(self, ctx: ExecutionContext, sub_nbr, sf_type, start_time, end_time, numberx) -> Any:
        rows = ctx.execute("GetSubscriberByNumber", [sub_nbr])
        if not rows:
            raise UserAbort("unknown subscriber number")
        s_id = rows[0]["S_ID"]
        facilities = ctx.execute("GetSpecialFacilityType", [s_id])
        types = {row["SF_TYPE"] for row in facilities}
        if sf_type not in types:
            raise UserAbort("no such special facility")
        existing = ctx.execute("CheckCallForwarding", [s_id, sf_type])
        if any(row["START_TIME"] == start_time for row in existing):
            # TATP specifies that inserting an already-present forwarding slot
            # fails; the transaction rolls back (a legitimate user abort).
            raise UserAbort("call forwarding record already exists")
        ctx.execute(
            "InsertCallForwarding", [s_id, sf_type, start_time, end_time, numberx]
        )
        return s_id


class DeleteCallForwarding(StoredProcedure):
    """Delete a call-forwarding record, addressed by SUB_NBR."""

    name = "DeleteCallForwarding"
    parameters = (
        ProcedureParameter("sub_nbr"),
        ProcedureParameter("sf_type"),
        ProcedureParameter("start_time"),
    )
    statements = {
        "GetSubscriberByNumber": Statement(
            name="GetSubscriberByNumber", table="SUBSCRIBER", operation=Operation.SELECT,
            where={"SUB_NBR": param(0)}, output_columns=("S_ID",),
        ),
        "DeleteCallForwarding": Statement(
            name="DeleteCallForwarding", table="CALL_FORWARDING", operation=Operation.DELETE,
            where={"CF_S_ID": param(0), "CF_SF_TYPE": param(1), "START_TIME": param(2)},
        ),
    }

    def run(self, ctx: ExecutionContext, sub_nbr, sf_type, start_time) -> Any:
        rows = ctx.execute("GetSubscriberByNumber", [sub_nbr])
        if not rows:
            raise UserAbort("unknown subscriber number")
        s_id = rows[0]["S_ID"]
        ctx.execute("DeleteCallForwarding", [s_id, sf_type, start_time])
        return s_id


class UpdateSubscriberLocationById(StoredProcedure):
    """Direct-by-id location update (the "UpdateSubscriber" row of Table 4).

    Included so that TATP has the same seven-procedure surface the paper's
    Table 4 reports (procedure "G UpdateSubscriber").
    """

    name = "UpdateSubscriber"
    parameters = (ProcedureParameter("s_id"), ProcedureParameter("vlr_location"))
    statements = {
        "GetSubscriber": Statement(
            name="GetSubscriber", table="SUBSCRIBER", operation=Operation.SELECT,
            where={"S_ID": param(0)}, output_columns=("VLR_LOCATION",),
        ),
        "UpdateSubscriberLocation": Statement(
            name="UpdateSubscriberLocation", table="SUBSCRIBER", operation=Operation.UPDATE,
            where={"S_ID": param(0)}, set_values={"VLR_LOCATION": param(1)},
        ),
    }

    def run(self, ctx: ExecutionContext, s_id, vlr_location) -> Any:
        ctx.execute("GetSubscriber", [s_id])
        ctx.execute("UpdateSubscriberLocation", [s_id, vlr_location])
        return True


def make_procedures() -> list[StoredProcedure]:
    """All seven TATP stored procedures."""
    return [
        DeleteCallForwarding(),
        GetAccessData(),
        GetNewDestination(),
        GetSubscriberData(),
        InsertCallForwarding(),
        UpdateLocation(),
        UpdateSubscriberLocationById(),
    ]
