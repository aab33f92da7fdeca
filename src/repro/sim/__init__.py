"""Cycle-level model of the Chasoň / Serpens datapath (§4)."""

from .fifo import FifoStream
from .memory import BramXBuffer, ScugBankGroup, UramBank
from .pe import ProcessingElement
from .peg import ProcessingElementGroup
from .reduction import ReductionUnit
from .rearrange import RearrangeUnit
from .trace import PETimeline, ScheduleTrace, trace_grid, trace_schedule
from .engine import (
    CycleBreakdown,
    SpMVExecution,
    estimate_cycles,
    execute_schedule,
)
from .plan import ExecutionPlan, execute_plan, plan_for

__all__ = [
    "FifoStream",
    "BramXBuffer",
    "ScugBankGroup",
    "UramBank",
    "ProcessingElement",
    "ProcessingElementGroup",
    "ReductionUnit",
    "RearrangeUnit",
    "CycleBreakdown",
    "SpMVExecution",
    "estimate_cycles",
    "execute_schedule",
    "ExecutionPlan",
    "execute_plan",
    "plan_for",
    "PETimeline",
    "ScheduleTrace",
    "trace_grid",
    "trace_schedule",
]
