"""Pipetrace rendering (sim-outorder-style instruction timelines).

Enable per-op capture with
:meth:`~repro.pipeline.arraycore.ArrayPipeline.capture_ops`, run the
simulation, then render::

    pipe.capture_ops(32)
    pipe.run(max_instructions=...)
    print(render_pipetrace(pipe.captured_ops))

Each instruction gets one row; the columns are cycles, marked with the
stage the instruction occupies:

====  ==========================================================
mark  meaning
====  ==========================================================
``D`` dispatch (entered the window after fetch/decode/rename)
``.`` waiting in the window for operands or resources
``I`` selected by the issue stage
``e`` in flight (register read / execute / memory)
``W`` writeback / completion
``-`` completed, waiting for in-order commit
``C`` commit
``x`` squashed (wrong-path)
====  ==========================================================
"""

from __future__ import annotations

from typing import List, NamedTuple, Optional, Sequence

from ..trace.uop import OpClass

__all__ = ["OpRecord", "render_pipetrace"]


class OpRecord(NamedTuple):
    """One captured instruction: the cycle it entered each stage
    (``None``: it never got there)."""

    seq: int
    op_class: OpClass
    wrong_path: bool        #: fetched past a mispredicted branch
    squashed: bool          #: removed by a wrong-path squash
    dispatch_cycle: int
    issued_cycle: Optional[int]
    complete_cycle: Optional[int]
    commit_cycle: Optional[int]


def _timeline(op: OpRecord, start: int, end: int) -> str:
    cells: List[str] = []
    dispatch = op.dispatch_cycle
    issue = op.issued_cycle
    complete = op.complete_cycle
    commit = op.commit_cycle
    for cycle in range(start, end + 1):
        if cycle < dispatch:
            cells.append(" ")
        elif cycle == dispatch:
            cells.append("D")
        elif issue is None or cycle < issue:
            cells.append("x" if op.squashed else ".")
        elif cycle == issue:
            cells.append("I")
        elif commit is not None and cycle == commit:
            # commit may land in the writeback cycle itself
            cells.append("C")
        elif complete is not None and cycle > complete:
            if commit is None or cycle < commit:
                cells.append("x" if op.squashed else "-")
            else:
                cells.append(" ")
        elif complete is not None and cycle == complete:
            cells.append("W")
        elif complete is None and op.squashed:
            cells.append("x")
        else:
            cells.append("e")
    return "".join(cells).rstrip()


def render_pipetrace(ops: Sequence[OpRecord],
                     max_cycles: int = 120,
                     start: Optional[int] = None) -> str:
    """Timeline chart for captured in-flight ops.

    Parameters
    ----------
    ops:
        The pipeline's ``captured_ops`` after
        :meth:`~repro.pipeline.arraycore.ArrayPipeline.capture_ops`.
    max_cycles:
        Width cap of the rendered window.
    start:
        First cycle shown; defaults to the earliest dispatch.
    """
    if not ops:
        return "(no ops captured)"
    first = min(op.dispatch_cycle for op in ops) if start is None else start
    last_candidates = [first]
    for op in ops:
        for value in (op.commit_cycle, op.complete_cycle, op.issued_cycle,
                      op.dispatch_cycle):
            if value is not None:
                last_candidates.append(value)
                break
    last = min(max(last_candidates), first + max_cycles - 1)
    header = (f"cycles {first}..{last}   "
              "D=dispatch .=wait I=issue e=execute W=writeback "
              "-=await-commit C=commit x=squashed")
    lines = [header, ""]
    label_width = max(len(_label(op)) for op in ops)
    for op in ops:
        lines.append(f"{_label(op).ljust(label_width)} |"
                     f"{_timeline(op, first, last)}")
    return "\n".join(lines)


def _label(op: OpRecord) -> str:
    tag = "~" if op.wrong_path else " "
    return f"{tag}#{op.seq} {op.op_class.name.lower():6s}"
