"""Pipetrace capture and rendering.

``golden/pipetrace.json`` freezes the rendered text of two captures as
the earlier object-per-instruction core drew them: the first 12 ops of
``examples/custom_kernel.py``, and a wrong-path run whose capture holds
squashed ops.  If a deliberate model change moves them, regenerate with
``python tests/pipeline/test_pipetrace.py`` and say so in the commit
message; never regenerate to paper over an accidental diff.
"""

import importlib.util
import json
import os

import pytest

from repro.core import NoGatingPolicy
from repro.isa import assemble, trace_program
from repro.pipeline import MachineConfig, Pipeline, render_pipetrace
from repro.trace import MicroOp, OpClass, TraceStream
from repro.workloads import SyntheticTraceGenerator, get_profile

_HERE = os.path.dirname(__file__)
GOLDEN_PATH = os.path.join(_HERE, "golden", "pipetrace.json")
EXAMPLE_PATH = os.path.join(_HERE, os.pardir, os.pardir, "examples",
                            "custom_kernel.py")


def _run_captured(ops, capture=16):
    pipe = Pipeline(MachineConfig(), TraceStream(ops), NoGatingPolicy())
    for op in ops:
        pipe.hierarchy.l1i.preload(op.pc)
        if op.mem_addr is not None:
            pipe.hierarchy.l1d.preload(op.mem_addr)
    pipe.capture_ops(capture)
    pipe.run()
    return pipe


def _simple_ops(n=6):
    return [MicroOp(i, 0x1000 + 4 * i, OpClass.IALU, dest=4 + i % 4)
            for i in range(n)]


def test_capture_respects_limit():
    pipe = _run_captured(_simple_ops(10), capture=4)
    assert len(pipe.captured_ops) == 4
    assert [op.seq for op in pipe.captured_ops] == [0, 1, 2, 3]


def test_capture_validation():
    pipe = Pipeline(MachineConfig(), TraceStream(_simple_ops()),
                    NoGatingPolicy())
    with pytest.raises(ValueError):
        pipe.capture_ops(-1)


def test_no_capture_by_default():
    pipe = _run_captured(_simple_ops(), capture=0)
    assert pipe.captured_ops == []


def test_render_empty():
    assert render_pipetrace([]) == "(no ops captured)"


def test_render_shows_stage_progression():
    pipe = _run_captured(_simple_ops(4))
    text = render_pipetrace(pipe.captured_ops)
    lines = text.splitlines()
    assert "D=dispatch" in lines[0]
    rows = [line for line in lines if "|" in line]
    assert len(rows) == 4
    for row in rows:
        timeline = row.split("|", 1)[1]
        # every op dispatches, issues, and commits
        assert "D" in timeline and "I" in timeline and "C" in timeline
        assert timeline.index("D") < timeline.index("I") < timeline.index("C")


def test_dependent_op_waits():
    ops = [
        MicroOp(0, 0x1000, OpClass.IMUL, dest=4),          # 3-cycle
        MicroOp(1, 0x1004, OpClass.IALU, srcs=(4,), dest=5),
    ]
    pipe = _run_captured(ops)
    text = render_pipetrace(pipe.captured_ops)
    dependent_row = [l for l in text.splitlines() if "#1" in l][0]
    assert "." in dependent_row.split("|", 1)[1]


def test_commit_marker_in_writeback_cycle():
    """Commit can land the same cycle as writeback; C wins the cell."""
    ops = _simple_ops(1)
    pipe = _run_captured(ops)
    row = [l for l in render_pipetrace(pipe.captured_ops).splitlines()
           if "#0" in l][0]
    assert row.split("|", 1)[1].count("C") == 1


def test_window_truncation():
    ops = [MicroOp(0, 0x1000, OpClass.LOAD, dest=4, mem_addr=0x30000000)]
    pipe = Pipeline(MachineConfig(), TraceStream(ops), NoGatingPolicy())
    pipe.hierarchy.l1i.preload(0x1000)
    pipe.capture_ops(1)
    pipe.run()
    text = render_pipetrace(pipe.captured_ops, max_cycles=20)
    row = [l for l in text.splitlines() if "#0" in l][0]
    assert len(row.split("|", 1)[1]) <= 20


def _custom_kernel_trace():
    """``examples/custom_kernel.py``'s pipetrace: its first 12 ops."""
    spec = importlib.util.spec_from_file_location("custom_kernel",
                                                  EXAMPLE_PATH)
    example = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(example)
    program = assemble(example.HISTOGRAM)
    pipe = Pipeline(MachineConfig(), TraceStream(trace_program(program)),
                    NoGatingPolicy())
    pipe.capture_ops(12)
    pipe.run()
    return render_pipetrace(pipe.captured_ops, max_cycles=80)


def _wrong_path_trace():
    """48 ops of mcf on the wrong-path machine: two mispredicts, with
    squashed ops that never issued, were in flight, or had completed."""
    generator = SyntheticTraceGenerator(get_profile("mcf"), seed=7)
    pipe = Pipeline(MachineConfig(model_wrong_path=True),
                    TraceStream(iter(generator), limit=400),
                    NoGatingPolicy())
    generator.prewarm(pipe.hierarchy)
    pipe.capture_ops(48)
    pipe.run(max_instructions=400)
    assert sum(op.squashed for op in pipe.captured_ops) > 0
    return render_pipetrace(pipe.captured_ops)


FROZEN = {"custom_kernel": _custom_kernel_trace,
          "mcf+wrong-path": _wrong_path_trace}


@pytest.mark.parametrize("case", sorted(FROZEN))
def test_pipetrace_matches_frozen_text(case):
    with open(GOLDEN_PATH, "r", encoding="utf-8") as handle:
        expected = json.load(handle)[case]
    assert FROZEN[case]() == expected


if __name__ == "__main__":   # pragma: no cover - golden regeneration aid
    os.makedirs(os.path.dirname(GOLDEN_PATH), exist_ok=True)
    with open(GOLDEN_PATH, "w", encoding="utf-8") as handle:
        json.dump({case: render() for case, render in FROZEN.items()},
                  handle, indent=2, sort_keys=True)
        handle.write("\n")
    print(f"regenerated {GOLDEN_PATH} ({len(FROZEN)} cases)")
