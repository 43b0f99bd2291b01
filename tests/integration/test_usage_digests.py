"""Frozen per-cycle usage oracle for the cycle core.

DCG's claim rests on one deterministic per-cycle usage stream: which
units, latches, ports and buses each cycle uses.  The production core
was written as a re-layout of an earlier object-per-instruction core
and had to reproduce its :class:`~repro.pipeline.usage.CycleUsage`
stream cycle for cycle.  ``golden/usage_digests.json`` freezes that
reference core's stream, so the check survives the reference core.

For each case the fixture holds a SHA-256 chain over every integer
field of every cycle's usage record (``fu_active`` as per-class
bitmasks, ``grants`` and ``latch_slots`` in sorted order), one link per
1000-cycle chunk.  A divergence names the first chunk it reaches,
which bounds where to look, rather than only the end-of-run totals.

The cases are the six :mod:`test_invariance_golden` cases plus the
configurations that exercise distinct core paths: wrong-path squashes,
result-bus spill, PLB mode switches, the deep pipeline and the
delayed-store DCG variant.

If a deliberate model change moves the stream, regenerate with
``python tests/integration/test_usage_digests.py`` and say so in the
commit message; never regenerate to paper over an accidental diff.
"""

import hashlib
import json
import os
from dataclasses import replace

import pytest

from repro.pipeline.usage import CycleUsage
from repro.sim import Simulator
from repro.sim.configs import config_from_tag

GOLDEN_PATH = os.path.join(os.path.dirname(__file__), "golden",
                           "usage_digests.json")

#: cycles per chain link
CHUNK_CYCLES = 1000

#: case id -> (benchmark, policy, instructions, seed, tag, overrides)
CASES = {
    # the invariance goldens
    "gzip/base": ("gzip", "base", 4000, 101, "baseline", {}),
    "gzip/dcg": ("gzip", "dcg", 4000, 101, "baseline", {}),
    "gzip/plb-ext": ("gzip", "plb-ext", 4000, 101, "baseline", {}),
    "applu/base": ("applu", "base", 4000, 204, "baseline", {}),
    "applu/dcg": ("applu", "dcg", 4000, 204, "baseline", {}),
    "applu/plb-ext": ("applu", "plb-ext", 4000, 204, "baseline", {}),
    # one case per structurally distinct policy hot path, on the short
    # seed-7 runs the cores were first compared on
    "gzip/base+seed-7": ("gzip", "base", 2000, 7, "baseline", {}),
    "gzip/dcg+seed-7": ("gzip", "dcg", 2000, 7, "baseline", {}),
    "applu/dcg-delayed-store": ("applu", "dcg-delayed-store", 2000, 7,
                                "baseline", {}),
    "mcf/plb-ext": ("mcf", "plb-ext", 2000, 7, "baseline", {}),
    # PLB holds the machine in more than one mode: width changes
    "mcf/plb-ext+mode-switching": ("mcf", "plb-ext", 6000, 3,
                                   "baseline", {}),
    # wrong-path fetch, dispatch, issue and squash
    "gcc/dcg+wrong-path": ("gcc", "dcg", 2000, 7, "baseline",
                           {"model_wrong_path": True}),
    # the suite's highest random-branch fraction: squashes with
    # wake-calendar entries still pending
    "mcf/dcg+wrong-path": ("mcf", "dcg", 2000, 7, "baseline",
                           {"model_wrong_path": True}),
    # a 2-bus machine keeps the result-bus spill hot all run
    "gzip/base+2-buses": ("gzip", "base", 2000, 7, "baseline",
                          {"result_buses": 2}),
    # bus spill under wrong-path squashes: spilled ops squashed before
    # they drain
    "gcc/base+2-buses+wrong-path": ("gcc", "base", 3000, None, "baseline",
                                    {"result_buses": 2,
                                     "model_wrong_path": True}),
    "gcc/base+1-bus+wrong-path": ("gcc", "base", 2000, None, "baseline",
                                  {"result_buses": 1,
                                   "model_wrong_path": True}),
    # the fig-17 machine has the largest event-ring horizon
    "gzip/dcg+deep": ("gzip", "dcg", 2000, 7, "deep", {}),
    "lucas/plb-ext+deep": ("lucas", "plb-ext", 2000, 7, "deep", {}),
}


def _mask(active):
    """Bitmask of one class's per-instance activity (bit i = unit i).

    Int masks pass through unchanged, so the frozen digests stay valid
    if ``fu_active`` moves from bool tuples to bitmasks (ROADMAP)."""
    if isinstance(active, int):
        return active
    return sum(1 << i for i, on in enumerate(active) if on)


def encode_cycle(usage):
    """Every integer field of one usage record, as canonical bytes."""
    scalars = tuple(int(getattr(usage, name))
                    for name in CycleUsage.__slots__
                    if name not in ("fu_active", "grants", "latch_slots"))
    fu_active = tuple(sorted((int(cls), _mask(active))
                             for cls, active in usage.fu_active.items()))
    grants = tuple(sorted((int(cls), index, latency)
                          for cls, index, latency in usage.grants))
    latch_slots = tuple(sorted(usage.latch_slots.items()))
    return repr((scalars, fu_active, grants, latch_slots)).encode()


class UsageDigester:
    """Cycle observer chaining SHA-256 over the usage stream, one
    hex digest per :data:`CHUNK_CYCLES` cycles; each link's hash starts
    from the previous link's digest."""

    def __init__(self):
        self.cycles = 0
        self.chunks = []
        self._hash = hashlib.sha256()

    def __call__(self, usage, decision):
        self._hash.update(encode_cycle(usage))
        self.cycles += 1
        if self.cycles % CHUNK_CYCLES == 0:
            self._close_chunk()

    def _close_chunk(self):
        digest = self._hash.hexdigest()
        self.chunks.append(digest)
        self._hash = hashlib.sha256(digest.encode())

    def finish(self):
        if self.cycles % CHUNK_CYCLES:
            self._close_chunk()
        return {"cycles": self.cycles, "chunks": self.chunks}


def case_digests(case_id):
    """``{"cycles", "chunks"}`` of one case run on the production core."""
    benchmark, policy, instructions, seed, tag, overrides = CASES[case_id]
    config = replace(config_from_tag(tag), **overrides)
    digester = UsageDigester()
    Simulator(config).run_benchmark(benchmark, policy,
                                    instructions=instructions, seed=seed,
                                    observers=[digester])
    return digester.finish()


def first_bad_chunk(expected, produced):
    """Index of the first chunk where two digest chains part, or None."""
    for index, (want, got) in enumerate(zip(expected["chunks"],
                                            produced["chunks"])):
        if want != got:
            return index
    if expected != produced:
        return min(len(expected["chunks"]), len(produced["chunks"]))
    return None


def describe_mismatch(case_id, expected, produced):
    index = first_bad_chunk(expected, produced)
    if index is None:
        return None
    start = index * CHUNK_CYCLES
    return (f"{case_id}: usage stream diverges from the frozen oracle in "
            f"chunk {index} (cycles {start}..{start + CHUNK_CYCLES - 1}); "
            f"frozen run {expected['cycles']} cycles, this run "
            f"{produced['cycles']}")


def _load_golden():
    with open(GOLDEN_PATH, "r", encoding="utf-8") as handle:
        return json.load(handle)


@pytest.mark.parametrize("case_id", sorted(CASES))
def test_usage_stream_matches_frozen_digests(case_id):
    expected = _load_golden()["cases"][case_id]
    mismatch = describe_mismatch(case_id, expected, case_digests(case_id))
    assert mismatch is None, mismatch


def test_mismatch_names_first_bad_chunk():
    """The oracle's own diagnosis: a change to one cycle is reported in
    the chunk holding that cycle, and a shorter run at its end."""
    streams = []
    for changed_cycle in (None, 2345):
        digester = UsageDigester()
        for cycle in range(3500):
            usage = CycleUsage(cycle)
            usage.issued = 1 if cycle == changed_cycle else 0
            digester(usage, None)
        streams.append(digester.finish())
    reference, changed = streams
    assert len(reference["chunks"]) == 4
    assert first_bad_chunk(reference, reference) is None
    assert first_bad_chunk(reference, changed) == 2
    assert "chunk 2 (cycles 2000..2999)" in describe_mismatch(
        "probe", reference, changed)
    shorter = {"cycles": 2000, "chunks": reference["chunks"][:2]}
    assert first_bad_chunk(reference, shorter) == 2


def test_golden_covers_every_case():
    assert sorted(_load_golden()["cases"]) == sorted(CASES)


if __name__ == "__main__":   # pragma: no cover - golden regeneration aid
    golden = {"chunk_cycles": CHUNK_CYCLES,
              "cases": {case_id: case_digests(case_id)
                        for case_id in sorted(CASES)}}
    with open(GOLDEN_PATH, "w", encoding="utf-8") as handle:
        json.dump(golden, handle, indent=2, sort_keys=True)
        handle.write("\n")
    print(f"regenerated {GOLDEN_PATH} ({len(CASES)} cases)")
