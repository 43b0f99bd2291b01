"""Bit-identity golden: the hot-loop rewrite may not move a single bit.

``golden/invariance.json`` was captured with the pre-optimisation
simulator (PR 2 tree) on pinned seeds: for each (benchmark, policy)
case it records the full :class:`SimulationResult` serialisation *and*
the disk-cache fingerprint.  The optimised simulator must reproduce
both exactly — same cycles, same float energy totals down to the last
ulp, same cache keys — or cached results from older trees would
silently disagree with fresh runs.

If a deliberate model change moves these numbers, regenerate with
``python tests/integration/test_invariance_golden.py`` and say so in
the commit message; never regenerate to paper over an accidental
diff.
"""

import json
import os

import pytest

from repro.sim import Simulator
from repro.sim.cache import fingerprint, result_to_dict
from repro.workloads import get_profile

GOLDEN_PATH = os.path.join(os.path.dirname(__file__), "golden",
                           "invariance.json")


def _load_golden():
    with open(GOLDEN_PATH, "r", encoding="utf-8") as handle:
        return json.load(handle)


def _case_ids():
    return [f"{c['benchmark']}/{c['policy']}"
            for c in _load_golden()["cases"]]


@pytest.fixture(scope="module")
def simulator():
    return Simulator()


@pytest.mark.parametrize("case", _load_golden()["cases"], ids=_case_ids())
def test_results_bit_identical_to_golden(simulator, case):
    result = simulator.run_benchmark(
        case["benchmark"], case["policy"],
        instructions=case["instructions"], seed=case["seed"])
    produced = result_to_dict(result)
    assert produced == case["result"], (
        f"{case['benchmark']}/{case['policy']}: SimulationResult drifted "
        "from the pre-optimisation golden (bit-identity broken)")


@pytest.mark.parametrize("case", _load_golden()["cases"], ids=_case_ids())
def test_cache_fingerprints_unchanged(simulator, case):
    """Fingerprints key the on-disk cache; a drift here would orphan
    every result cached by an older tree."""
    produced = fingerprint(simulator.config,
                           get_profile(case["benchmark"]),
                           case["policy"], case["instructions"],
                           simulator.calibration, case["seed"])
    assert produced == case["fingerprint"]


def test_golden_covers_all_policy_regimes():
    """The golden file must keep exercising every structurally distinct
    hot path: no gating, DCG, and extended PLB."""
    cases = _load_golden()["cases"]
    assert {c["policy"] for c in cases} >= {"base", "dcg", "plb-ext"}
    assert {c["benchmark"] for c in cases} >= {"gzip", "applu"}


if __name__ == "__main__":   # pragma: no cover - golden regeneration aid
    golden = _load_golden()
    sim = Simulator()
    for case in golden["cases"]:
        result = sim.run_benchmark(case["benchmark"], case["policy"],
                                   instructions=case["instructions"],
                                   seed=case["seed"])
        case["result"] = result_to_dict(result)
        case["fingerprint"] = fingerprint(
            sim.config, get_profile(case["benchmark"]), case["policy"],
            case["instructions"], sim.calibration, case["seed"])
    with open(GOLDEN_PATH, "w", encoding="utf-8") as handle:
        json.dump(golden, handle, indent=2, sort_keys=True)
        handle.write("\n")
    print(f"regenerated {GOLDEN_PATH} ({len(golden['cases'])} cases)")
