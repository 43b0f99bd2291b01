"""Old import path of the cycle core.

The repository benchmark (``perfbench/layers.py``) still imports
``Pipeline`` from here; this alias goes with the benchmark change that
moves it to :mod:`repro.pipeline.arraycore` (ROADMAP item 1(a)).
"""

from .arraycore import ArrayPipeline as Pipeline  # noqa: F401
