"""Shared plumbing for the benchmark: hermetic environment, child
processes, result digests, in-memory spans and the host score.

Everything the benchmark creates lives under the checkout: scratch
directories in ``.perfbench_tmp/`` (removed at exit) and result files
in ``.perfbench_out/``.
"""

from __future__ import annotations

import hashlib
import json
import math
import os
import shutil
import subprocess
import sys
import tempfile
import time
from contextlib import contextmanager
from typing import Any, Dict, Iterator, List, Optional, Sequence

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
TMP = os.path.join(ROOT, ".perfbench_tmp")
OUT = os.path.join(ROOT, ".perfbench_out")
CHILD = os.path.join(HERE, "child.py")

#: the policies every full-run workload compares
POLICIES = ("base", "dcg", "plb-ext")


class MissingProgram(RuntimeError):
    """The checkout holds no ``src/repro`` package to measure."""


def hermetic_environ(base: Optional[Dict[str, str]] = None
                     ) -> Dict[str, str]:
    """``base`` (default: this process's environment) with every
    ``REPRO_*`` variable removed, the checkout's ``src`` on the path
    and temporary files kept inside the checkout."""
    env = {key: value for key, value in (base or os.environ).items()
           if not key.startswith("REPRO_")}
    env["PYTHONPATH"] = SRC
    env["TMPDIR"] = TMP
    env.pop("PYTHONSTARTUP", None)
    return env


def prepare_process(hermetic: bool = True) -> None:
    """Import the checkout's package, refusing any other ``repro``.

    ``hermetic`` clears ``REPRO_*`` (backend, jobs, budget, cache,
    checkpoint, faults, sampling, log, state) so the program runs on
    its defaults; child processes get their environment from
    :func:`hermetic_environ` instead, plus what their mode needs.
    """
    if hermetic:
        for key in [k for k in os.environ if k.startswith("REPRO_")]:
            del os.environ[key]
    if not os.path.isfile(os.path.join(SRC, "repro", "__init__.py")):
        raise MissingProgram(f"no package at {os.path.join(SRC, 'repro')}")
    os.makedirs(TMP, exist_ok=True)
    os.environ["TMPDIR"] = TMP
    tempfile.tempdir = TMP
    if SRC not in sys.path:
        sys.path.insert(0, SRC)
    import repro
    where = os.path.realpath(os.path.dirname(repro.__file__))
    if not where.startswith(os.path.realpath(SRC) + os.sep):
        raise MissingProgram(f"imported repro from {where}, not {SRC}")


def fresh_dir(prefix: str) -> str:
    """A new empty directory under the checkout's scratch area."""
    os.makedirs(TMP, exist_ok=True)
    return tempfile.mkdtemp(prefix=prefix, dir=TMP)


def remove_scratch() -> None:
    shutil.rmtree(TMP, ignore_errors=True)


def digest(result_dict: Dict[str, Any]) -> str:
    """Digest of a serialised result; equal digests = byte-identical."""
    text = json.dumps(result_dict, sort_keys=True)
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def summarize(result_dict: Dict[str, Any]) -> Dict[str, Any]:
    """The exact simulated statistics the benchmark checks and counts."""
    stats = result_dict.get("stats") or {}
    return {
        "benchmark": result_dict["benchmark"],
        "policy": result_dict["policy"],
        "instructions": result_dict["instructions"],
        "cycles": result_dict["cycles"],
        "sim_cycles": stats.get("cycles", 0),
        "sim_committed": stats.get("committed", 0),
        "fu_toggles": result_dict["fu_toggles"],
        "mode_cycles": result_dict["mode_cycles"],
        "total_saving": result_dict["total_saving"],
        "digest": digest(result_dict),
    }


def cell_key(benchmark: str, policy: str, instructions: int,
             seed: Optional[int], sample: Optional[str] = None) -> str:
    """One id per simulated cell or request spec (spans share it)."""
    key = f"{benchmark}/{policy}/{instructions}/s{seed}"
    return f"{key}@{sample}" if sample else key


def spec_key(spec: Any) -> str:
    """:func:`cell_key` of a ``RunSpec``."""
    return cell_key(spec.benchmark, spec.policy, spec.instructions,
                    spec.seed, spec.sample)


# -- child processes ---------------------------------------------------------

def start_child(mode: str, payload: Dict[str, Any],
                env: Optional[Dict[str, str]] = None) -> subprocess.Popen:
    """Launch ``child.py <mode>`` with ``payload`` as JSON on stdin."""
    proc = subprocess.Popen(
        [sys.executable, CHILD, mode], stdin=subprocess.PIPE,
        stdout=subprocess.PIPE, env=env or hermetic_environ(),
        cwd=ROOT, text=True)
    proc.stdin.write(json.dumps(payload))
    proc.stdin.close()
    return proc


def finish_child(proc: subprocess.Popen, timeout: float = 170.0
                 ) -> Dict[str, Any]:
    """Wait for a child and decode its one-line JSON reply."""
    try:
        out = proc.stdout.read()
        code = proc.wait(timeout=timeout)
    finally:
        if proc.poll() is None:
            proc.kill()
            proc.wait()
        proc.stdout.close()
    if code != 0:
        raise RuntimeError(f"benchmark child exited with code {code}")
    return json.loads(out.strip().splitlines()[-1])


def run_children(mode: str, payloads: Sequence[Dict[str, Any]]
                 ) -> List[Dict[str, Any]]:
    """Run one child per payload concurrently; replies in order."""
    procs = [start_child(mode, payload) for payload in payloads]
    try:
        return [finish_child(proc) for proc in procs]
    finally:
        for proc in procs:
            if proc.poll() is None:
                proc.kill()
                proc.wait()


def references(cells: Sequence[Dict[str, Any]], parts: int = 2
               ) -> Dict[str, Dict[str, Any]]:
    """Direct in-process results (:func:`summarize`) per cell key,
    computed by ``parts`` concurrent ``child.py reference`` processes."""
    groups = [list(cells[i::parts]) for i in range(parts)]
    replies = run_children("reference", [{"cells": group}
                                         for group in groups if group])
    return {cell.pop("key"): cell for reply in replies
            for cell in reply["cells"]}


# -- tracing -----------------------------------------------------------------

class Spans:
    """Spans kept in memory and written out once, at the end.

    Each span has a name, start/end (``time.perf_counter``), the id of
    the cell or request it belongs to, and its parent span's index.
    """

    def __init__(self) -> None:
        self.records: List[Dict[str, Any]] = []
        self._stack: List[int] = []

    @contextmanager
    def span(self, name: str, ident: str, **attrs: Any
             ) -> Iterator[Dict[str, Any]]:
        record = {"name": name, "id": ident,
                  "parent": self._stack[-1] if self._stack else None,
                  "start": time.perf_counter(), "end": None, **attrs}
        self.records.append(record)
        self._stack.append(len(self.records) - 1)
        try:
            yield record
        finally:
            self._stack.pop()
            record["end"] = time.perf_counter()

    def add(self, name: str, ident: str, start: float, end: float,
            **attrs: Any) -> None:
        """Record a span timed elsewhere (e.g. in a child process)."""
        self.records.append({"name": name, "id": ident,
                             "parent": self._stack[-1] if self._stack
                             else None, "start": start, "end": end,
                             **attrs})

    def write(self, path: str) -> None:
        os.makedirs(os.path.dirname(path), exist_ok=True)
        with open(path, "w", encoding="utf-8") as handle:
            for record in self.records:
                handle.write(json.dumps(record, sort_keys=True) + "\n")


def timed_method(owner: Any, name: str, spans: Optional[Spans],
                 span_name: str, ident_fn) -> Dict[str, float]:
    """Wrap ``owner.name`` (an instance attribute) with a timer.

    Returns the accumulator ``{"seconds"}``.  With ``spans``, every call
    is also recorded as a span whose id is ``ident_fn(*call_args)``.
    """
    inner = getattr(owner, name)
    acc = {"seconds": 0.0}

    def wrapper(*args, **kwargs):
        start = time.perf_counter()
        try:
            return inner(*args, **kwargs)
        finally:
            end = time.perf_counter()
            acc["seconds"] += end - start
            if spans is not None:
                spans.add(span_name, ident_fn(*args), start, end)

    setattr(owner, name, wrapper)
    return acc


# -- statistics --------------------------------------------------------------

def percentile(values: Sequence[float], q: float) -> float:
    """Percentile ``q`` in [0, 1], linear between closest ranks."""
    ordered = sorted(values)
    position = q * (len(ordered) - 1)
    low = math.floor(position)
    high = min(low + 1, len(ordered) - 1)
    return ordered[low] + (ordered[high] - ordered[low]) * (position - low)


def host_score(iterations: int = 300_000, repeats: int = 3) -> float:
    """Millions of iterations per second of a fixed pure-Python loop.

    Recorded in every result file so runs on different hosts can be
    compared; it is not an end-to-end metric.
    """
    best = math.inf
    for _ in range(repeats):
        start = time.perf_counter()
        table: Dict[int, int] = {}
        acc = 0
        for i in range(iterations):
            acc = (acc * 31 + i) & 0xFFFF
            table[acc & 255] = table.get(acc & 255, 0) + 1
        best = min(best, time.perf_counter() - start)
    return iterations / best / 1e6


def peak_rss_mb() -> float:
    """Peak RSS of this process plus that of its largest child, MB."""
    import resource
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    kids = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return (own + kids) / 1024.0
