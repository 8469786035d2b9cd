"""In-memory span recording around the program's public calls.

The benchmark does not instrument ``src/``: it interposes thin timing
wrappers on a fixed list of public functions and methods (``HOOKS``)
for the duration of a traced operation, then restores the originals.
A module-level function is replaced at every binding a loaded
``repro`` module holds (``from x import f`` copies the name), a method
on its class.  Each call becomes one span ``(id, name, start, end,
parent)``; return values of interest (campaign reports, hardening
results) are kept so their counters can be read afterwards.

Spans are written out as Chrome trace-event JSON (open the file in
Perfetto or ``chrome://tracing``).
"""

from __future__ import annotations

import contextlib
import functools
import importlib
import json
import sys
import time
from dataclasses import dataclass
from typing import Optional

# (span name, module, attribute) — the layer is the part before the dot
HOOKS = (
    ("binfmt.read", "repro.binfmt.reader", "read_elf"),
    ("binfmt.write", "repro.binfmt.writer", "write_elf"),
    ("asm.assemble", "repro.asm.assembler", "assemble_with_map"),
    ("disasm.recover", "repro.disasm.units", "recover_plan"),
    ("disasm.disassemble", "repro.disasm.recover", "disassemble"),
    ("lift.lift", "repro.lift.lifter", "Lifter.lift"),
    ("ir.passes", "repro.ir.passes.pass_manager", "PassManager.run"),
    ("ir.verify", "repro.ir.verifier", "verify"),
    ("hybrid.branch_harden", "repro.hybrid.branch_harden",
     "harden_branches"),
    ("lower.lower", "repro.lower.pipeline", "lower_module"),
    ("emu.run", "repro.emu.machine", "run_executable"),
    ("hybrid.harden", "repro.hybrid.pipeline", "hybrid_harden"),
    ("detour.harden", "repro.detour.rewriter", "detour_harden"),
    ("patcher.harden", "repro.patcher.loop", "FaulterPatcherLoop.run"),
    ("faulter.derive", "repro.faulter.campaign", "Faulter.__init__"),
    ("faulter.derive", "repro.faulter.campaign", "Faulter.trace"),
    ("faulter.campaign", "repro.faulter.campaign",
     "Faulter.run_campaign"),
    ("report.diff", "repro.faulter.report", "differential_report"),
)

# spans whose return values the benchmark reads counters from
KEEP_RESULTS = frozenset({
    "faulter.campaign", "hybrid.harden", "detour.harden",
    "patcher.harden",
})

LAYERS = tuple(dict.fromkeys(name.split(".")[0] for name, _, _ in HOOKS))


@dataclass
class Span:
    id: int
    name: str
    start: int  # perf_counter_ns
    end: int
    parent: Optional[int]

    @property
    def layer(self) -> str:
        return self.name.split(".")[0]

    @property
    def seconds(self) -> float:
        return (self.end - self.start) / 1e9


class Recorder:
    """Spans and kept results of one traced region, in memory."""

    def __init__(self):
        self.spans: list[Span] = []  # a span's id is its index
        self.results: list[tuple[str, object]] = []
        self._stack: list[int] = []

    def open(self, name: str) -> Span:
        parent = self._stack[-1] if self._stack else None
        span = Span(len(self.spans), name, time.perf_counter_ns(), 0,
                    parent)
        self.spans.append(span)
        self._stack.append(span.id)
        return span

    def close(self, span: Span) -> None:
        span.end = time.perf_counter_ns()
        self._stack.pop()

    @contextlib.contextmanager
    def region(self, name: str):
        """Record one span around a ``with`` block (used for roots)."""
        span = self.open(name)
        try:
            yield span
        finally:
            self.close(span)

    def children(self) -> dict[int, list[Span]]:
        kids: dict[int, list[Span]] = {}
        for span in self.spans:
            if span.parent is not None:
                kids.setdefault(span.parent, []).append(span)
        return kids

    def to_chrome(self) -> dict:
        """Chrome trace-event JSON (complete events, microseconds)."""
        base = min((s.start for s in self.spans), default=0)
        events = [{
            "name": span.name,
            "cat": span.layer,
            "ph": "X",
            "ts": (span.start - base) / 1e3,
            "dur": (span.end - span.start) / 1e3,
            "pid": 1,
            "tid": 1,
            "args": {"id": span.id, "parent": span.parent},
        } for span in self.spans]
        return {"traceEvents": events, "displayTimeUnit": "ms"}

    def write_chrome(self, path) -> None:
        with open(path, "w") as handle:
            json.dump(self.to_chrome(), handle)


def _wrap(recorder: Recorder, name: str, original):
    keep = name in KEEP_RESULTS

    @functools.wraps(original)
    def traced(*args, **kwargs):
        span = recorder.open(name)
        try:
            result = original(*args, **kwargs)
        finally:
            recorder.close(span)
        if keep:
            recorder.results.append((name, result))
        return result

    return traced


class Interposer:
    """Installs the ``HOOKS`` wrappers and restores the originals."""

    def __init__(self, recorder: Recorder):
        self.recorder = recorder
        self._undo: list[tuple[object, str, object]] = []

    def install(self) -> None:
        for name, module_name, attribute in HOOKS:
            module = importlib.import_module(module_name)
            if "." in attribute:
                owner_name, method = attribute.split(".")
                owner = getattr(module, owner_name)
                original = owner.__dict__[method]
                self._set(owner, method, original,
                          _wrap(self.recorder, name, original))
                continue
            original = getattr(module, attribute)
            wrapper = _wrap(self.recorder, name, original)
            for loaded in list(sys.modules.values()):
                namespace = getattr(loaded, "__dict__", None)
                if (namespace is None or not getattr(
                        loaded, "__name__", "").startswith("repro")):
                    continue
                for key, value in list(namespace.items()):
                    if value is original:
                        self._set(loaded, key, original, wrapper)

    def _set(self, owner, key, original, wrapper) -> None:
        setattr(owner, key, wrapper)
        self._undo.append((owner, key, original))

    def uninstall(self) -> None:
        while self._undo:
            owner, key, original = self._undo.pop()
            setattr(owner, key, original)

    def __enter__(self):
        self.install()
        return self

    def __exit__(self, *exc):
        self.uninstall()
        return False


def self_times(recorder: Recorder, root: Span) -> dict[str, float]:
    """Seconds of ``root``'s interval spent in each layer's own code.

    A span's self time is its duration minus its direct children's;
    the root's own self time is reported as ``unattributed``.  The
    values sum to the root's duration.
    """
    kids = recorder.children()
    totals = {layer: 0.0 for layer in LAYERS}
    totals["unattributed"] = 0.0
    stack = [root]
    while stack:
        span = stack.pop()
        children = kids.get(span.id, [])
        own = span.seconds - sum(child.seconds for child in children)
        key = "unattributed" if span is root else span.layer
        totals[key] = totals.get(key, 0.0) + own
        stack.extend(children)
    return totals


def inclusive_times(recorder: Recorder, root: Span) -> dict[str, float]:
    """Seconds per span name under ``root``, recursion counted once.

    Also derives the two stage timings that are defined by their
    caller: ``ir.cleanup`` (the pass pipeline run directly by the
    hybrid pipeline, as opposed to inside JIT compiles) and
    ``hybrid.validate`` (emulator runs made by the hybrid pipeline).
    """
    kids = recorder.children()
    totals: dict[str, float] = {}
    stack = [(root, frozenset())]
    while stack:
        span, enclosing = stack.pop()
        if span is not root and span.name not in enclosing:
            totals[span.name] = totals.get(span.name, 0.0) + span.seconds
            if recorder.spans[span.parent].name == "hybrid.harden":
                derived = {"ir.passes": "ir.cleanup",
                           "emu.run": "hybrid.validate"}.get(span.name)
                if derived is not None:
                    totals[derived] = (totals.get(derived, 0.0)
                                       + span.seconds)
        inner = enclosing | {span.name}
        stack.extend((child, inner) for child in kids.get(span.id, []))
    return totals
