"""The unified fault-campaign engine.

Every campaign flavor — exhaustive, windowed, statistical, pair/k-fault,
parallel — is the same computation: enumerate a :class:`FaultSpace`
over the bad-input trace, execute each point on an
:class:`ExecutionBackend`, and fold the per-point outcomes into one
:class:`CampaignReport`.  ``CampaignEngine.run(model, space, backend)``
is that computation; the legacy drivers in ``campaign.py``,
``statistical.py`` and ``parallel.py`` are thin adapters over it.

Execution is *streaming* end-to-end: spaces enumerate lazily, backends
pull points through a bounded reorder window (``max_resident_points``)
— executing each window in trace-offset order for machine-state reuse,
then emitting its outcomes back in enumeration order — and the engine
folds the ordered outcome stream into the report incrementally.  Peak
resident fault points are therefore bounded by the window size rather
than the population, and reports stay bit-identical to the fully
materialized path (``stream=False``), which the tests assert.

Two execution strategies are provided:

* **master-walk** (``SequentialBackend(checkpoint_interval=None)``) —
  one machine walks the master trace; each fault snapshots CPU/IO,
  journals memory, replays only the suffix and rolls back (the paper's
  ``fork()`` substitute).  The walk persists across windows for
  offset-monotone spaces; a window behind the walk restarts it.
* **checkpoint-replay** (``checkpoint_interval=N``) — whole-state
  checkpoints are captured every N steps along the master trace,
  extended lazily as far as the windows seen so far need; each fault
  restores the nearest checkpoint at or before its offset and replays
  from there, instead of re-executing the whole prefix.  ``math.inf``
  degenerates to a single step-0 checkpoint, i.e. full prefix
  re-execution — the pre-engine statistical behaviour.

``MultiprocessBackend`` partitions the space declaratively and runs
either strategy on a persistent *warm fleet* of worker processes;
each worker receives a :class:`~repro.faulter.space.SpacePartition` —
the base space spec plus an enumeration-order window, O(1) bytes per
worker instead of O(points) — derives the trace and context locally
(or loads them from the content-addressed
:class:`~repro.faulter.artifacts.ArtifactStore`, when one is
configured), and streams its own share.  Workers reuse the probe's
validated baseline (shipped as the continuation cap + grant marker)
instead of re-validating the oracle per process, live across
campaigns (``evaluate``/``r2r compare`` stop paying derivation
twice), and pull partitions from a shared work-stealing queue, so a
straggler partition no longer gates the whole wave.
"""

from __future__ import annotations

import atexit
import contextvars
import math
import os
import pickle
from dataclasses import dataclass, field
from multiprocessing import get_context
from queue import Empty
from typing import Iterator, Optional, Sequence

from repro.analysis.traceflow import TraceFacts, VariantPrune
from repro.binfmt.reader import read_elf
from repro.binfmt.writer import write_elf
from repro.emu.cpu import ExitProgram, Halt
from repro.emu.jit import TraceCompiler
from repro.emu.machine import (
    MAX_STEPS,
    Checkpoint,
    CheckpointStore,
    Machine,
)
from repro.errors import DecodingError, EmulationError
from repro.faulter import artifacts as artifacts_mod
from repro.faulter.artifacts import ArtifactStats, ArtifactStore
from repro.faulter.models import FaultModel, model_by_name
from repro.faulter.reduction import plan_reduction
from repro.faulter.report import (
    CampaignReport,
    CampaignReportBuilder,
    Fault,
)
from repro.faulter.space import (
    SUFFIX_CAP,
    FaultPoint,
    FaultSpace,
    SpaceContext,
    WindowedSpace,
)
from repro.isa.metadata import effects as isa_effects

# An executed point: (point, outcome class).
PointOutcome = tuple[FaultPoint, str]

# Upper bound on retained whole-state checkpoints per campaign (each
# one copies the full address space).
MAX_CHECKPOINTS = 256

# Default reorder-window size for streaming execution: the bound on
# fault points resident at once (pending execution or reordering).
DEFAULT_MAX_RESIDENT = 4096


@dataclass
class ExecutionStats:
    """Counters a backend fills while streaming outcomes.

    ``compiled_steps`` counts the subset of ``emulated_steps`` executed
    by the trace-compiled tier; ``divergences`` counts compiled blocks
    that aborted back to the precise stepper (guest fault or
    self-modifying code); ``compile_seconds`` is wall time spent
    lifting/lowering superblocks.
    """

    emulated_steps: int = 0
    peak_resident_points: int = 0
    compiled_steps: int = 0
    divergences: int = 0
    compile_seconds: float = 0.0
    artifact_counters: dict = field(default_factory=dict)

    def observe_resident(self, count: int) -> None:
        if count > self.peak_resident_points:
            self.peak_resident_points = count

    def merge_artifacts(self, counters: dict) -> None:
        """Fold a worker's artifact hit/miss delta into this stats."""
        for key, value in counters.items():
            self.artifact_counters[key] = (
                self.artifact_counters.get(key, 0) + value)


def _normalize_interval(interval: int | float | None):
    """``<= 0`` means "single step-0 checkpoint" (prefix re-execution)."""
    if interval is not None and interval <= 0:
        return math.inf
    return interval


def _fault_plan(
    model: FaultModel, point: FaultPoint, base_step: int
) -> dict:
    """Effect plan keyed by steps relative to a resume point
    ``base_step``."""
    return {
        step - base_step: model.effect(detail)
        for step, detail in zip(point.steps, point.details)
    }


def _master_step(machine: Machine) -> bool:
    """Advance the master machine one instruction; False when done."""
    try:
        instruction = machine.fetch_decode(machine.cpu.rip)
        machine.cpu.execute(instruction)
    except (ExitProgram, Halt, EmulationError, DecodingError):
        return False
    return True


def _execution_order(points: Sequence[FaultPoint]) -> list[FaultPoint]:
    return sorted(points, key=lambda p: (p.first_step, p.order))


def _valid_trace(payload) -> bool:
    return isinstance(payload, list) and all(
        isinstance(address, int) for address in payload)


def _valid_flag_states(payload) -> bool:
    return isinstance(payload, list) and all(
        isinstance(state, dict) for state in payload)


def _valid_facts_payload(payload) -> bool:
    return (isinstance(payload, dict)
            and isinstance(payload.get("prune"), dict)
            and isinstance(payload.get("class"), dict)
            and all(isinstance(key, tuple)
                    and (verdict is None
                         or isinstance(verdict, VariantPrune))
                    for key, verdict in payload["prune"].items())
            and all(isinstance(key, tuple)
                    for key in payload["class"]))


def _valid_jit_payload(payload) -> bool:
    return isinstance(payload, dict) and isinstance(
        payload.get("blocks"), list)


def _valid_checkpoint_state(state) -> bool:
    return (isinstance(state, dict)
            and isinstance(state.get("checkpoints"), list)
            and len(state["checkpoints"]) > 0
            and all(isinstance(cp, Checkpoint)
                    for cp in state["checkpoints"])
            and isinstance(state.get("covered"), int)
            and state["covered"] > 0
            and "interval" in state
            and "frontier" in state)


def derive_trace(
    image,
    bad_input: bytes,
    max_steps: int,
    artifacts: Optional[ArtifactStore] = None,
    image_key: Optional[str] = None,
) -> list[int]:
    """Record (or load) the bad-input instruction-address trace.

    The trace is a pure function of (image bytes, input, step budget),
    so with an artifact store attached it is content-addressed under
    :func:`~repro.faulter.artifacts.trace_key` and re-recorded only on
    a miss.
    """
    def record() -> list[int]:
        machine = Machine(image, stdin=bad_input)
        return machine.run(max_steps=max_steps, record_trace=True).trace

    if artifacts is not None and image_key is not None:
        return list(artifacts.load_or_derive(
            "trace",
            artifacts_mod.trace_key(image_key, bad_input, max_steps),
            record,
            validate=_valid_trace,
        ))
    return record()


def build_space_context(
    image, bad_input: bytes, model: FaultModel, trace: Sequence[int],
    artifacts: Optional[ArtifactStore] = None,
    image_key: Optional[str] = None,
) -> SpaceContext:
    """Bind ``model`` to a recorded bad-input ``trace``.

    Shared by the engine (over the faulter's cached trace) and by pool
    workers (over a locally re-derived trace), so both enumerate the
    exact same fault points.  ``artifacts``/``image_key`` optionally
    back the traceflow flag replay with the content-addressed store.
    """
    probe = Machine(image, stdin=bad_input)
    # encoding models ignore the ISA metadata, so only the state
    # family pays for deriving it (once per offset; ctx memoizes)
    wants_meta = model.family == "state"

    def variants_at(step: int):
        # A bad-input run that died on an invalid opcode records the
        # failing address as its final trace entry; such a step has
        # no injectable faults (the legacy driver stopped there).
        try:
            insn = probe.fetch_decode(trace[step])
            meta = isa_effects(insn) if wants_meta else None
            return model.variants(insn, meta)
        except (DecodingError, EmulationError):
            return ()

    def mnemonic_at(step: int) -> str:
        try:
            return probe.fetch_decode(trace[step]).name
        except (DecodingError, EmulationError):
            return "?"

    def insn_at(step: int):
        try:
            return probe.fetch_decode(trace[step])
        except (IndexError, DecodingError, EmulationError):
            return None

    def window_at(step: int):
        try:
            return bytes(probe.memory.fetch(trace[step], 15))
        except (IndexError, DecodingError, EmulationError):
            return None

    def replay_flags() -> list:
        # pre-step ZF/CF/SF along the bad-input trace, re-derived
        # deterministically (same discipline as the trace itself)
        machine = Machine(image, stdin=bad_input)
        states: list[dict] = []
        for _ in range(len(trace)):
            flags = machine.cpu.flags
            states.append(
                {"zf": flags.zf, "cf": flags.cf, "sf": flags.sf}
            )
            if not _master_step(machine):
                break
        return states

    def flag_replay() -> list:
        if artifacts is not None and image_key is not None:
            return list(artifacts.load_or_derive(
                "flags",
                artifacts_mod.flags_key(image_key, bad_input,
                                        len(trace)),
                replay_flags,
                validate=_valid_flag_states,
            ))
        return replay_flags()

    def facts_factory() -> TraceFacts:
        facts = TraceFacts(trace, insn_at, window_at, flag_replay)
        facts.loaded_proofs = 0
        if artifacts is not None and image_key is not None:
            payload = artifacts.load(
                "facts",
                artifacts_mod.facts_key(image_key, bad_input,
                                        len(trace), model.name),
                validate=_valid_facts_payload,
            )
            if payload is not None:
                # the reduction hooks are deterministic, so preloaded
                # verdicts are exactly what recomputation would yield
                facts.prune_cache.update(payload["prune"])
                facts.class_cache.update(payload["class"])
                facts.loaded_proofs = (len(payload["prune"])
                                       + len(payload["class"]))
        return facts

    return SpaceContext(
        model, trace, variants_at, mnemonic_at,
        facts_factory=facts_factory,
    )


def _persist_facts(ctx, artifacts, image_key, bad_input) -> None:
    """Save the reduction proofs a campaign computed, if any.

    Only consults facts the campaign actually materialized
    (``ctx._facts``) — never forces the analysis — and only writes
    when new verdicts accumulated beyond what the store supplied.
    """
    if artifacts is None or image_key is None:
        return
    facts = getattr(ctx, "_facts", None)
    if facts is None:
        return
    proofs = len(facts.prune_cache) + len(facts.class_cache)
    if proofs <= getattr(facts, "loaded_proofs", 0):
        return
    if artifacts.save(
        "facts",
        artifacts_mod.facts_key(image_key, bad_input,
                                len(ctx.trace), ctx.model.name),
        {"prune": dict(facts.prune_cache),
         "class": dict(facts.class_cache)},
    ):
        facts.loaded_proofs = proofs


def _executor_store(faulter):
    """(store, image key) an executor warms from, or (None, None).

    Both come from the faulter-like target: real
    :class:`~repro.faulter.campaign.Faulter` objects and the pool's
    :class:`_WorkerTarget` expose ``artifacts``/``image_digest()``;
    anything else opts out.
    """
    store = getattr(faulter, "artifacts", None)
    if store is None or not hasattr(faulter, "image_digest"):
        return None, None
    return store, faulter.image_digest()


def _warm_jit(compiler, machine, artifacts, image_key) -> None:
    """Import serialized superblock sources from the store, if any."""
    if compiler is None or artifacts is None or image_key is None:
        return
    payload = artifacts.load("jit", artifacts_mod.jit_key(image_key),
                             validate=_valid_jit_payload)
    if payload is not None:
        compiler.import_blocks(machine, payload)


def _persist_jit(compiler, artifacts, image_key) -> None:
    """Export the compiler's block cache if it compiled anything new.

    ``compiled_blocks`` resets on a successful save, so a long-lived
    executor (fleet workers memoize them) re-exports only after fresh
    compilation, not once per partition.
    """
    if compiler is None or artifacts is None or image_key is None:
        return
    if compiler.compiled_blocks:
        if artifacts.save("jit", artifacts_mod.jit_key(image_key),
                          compiler.export_blocks()):
            compiler.compiled_blocks = 0


class _MasterWalkExecutor:
    """Snapshot-replay faults while walking the master trace forward.

    State (one machine plus its dynamic step) persists across windows:
    offset-monotone spaces keep walking forward; a window whose first
    offset lies behind the walk restarts it from step 0 (the emulator
    is deterministic, so results are unaffected).
    """

    def __init__(
        self,
        faulter,
        model: FaultModel,
        cap_policy: str,
        trace_compile: bool = True,
    ):
        self._faulter = faulter
        self._model = model
        self._cap_policy = cap_policy
        self._compiler = TraceCompiler() if trace_compile else None
        self._machine: Optional[Machine] = None
        self._step = 0
        self._done = False
        self._artifacts, self._image_key = _executor_store(faulter)
        self._jit_warmed = False

    def _reset(self) -> None:
        self._machine = Machine(
            self._faulter.image, stdin=self._faulter.bad_input
        )
        if self._compiler is not None:
            self._compiler.attach(self._machine)
            if not self._jit_warmed:
                self._jit_warmed = True
                _warm_jit(self._compiler, self._machine,
                          self._artifacts, self._image_key)
        self._step = 0
        self._done = False

    def finalize(self) -> None:
        _persist_jit(self._compiler, self._artifacts, self._image_key)

    def run_window(
        self, points: Sequence[FaultPoint], stats: ExecutionStats
    ) -> list[PointOutcome]:
        ordered = _execution_order(points)
        if self._machine is None or ordered[0].first_step < self._step:
            self._reset()
        machine = self._machine
        classify = self._faulter.classify
        cap = self._faulter.continuation_cap
        watches = getattr(self._faulter, "watches", ())
        results: list[PointOutcome] = []
        index = 0
        while index < len(ordered):
            while (
                index < len(ordered)
                and ordered[index].first_step == self._step
            ):
                point = ordered[index]
                index += 1
                plan = _fault_plan(self._model, point, self._step)
                if self._cap_policy == SUFFIX_CAP:
                    budget = cap
                else:
                    budget = max(1, cap - self._step)
                state = machine.snapshot()
                machine.memory.journal_begin()
                try:
                    result = machine.run(
                        max_steps=budget,
                        fault_plan=plan,
                        watches=watches,
                    )
                finally:
                    machine.memory.journal_rollback()
                    machine.restore(state)
                stats.emulated_steps += result.steps
                results.append((point, classify(result)))
            if index >= len(ordered) or self._done:
                break
            target = ordered[index].first_step
            if self._compiler is not None and target > self._step:
                # bulk-advance the master walk through compiled
                # superblocks up to the next fault offset
                advanced = self._compiler.execute(
                    machine, target - self._step
                )
                if advanced:
                    stats.emulated_steps += advanced
                    self._step += advanced
                    continue
            if not _master_step(machine):
                # the master run ended; points past it (none, for
                # spaces enumerated from the recorded trace) drop
                self._done = True
                break
            stats.emulated_steps += 1
            self._step += 1
        if self._compiler is not None:
            self._compiler.drain_into(stats)
        return results


class _CheckpointReplayExecutor:
    """Replay each fault from the nearest whole-state checkpoint.

    Checkpoints are built lazily: the master walk is extended (from a
    retained frontier checkpoint) only as far as the windows seen so
    far require, so a campaign over a short prefix never emulates the
    whole trace — and the checkpoint interval is widened from the span
    *actually covered*, not the whole trace, so such a campaign also
    keeps its fine-grained replay.  Each checkpoint owns a full copy
    of the address space, so the store is bounded: each extension
    segment emits at most ``MAX_CHECKPOINTS`` new snapshots, and the
    store is thinned (every other checkpoint dropped, the emission
    grid doubled) whenever it outgrows the cap — wider spacing only
    costs replay steps, never results.
    """

    def __init__(
        self,
        faulter,
        model: FaultModel,
        cap_policy: str,
        checkpoint_interval: int | float,
        trace_length: int,
        trace_compile: bool = True,
    ):
        self._faulter = faulter
        self._model = model
        self._cap_policy = cap_policy
        self._max_span = min(faulter.max_steps, max(trace_length, 1))
        self._interval = checkpoint_interval
        self._machine = Machine(faulter.image, stdin=faulter.bad_input)
        self._compiler = (
            TraceCompiler().attach(self._machine)
            if trace_compile else None
        )
        self._checkpoints: list = []
        self._store: Optional[CheckpointStore] = None
        self._covered = 0
        self._frontier = None
        self._artifacts, self._image_key = _executor_store(faulter)
        self._loaded_covered = 0
        self._state_key = None
        if self._artifacts is not None:
            _warm_jit(self._compiler, self._machine,
                      self._artifacts, self._image_key)
            # the key binds the *configured* replay grid; the stored
            # state carries the post-thinning interval it ended up with
            self._state_key = artifacts_mod.checkpoints_key(
                self._image_key, faulter.bad_input, self._interval,
                self._max_span)
            state = self._artifacts.load(
                "checkpoints", self._state_key,
                validate=_valid_checkpoint_state)
            if state is not None:
                self._checkpoints = list(state["checkpoints"])
                self._covered = min(state["covered"], self._max_span)
                self._frontier = state["frontier"]
                self._interval = state["interval"]
                self._loaded_covered = self._covered
                self._store = CheckpointStore(self._checkpoints)

    def finalize(self) -> None:
        """Persist freshly derived artifacts back to the store."""
        _persist_jit(self._compiler, self._artifacts, self._image_key)
        if (self._artifacts is None or self._state_key is None
                or not self._checkpoints
                or self._covered <= self._loaded_covered):
            return
        if self._artifacts.save("checkpoints", self._state_key, {
            "checkpoints": list(self._checkpoints),
            "covered": self._covered,
            "frontier": self._frontier,
            "interval": self._interval,
        }):
            # a memoized executor (warm fleet) finalizes once per
            # partition — don't re-pickle an unchanged prefix
            self._loaded_covered = self._covered

    def _emit_interval(self, span: int) -> int | float:
        """Emission grid for a build out to ``span`` total steps."""
        if math.isinf(self._interval):
            return self._interval
        return max(self._interval, math.ceil(span / MAX_CHECKPOINTS))

    def _thin_store(self) -> None:
        """Halve checkpoint density once the cap is exceeded.

        Checkpoints are appended in ascending step order, so slicing
        keeps step 0 and every other snapshot; doubling the base
        interval coarsens future emission grids to match.
        """
        while len(self._checkpoints) > MAX_CHECKPOINTS:
            self._checkpoints = self._checkpoints[::2]
            if not math.isinf(self._interval):
                self._interval *= 2

    def _ensure_coverage(self, needed: int, stats: ExecutionStats) -> None:
        """Extend the checkpointed prefix to ``needed`` master steps."""
        needed = min(needed, self._max_span)
        if self._store is not None and needed <= self._covered:
            return
        if self._covered == 0:
            sink: list = []
            result = self._machine.run(
                max_steps=needed,
                checkpoint_interval=self._emit_interval(needed),
                checkpoint_sink=sink,
            )
            stats.emulated_steps += result.steps
            self._checkpoints.extend(sink)
        elif self._frontier is None:
            return  # the master run already ended
        else:
            self._machine.restore_checkpoint(self._frontier)
            sink = []
            result = self._machine.run(
                max_steps=needed - self._covered,
                checkpoint_interval=self._emit_interval(needed),
                checkpoint_sink=sink,
            )
            stats.emulated_steps += result.steps
            for checkpoint in sink:
                if checkpoint.step == 0:
                    # duplicate of the frontier state; kept separately
                    continue
                checkpoint.step += self._covered
                self._checkpoints.append(checkpoint)
        if result.reason == MAX_STEPS and result.steps:
            self._covered += result.steps
            self._frontier = self._machine.checkpoint(self._covered)
        else:
            # exit/halt/crash: nothing exists beyond this prefix
            self._covered = self._max_span
            self._frontier = None
        self._thin_store()
        self._store = CheckpointStore(self._checkpoints)

    def run_window(
        self, points: Sequence[FaultPoint], stats: ExecutionStats
    ) -> list[PointOutcome]:
        ordered = _execution_order(points)
        self._ensure_coverage(ordered[-1].first_step + 1, stats)
        machine = self._machine
        classify = self._faulter.classify
        cap = self._faulter.continuation_cap
        watches = getattr(self._faulter, "watches", ())
        results: list[PointOutcome] = []
        for point in ordered:
            base = machine.restore_checkpoint(
                self._store.nearest(point.first_step)
            )
            plan = _fault_plan(self._model, point, base)
            if self._cap_policy == SUFFIX_CAP:
                budget = (point.first_step - base) + cap
            else:
                budget = max(1, cap - base)
            result = machine.run(
                max_steps=budget,
                fault_plan=plan,
                watches=watches,
            )
            stats.emulated_steps += result.steps
            results.append((point, classify(result)))
        if self._compiler is not None:
            self._compiler.drain_into(stats)
        return results


class ExecutionBackend:
    """Protocol: turn enumerated fault points into outcomes."""

    name = "abstract"

    def iter_outcomes(
        self,
        faulter,
        model: FaultModel,
        space: FaultSpace,
        ctx: SpaceContext,
        stats: ExecutionStats,
    ) -> Iterator[PointOutcome]:
        """Yield point outcomes in enumeration order, updating
        ``stats``."""
        raise NotImplementedError

    def execute(
        self,
        faulter,
        model: FaultModel,
        space: FaultSpace,
        ctx: SpaceContext,
    ) -> tuple[list[PointOutcome], int]:
        """Materializing wrapper: (ordered outcomes, emulated steps)."""
        stats = ExecutionStats()
        outcomes = list(self.iter_outcomes(faulter, model, space, ctx, stats))
        return outcomes, stats.emulated_steps


def _validate_streaming_knobs(
    stream: bool, max_resident_points: int | None
) -> None:
    if max_resident_points is not None:
        if not stream:
            raise ValueError(
                "max_resident_points= requires streaming execution "
                "(stream=True)"
            )
        if max_resident_points < 1:
            raise ValueError(
                f"max_resident_points must be >= 1, got {max_resident_points}"
            )


class SequentialBackend(ExecutionBackend):
    """In-process execution: master-walk or checkpoint-replay.

    ``stream=True`` (the default) pulls points through a bounded
    reorder window of ``max_resident_points`` (default
    ``DEFAULT_MAX_RESIDENT``): each window executes offset-sorted,
    then emits its outcomes back in enumeration order.  ``stream=
    False`` materializes the whole space as one window — the legacy
    O(population) path, kept as the differential-testing baseline.

    ``trace_compile=True`` (the default) runs unfaulted instruction
    stretches through the trace-compiled tier
    (:class:`~repro.emu.jit.TraceCompiler`); ``False`` keeps every
    step on the precise interpreter — the differential baseline the
    bit-identity tests compare against.
    """

    name = "sequential"

    def __init__(
        self,
        checkpoint_interval: int | float | None = None,
        stream: bool = True,
        max_resident_points: int | None = None,
        trace_compile: bool = True,
    ):
        self.checkpoint_interval = _normalize_interval(checkpoint_interval)
        _validate_streaming_knobs(stream, max_resident_points)
        self.stream = stream
        self.max_resident_points = max_resident_points
        self.trace_compile = trace_compile

    def _window_size(self) -> int | None:
        """Reorder-window bound; ``None`` materializes everything."""
        if not self.stream:
            return None
        return self.max_resident_points or DEFAULT_MAX_RESIDENT

    # fleet workers pin (cache dict, key prefix) here so executors —
    # machine, checkpoint prefix, compiled blocks — survive across
    # partitions and campaigns; None (the default) builds per campaign
    _reuse_executors: Optional[tuple[dict, tuple]] = None

    def _executor(self, faulter, space: FaultSpace, ctx: SpaceContext):
        reuse = self._reuse_executors
        if reuse is None:
            return self._build_executor(faulter, space, ctx)
        cache, prefix = reuse
        key = prefix + (space.cap_policy,)
        executor = cache.get(key)
        if executor is None:
            executor = self._build_executor(faulter, space, ctx)
            if len(cache) >= _MAX_WORKER_EXECUTORS:
                cache.clear()
            cache[key] = executor
        return executor

    def _build_executor(self, faulter, space: FaultSpace,
                        ctx: SpaceContext):
        if self.checkpoint_interval:
            return _CheckpointReplayExecutor(
                faulter,
                ctx.model,
                space.cap_policy,
                self.checkpoint_interval,
                len(ctx.trace),
                trace_compile=self.trace_compile,
            )
        return _MasterWalkExecutor(
            faulter,
            ctx.model,
            space.cap_policy,
            trace_compile=self.trace_compile,
        )

    def iter_outcomes(self, faulter, model, space, ctx, stats):
        window_size = self._window_size()
        executor = None
        window: list[FaultPoint] = []
        for point in space.enumerate(ctx):
            window.append(point)
            if window_size is not None and len(window) >= window_size:
                if executor is None:
                    executor = self._executor(faulter, space, ctx)
                yield from self._drain(executor, window, stats)
                window = []
        if window:
            if executor is None:
                executor = self._executor(faulter, space, ctx)
            yield from self._drain(executor, window, stats)
        if executor is not None:
            # persist freshly derived artifacts (JIT block sources,
            # checkpoint prefix) once the campaign's windows are done
            executor.finalize()

    @staticmethod
    def _drain(
        executor,
        window: list[FaultPoint],
        stats: ExecutionStats,
    ) -> Iterator[PointOutcome]:
        """Execute one window; reorder its rows back to enumeration
        order."""
        stats.observe_resident(len(window))
        outcomes = executor.run_window(window, stats)
        outcomes.sort(key=lambda pair: pair[0].order)
        yield from outcomes


class _WorkerTarget:
    """Duck-typed stand-in for a Faulter inside a fleet worker.

    Carries only the probe's validated baseline — the continuation cap
    and the (pickled) fault-detection oracle — so workers never re-run
    the baseline validation.
    """

    def __init__(
        self,
        image,
        bad_input: bytes,
        oracle,
        continuation_cap: int,
        max_steps: int,
        artifacts: Optional[ArtifactStore] = None,
        image_key: Optional[str] = None,
    ):
        self.image = image
        self.bad_input = bad_input
        self.oracle = oracle
        self.watches = oracle.watches()
        self.continuation_cap = continuation_cap
        self.max_steps = max_steps
        self.artifacts = artifacts
        self._image_key = image_key

    def image_digest(self) -> Optional[str]:
        return self._image_key

    def classify(self, result) -> str:
        return self.oracle.classify(result)


# Per-process memos for fleet workers.  Deriving the trace and space
# context is deterministic, so each persistent worker process does it
# once per (binary, input[, model]) and reuses it across its queue of
# partitions — and, because the fleet outlives campaigns, across
# campaigns too.  The trace memo keeps one live target; the context
# memo keeps one entry per fault model on top of it (bounded), so an
# ``evaluate`` sweeping several models re-traces nothing.
_WORKER_TRACES: dict = {}
_WORKER_CONTEXTS: dict = {}
_WORKER_STORES: dict = {}
_MAX_WORKER_CONTEXTS = 8
# executors memoized per context entry (machine + checkpoint prefix +
# compiled blocks stay warm across partitions and campaigns)
_MAX_WORKER_EXECUTORS = 4


def _worker_store(cache_root: Optional[str]):
    """Per-process ArtifactStore memo (one live root at a time)."""
    if cache_root is None:
        return None
    store = _WORKER_STORES.get(cache_root)
    if store is None:
        store = ArtifactStore(cache_root)
        _WORKER_STORES.clear()
        _WORKER_STORES[cache_root] = store
    return store


def _worker_context(
    elf_bytes: bytes,
    bad_input: bytes,
    model_name: str,
    master_max_steps: int,
    store: Optional[ArtifactStore] = None,
):
    key = (elf_bytes, bad_input, model_name, master_max_steps)
    cached = _WORKER_CONTEXTS.get(key)
    if cached is None:
        image_key = artifacts_mod.image_digest(elf_bytes)
        trace_key = (elf_bytes, bad_input, master_max_steps)
        entry = _WORKER_TRACES.get(trace_key)
        if entry is None:
            image = read_elf(elf_bytes)
            trace = derive_trace(
                image, bad_input, master_max_steps,
                artifacts=store, image_key=image_key,
            )
            _WORKER_TRACES.clear()  # one live target per process
            _WORKER_TRACES[trace_key] = (image, trace)
        else:
            image, trace = entry
        model = model_by_name(model_name)
        ctx = build_space_context(
            image, bad_input, model, trace,
            artifacts=store, image_key=image_key,
        )
        # the trailing dict memoizes executors *for this context*; its
        # lifetime is tied to the entry, so an evicted context can
        # never alias a stale executor
        cached = (image, model, ctx, image_key, {})
        if len(_WORKER_CONTEXTS) >= _MAX_WORKER_CONTEXTS:
            _WORKER_CONTEXTS.clear()
        _WORKER_CONTEXTS[key] = cached
    return cached


def _worker(job):
    """Fleet worker: stream one declarative partition of the space.

    The job carries a :class:`~repro.faulter.space.SpacePartition`
    spec, not a point list — the worker derives the bad-input trace
    (deterministic, so identical to the probe's; loaded from the
    artifact store when one is configured) and re-enumerates its own
    window locally.
    """
    (
        elf_bytes,
        bad_input,
        oracle,
        model_name,
        continuation_cap,
        partition,
        checkpoint_interval,
        master_max_steps,
        stream,
        max_resident_points,
        trace_compile,
        cache_root,
    ) = job
    store = _worker_store(cache_root)
    before = store.stats.snapshot() if store is not None else None
    image, model, ctx, image_key, executors = _worker_context(
        elf_bytes, bad_input, model_name, master_max_steps, store=store
    )
    target = _WorkerTarget(
        image,
        bad_input,
        oracle,
        continuation_cap,
        master_max_steps,
        artifacts=store,
        image_key=image_key,
    )
    backend = SequentialBackend(
        checkpoint_interval=checkpoint_interval,
        stream=stream,
        max_resident_points=max_resident_points,
        trace_compile=trace_compile,
    )
    # reuse this context's executor across partitions and campaigns —
    # the machine, checkpoint prefix and compiled blocks stay warm in
    # the persistent worker.  The key pins every knob the executor
    # bakes in; the pickled oracle keeps two different detectors on
    # the same target from ever sharing one (a mismatch only costs a
    # rebuild).
    backend._reuse_executors = (executors, (
        backend.checkpoint_interval,
        stream,
        max_resident_points,
        trace_compile,
        continuation_cap,
        pickle.dumps(oracle),
    ))
    stats = ExecutionStats()
    outcomes = list(
        backend.iter_outcomes(target, model, partition, ctx, stats)
    )
    counters = store.stats.delta(before) if store is not None else None
    return (
        outcomes,
        stats.emulated_steps,
        stats.peak_resident_points,
        stats.compiled_steps,
        stats.divergences,
        stats.compile_seconds,
        counters,
    )


def default_workers() -> int:
    """Fleet size when the caller does not pick one: 2..8 by core count."""
    return max(2, min(8, os.cpu_count() or 2))


def _picklable_error(exc: BaseException) -> BaseException:
    """``exc`` if it survives a pickle roundtrip, else a summary.

    Worker exceptions travel back over a queue; an unpicklable one
    would otherwise die in the queue's feeder thread and strand the
    parent waiting for a result that never arrives.
    """
    try:
        pickle.loads(pickle.dumps(exc))
        return exc
    except Exception:
        return RuntimeError(f"{type(exc).__name__}: {exc}")


def _fleet_main(tasks, results) -> None:
    """Fleet worker loop: pull jobs until the ``None`` sentinel.

    One crashed job never kills the worker — the exception ships back
    tagged with the job id and the loop keeps serving.
    """
    while True:
        item = tasks.get()
        if item is None:
            return
        tag, job = item
        try:
            results.put((tag, "ok", _worker(job)))
        except BaseException as exc:  # noqa: BLE001 — relayed, not hidden
            results.put((tag, "err", _picklable_error(exc)))


class _WorkerFleet:
    """A persistent fleet of campaign workers around one task queue.

    The shared task queue *is* the work-stealing scheduler: idle
    workers pull the next partition the moment they finish one, so a
    straggler partition (dense fault window, crash-heavy region)
    delays only its own worker, never a wave barrier.  Workers are
    daemonic and live until :func:`shutdown_fleet` (registered via
    ``atexit``) or a size change — their per-process memos
    (trace/context/artifact store) are what make the fleet *warm*
    across campaigns.
    """

    # poll interval while waiting on results; each timeout re-checks
    # worker liveness so a killed worker surfaces as an error, not a
    # hang
    _POLL_SECONDS = 1.0

    def __init__(self, size: int):
        self.size = size
        context = (get_context("fork") if hasattr(os, "fork")
                   else get_context("spawn"))
        self._tasks = context.Queue()
        self._results = context.Queue()
        self._epoch = 0
        self._processes = []
        for _ in range(size):
            process = context.Process(
                target=_fleet_main,
                args=(self._tasks, self._results),
                daemon=True,
            )
            # fork in an empty context: a worker outlives the call that
            # spawned it and must not keep that call's JIT block memo
            contextvars.Context().run(process.start)
            self._processes.append(process)

    def alive(self) -> bool:
        return all(p.is_alive() for p in self._processes)

    def pids(self) -> list[int]:
        return [p.pid for p in self._processes]

    def new_epoch(self) -> int:
        """Start a new campaign generation; stale results are dropped.

        An abandoned outcome generator leaves submitted jobs in
        flight; tagging every job with its epoch lets the next
        campaign discard those leftovers instead of mistaking them for
        its own shards.
        """
        self._epoch += 1
        return self._epoch

    def submit(self, epoch: int, index: int, job) -> None:
        self._tasks.put(((epoch, index), job))

    def recv(self, epoch: int) -> tuple[int, tuple]:
        """Next ``(partition index, shard)`` belonging to ``epoch``."""
        while True:
            try:
                tag, status, payload = self._results.get(
                    timeout=self._POLL_SECONDS)
            except Empty:
                if not self.alive():
                    self.shutdown()
                    raise RuntimeError(
                        "campaign worker died unexpectedly; "
                        "fleet torn down") from None
                continue
            if tag[0] != epoch:
                continue
            if status == "err":
                raise payload
            return tag[1], payload

    def shutdown(self) -> None:
        for _ in self._processes:
            try:
                self._tasks.put(None)
            except Exception:
                break
        for process in self._processes:
            process.join(timeout=2.0)
        for process in self._processes:
            if process.is_alive():
                process.terminate()
                process.join(timeout=1.0)
        for q in (self._tasks, self._results):
            try:
                q.close()
                q.cancel_join_thread()
            except Exception:
                pass
        self._processes = []


_FLEET: Optional[_WorkerFleet] = None


def _acquire_fleet(size: int) -> _WorkerFleet:
    """The shared fleet, (re)built on first use, size change or death."""
    global _FLEET
    fleet = _FLEET
    if fleet is not None and (fleet.size != size or not fleet.alive()):
        fleet.shutdown()
        fleet = None
    if fleet is None:
        fleet = _WorkerFleet(size)
        _FLEET = fleet
    return fleet


def shutdown_fleet() -> None:
    """Tear down the persistent worker fleet (idempotent)."""
    global _FLEET
    if _FLEET is not None:
        _FLEET.shutdown()
        _FLEET = None


atexit.register(shutdown_fleet)


class MultiprocessBackend(ExecutionBackend):
    """Partition the space across the warm worker fleet.

    Partitions are contiguous enumeration-order windows shipped as
    declarative sub-specs (O(1) bytes per job).  When streaming, each
    partition is additionally capped at ``max_resident_points``.  With
    ``steal=True`` (the default) partitions go onto the fleet's shared
    pull queue — idle workers steal the next one as they finish, with
    at most ``2 x workers`` jobs outstanding, and the parent reorders
    returning shards back to partition order — so aggregate residency
    stays O(workers x window) while stragglers stop gating wall-clock.
    ``steal=False`` keeps the legacy wave dispatch (one fleet-sized
    batch at a time, a barrier between batches) as the differential
    scheduling baseline.

    Fleet workers persist across campaigns: each derives the
    trace/context once per target (or loads it from the artifact
    store, when the faulter carries one) and reuses it for every
    partition — and for every later campaign against the same target.
    """

    name = "multiprocess"

    def __init__(
        self,
        workers: Optional[int] = None,
        checkpoint_interval: int | float | None = None,
        stream: bool = True,
        max_resident_points: int | None = None,
        trace_compile: bool = True,
        steal: bool = True,
    ):
        self.workers = workers
        self.checkpoint_interval = _normalize_interval(checkpoint_interval)
        _validate_streaming_knobs(stream, max_resident_points)
        self.stream = stream
        self.max_resident_points = max_resident_points
        self.trace_compile = trace_compile
        self.steal = steal

    def _partition_count(self, total: int, workers: int) -> int:
        """Enough partitions for the fleet, capped at the window size."""
        parts = workers
        if self.stream:
            window = self.max_resident_points or DEFAULT_MAX_RESIDENT
            if self.steal:
                # The steal scheduler keeps up to 2 x workers shards in
                # flight or parked in the reorder buffer; shrink each
                # partition so their sum still honours the window.
                window = max(1, window // (workers * 2))
            parts = max(parts, math.ceil(total / window))
        return parts

    def iter_outcomes(self, faulter, model, space, ctx, stats):
        workers = self.workers
        if workers is None:
            workers = default_workers()
        total = space.count(ctx)
        partitions = space.partition(
            ctx, self._partition_count(total, workers)
        )
        if len(partitions) <= 1:
            fallback = SequentialBackend(
                checkpoint_interval=self.checkpoint_interval,
                stream=self.stream,
                max_resident_points=self.max_resident_points,
                trace_compile=self.trace_compile,
            )
            yield from fallback.iter_outcomes(
                faulter, model, space, ctx, stats
            )
            return
        image = faulter.image
        if isinstance(image, (bytes, bytearray)):
            elf_bytes = bytes(image)
        else:
            elf_bytes = write_elf(image)
        store = getattr(faulter, "artifacts", None)
        cache_root = str(store.root) if store is not None else None
        jobs = [
            (
                elf_bytes,
                faulter.bad_input,
                faulter.oracle,
                model.name,
                faulter.continuation_cap,
                partition,
                self.checkpoint_interval,
                faulter.max_steps,
                self.stream,
                self.max_resident_points,
                self.trace_compile,
                cache_root,
            )
            for partition in partitions
        ]
        pool_size = min(workers, len(jobs))
        fleet = _acquire_fleet(pool_size)
        epoch = fleet.new_epoch()
        if self.steal:
            yield from self._iter_stealing(fleet, epoch, jobs,
                                           pool_size, stats)
        else:
            yield from self._iter_waves(fleet, epoch, jobs,
                                        pool_size, stats)

    def _iter_stealing(self, fleet, epoch, jobs, pool_size, stats):
        """Shared pull queue, bounded look-ahead, in-order folding."""
        outstanding_cap = pool_size * 2
        buffered: dict[int, tuple] = {}
        submitted = 0
        next_emit = 0
        while next_emit < len(jobs):
            while (submitted < len(jobs)
                   and submitted - next_emit < outstanding_cap):
                fleet.submit(epoch, submitted, jobs[submitted])
                submitted += 1
            index, shard = fleet.recv(epoch)
            buffered[index] = shard
            while next_emit in buffered:
                yield from self._fold(buffered.pop(next_emit), stats)
                next_emit += 1
            if buffered:
                stats.observe_resident(sum(
                    len(shard[0]) for shard in buffered.values()))

    def _iter_waves(self, fleet, epoch, jobs, pool_size, stats):
        """Legacy wave dispatch: a barrier between fleet-sized batches."""
        for start in range(0, len(jobs), pool_size):
            wave = jobs[start:start + pool_size]
            for offset, job in enumerate(wave):
                fleet.submit(epoch, start + offset, job)
            shards: dict[int, tuple] = {}
            for _ in wave:
                index, shard = fleet.recv(epoch)
                shards[index] = shard
            for index in sorted(shards):
                yield from self._fold(shards[index], stats)

    @staticmethod
    def _fold(shard, stats) -> list[PointOutcome]:
        (
            outcomes,
            steps,
            peak,
            compiled,
            divergences,
            compile_seconds,
            counters,
        ) = shard
        stats.emulated_steps += steps
        stats.observe_resident(peak)
        stats.observe_resident(len(outcomes))
        stats.compiled_steps += compiled
        stats.divergences += divergences
        stats.compile_seconds += compile_seconds
        if counters:
            stats.merge_artifacts(counters)
        return outcomes


BACKENDS = {
    "sequential": SequentialBackend,
    "multiprocess": MultiprocessBackend,
    # common aliases
    "parallel": MultiprocessBackend,
}


def backend_by_name(name: str, **kwargs) -> ExecutionBackend:
    """Instantiate a backend by name (``sequential``/``multiprocess``)."""
    try:
        factory = BACKENDS[name]
    except KeyError:
        raise KeyError(
            f"unknown backend {name!r}; known: {sorted(BACKENDS)}"
        ) from None
    return factory(**kwargs)


def resolve_backend(
    backend,
    *,
    workers: Optional[int] = None,
    checkpoint_interval: int | float | None = None,
    stream: bool | None = None,
    max_resident_points: int | None = None,
    trace_compile: bool | None = None,
    steal: bool | None = None,
) -> ExecutionBackend:
    """Coerce ``None``/name/instance into an ExecutionBackend.

    Conflicting knobs are an error, not a silent drop: ``workers``
    and ``steal`` require a multiprocess backend, and an
    already-constructed backend instance owns its own configuration.
    """
    checkpoint_interval = _normalize_interval(checkpoint_interval)
    streaming_kwargs: dict = {}
    if stream is not None:
        streaming_kwargs["stream"] = stream
    if max_resident_points is not None:
        streaming_kwargs["max_resident_points"] = max_resident_points
    if trace_compile is not None:
        streaming_kwargs["trace_compile"] = trace_compile
    steal_kwargs: dict = {} if steal is None else {"steal": steal}
    if backend is None:
        if workers is not None or steal is not None:
            return MultiprocessBackend(
                workers=workers,
                checkpoint_interval=checkpoint_interval,
                **streaming_kwargs,
                **steal_kwargs,
            )
        return SequentialBackend(
            checkpoint_interval=checkpoint_interval, **streaming_kwargs
        )
    if isinstance(backend, str):
        factory = BACKENDS.get(backend)
        if factory is None:
            backend_by_name(backend)  # raises naming the known backends
        kwargs: dict = {"checkpoint_interval": checkpoint_interval}
        kwargs.update(streaming_kwargs)
        if factory is MultiprocessBackend:
            kwargs["workers"] = workers
            kwargs.update(steal_kwargs)
        else:
            if workers is not None:
                raise ValueError(
                    "workers= only applies to the multiprocess "
                    f"backend, not {backend!r}"
                )
            if steal is not None:
                raise ValueError(
                    "steal= only applies to the multiprocess "
                    f"backend, not {backend!r}"
                )
        return factory(**kwargs)
    conflicts = (
        ("checkpoint_interval", checkpoint_interval),
        ("workers", workers),
        ("stream", stream),
        ("max_resident_points", max_resident_points),
        ("trace_compile", trace_compile),
        ("steal", steal),
    )
    for knob, value in conflicts:
        if value is None:
            continue
        if getattr(backend, knob, None) != value:
            raise ValueError(
                f"pass {knob}= to the backend constructor, not "
                "alongside a backend instance"
            )
    return backend


@dataclass(frozen=True)
class EngineConfig:
    """Declarative engine configuration: every campaign knob, once.

    Replaces the ``backend``/``checkpoint_interval``/``workers``/
    ``k_faults``/``stream``/``max_resident_points`` parameter sprawl
    that every API entry point used to re-declare.  Validation happens
    at *construction* (not inside ``resolve_backend`` at campaign
    time), so a bad combination fails where it is written; ``resolve``
    turns the config into a concrete :class:`ExecutionBackend`.

    ``backend`` may name a registered backend (``"sequential"``/
    ``"multiprocess"``), be ``None`` (pick by the other knobs), or —
    for programmatic callers — an :class:`ExecutionBackend` instance,
    which owns its own knobs (and makes the config non-serializable).
    ``to_dict``/``from_dict`` roundtrip losslessly, including an
    infinite checkpoint interval (JSON-safe as ``"inf"``).
    """

    backend: object = None
    checkpoint_interval: int | float | None = None
    workers: Optional[int] = None
    k_faults: int = 1
    samples: int = 200
    seed: int = 0
    stream: Optional[bool] = None
    max_resident_points: Optional[int] = None
    trace_compile: Optional[bool] = None
    reduce: Optional[bool] = None
    chunk_units: Optional[bool] = None
    artifact_cache: Optional[bool] = None
    cache_dir: Optional[str] = None
    steal: Optional[bool] = None

    def __post_init__(self):
        backend = self.backend
        declarative = backend is None or isinstance(backend, str)
        if isinstance(backend, str) and backend not in BACKENDS:
            raise ValueError(
                f"unknown backend {backend!r}; known: "
                f"{sorted(BACKENDS)}")
        if not declarative and not isinstance(backend,
                                              ExecutionBackend):
            raise ValueError(
                "backend must be None, a registered backend name, or "
                f"an ExecutionBackend instance, got {backend!r}")
        if self.workers is not None:
            if self.workers < 1:
                raise ValueError(
                    f"workers must be >= 1, got {self.workers}")
            if (isinstance(backend, str)
                    and BACKENDS[backend] is not MultiprocessBackend):
                raise ValueError(
                    "workers= only applies to the multiprocess "
                    f"backend, not {backend!r}")
        if self.k_faults < 1:
            raise ValueError(
                f"k_faults must be >= 1, got {self.k_faults}")
        if self.samples < 1:
            raise ValueError(
                f"samples must be >= 1, got {self.samples}")
        if self.max_resident_points is not None:
            if self.stream is False:
                raise ValueError(
                    "max_resident_points= requires streaming "
                    "execution (stream=True)")
            if self.max_resident_points < 1:
                raise ValueError(
                    "max_resident_points must be >= 1, got "
                    f"{self.max_resident_points}")
        if self.trace_compile is not None and not isinstance(
                self.trace_compile, bool):
            raise ValueError(
                "trace_compile must be True, False or None, got "
                f"{self.trace_compile!r}")
        if self.reduce is not None and not isinstance(
                self.reduce, bool):
            raise ValueError(
                "reduce must be True, False or None, got "
                f"{self.reduce!r}")
        if self.chunk_units is not None and not isinstance(
                self.chunk_units, bool):
            raise ValueError(
                "chunk_units must be True, False or None, got "
                f"{self.chunk_units!r}")
        if self.chunk_units and self.k_faults > 1:
            raise ValueError(
                "chunk_units= applies to single-fault campaigns only "
                f"(got k_faults={self.k_faults})")
        if self.artifact_cache is not None and not isinstance(
                self.artifact_cache, bool):
            raise ValueError(
                "artifact_cache must be True, False or None, got "
                f"{self.artifact_cache!r}")
        if self.cache_dir is not None and not isinstance(
                self.cache_dir, (str, os.PathLike)):
            raise ValueError(
                f"cache_dir must be a path, got {self.cache_dir!r}")
        if self.artifact_cache is False and self.cache_dir is not None:
            raise ValueError(
                "cache_dir= conflicts with artifact_cache=False")
        if self.steal is not None:
            if not isinstance(self.steal, bool):
                raise ValueError(
                    "steal must be True, False or None, got "
                    f"{self.steal!r}")
            if (isinstance(self.backend, str)
                    and BACKENDS[self.backend]
                    is not MultiprocessBackend):
                raise ValueError(
                    "steal= only applies to the multiprocess "
                    f"backend, not {self.backend!r}")

    def resolve(self) -> ExecutionBackend:
        """Concrete backend for this configuration."""
        return resolve_backend(
            self.backend,
            workers=self.workers,
            checkpoint_interval=self.checkpoint_interval,
            stream=self.stream,
            max_resident_points=self.max_resident_points,
            trace_compile=self.trace_compile,
            steal=self.steal,
        )

    def artifact_store(self) -> Optional[ArtifactStore]:
        """The configured :class:`ArtifactStore`, or ``None`` (off).

        The cache is opt-in: ``artifact_cache=True`` enables it at the
        default (``XDG_CACHE_HOME``-honoring) root, and naming a
        ``cache_dir`` implies enabling it there.
        """
        enabled = self.artifact_cache is True or (
            self.artifact_cache is None and self.cache_dir is not None)
        if not enabled:
            return None
        return ArtifactStore(self.cache_dir)

    def to_dict(self) -> dict:
        if self.backend is not None and not isinstance(self.backend,
                                                       str):
            raise ValueError(
                "an EngineConfig carrying a backend *instance* is "
                "not serializable; name the backend instead")
        interval = self.checkpoint_interval
        if interval is not None and math.isinf(interval):
            interval = "inf"  # keep the payload strictly JSON-safe
        return {
            "backend": self.backend,
            "checkpoint_interval": interval,
            "workers": self.workers,
            "k_faults": self.k_faults,
            "samples": self.samples,
            "seed": self.seed,
            "stream": self.stream,
            "max_resident_points": self.max_resident_points,
            "trace_compile": self.trace_compile,
            "reduce": self.reduce,
            "chunk_units": self.chunk_units,
            "artifact_cache": self.artifact_cache,
            "cache_dir": (str(self.cache_dir)
                          if self.cache_dir is not None else None),
            "steal": self.steal,
        }

    @classmethod
    def from_dict(cls, payload: dict) -> "EngineConfig":
        interval = payload.get("checkpoint_interval")
        if interval == "inf":
            interval = math.inf
        return cls(
            backend=payload.get("backend"),
            checkpoint_interval=interval,
            workers=payload.get("workers"),
            k_faults=payload.get("k_faults", 1),
            samples=payload.get("samples", 200),
            seed=payload.get("seed", 0),
            stream=payload.get("stream"),
            max_resident_points=payload.get("max_resident_points"),
            trace_compile=payload.get("trace_compile"),
            reduce=payload.get("reduce"),
            chunk_units=payload.get("chunk_units"),
            artifact_cache=payload.get("artifact_cache"),
            cache_dir=payload.get("cache_dir"),
            steal=payload.get("steal"),
        )


class CampaignEngine:
    """Runs any fault space on any backend for one faulter target."""

    def __init__(self, faulter):
        self.faulter = faulter
        self._contexts: dict[str, SpaceContext] = {}

    def context(self, model: FaultModel | str) -> SpaceContext:
        """Space context for ``model`` over the cached bad-input trace."""
        if isinstance(model, str):
            model = model_by_name(model)
        cached = self._contexts.get(model.name)
        if cached is not None:
            return cached
        store = getattr(self.faulter, "artifacts", None)
        image_key = None
        if store is not None and hasattr(self.faulter, "image_digest"):
            image_key = self.faulter.image_digest()
        ctx = build_space_context(
            self.faulter.image,
            self.faulter.bad_input,
            model,
            self.faulter.trace(),
            artifacts=store,
            image_key=image_key,
        )
        self._contexts[model.name] = ctx
        return ctx

    def run(
        self,
        model: FaultModel | str,
        space: FaultSpace,
        backend: ExecutionBackend | str | None = None,
        collect_outcomes: bool = False,
        target: Optional[str] = None,
        reduce: Optional[bool] = None,
    ) -> CampaignReport:
        """Execute ``space`` on ``backend``; fold the streamed
        outcomes into one report incrementally.

        ``reduce`` toggles equivalence reduction
        (:mod:`repro.faulter.reduction`): ``None``/``True`` prune the
        space when a plan applies (the report still covers every point
        of the full space, with elided points inheriting their proven
        verdicts and ``meta["reduction"]`` carrying the certificate);
        ``False`` forces the full enumeration, for bit-identity
        checks.
        """
        if isinstance(model, str):
            model = model_by_name(model)
        store = getattr(self.faulter, "artifacts", None)
        # snapshot before context/trace derivation so their hits and
        # misses land in this report's counters too
        before = store.stats.snapshot() if store is not None else None
        ctx = self.context(model)
        backend = resolve_backend(backend)
        plan = None
        if reduce is False:
            reduction_meta: dict = {
                "enabled": False, "reason": "disabled"
            }
        else:
            plan, reason = plan_reduction(
                self.faulter,
                model,
                ctx,
                space,
                trace_compile=getattr(backend, "trace_compile", True),
            )
            if plan is None:
                reduction_meta = {"enabled": False, "reason": reason}
        stats = ExecutionStats()
        builder = CampaignReportBuilder(
            target=target if target is not None else self.faulter.name,
            model=model.name,
            trace_length=len(ctx.trace),
            fault_for=lambda point: self._fault_for(point, ctx, model),
            collect_outcomes=collect_outcomes,
        )
        if plan is None:
            for point, outcome in backend.iter_outcomes(
                self.faulter, model, space, ctx, stats
            ):
                builder.add(point, outcome)
        else:
            executed = backend.iter_outcomes(
                self.faulter, model, plan.space, ctx, stats
            )
            for point, outcome in plan.expand(executed):
                builder.add(point, outcome)
            # plan.expand pulls exactly one outcome per survivor, which
            # leaves the backend generator one step short of exhaustion
            # — drive it to the end so post-loop cleanup (artifact
            # persistence) runs
            for _ in executed:
                pass
            plan.merge_stats(stats)
            reduction_meta = plan.certificate().to_dict()
        if store is not None and hasattr(self.faulter, "image_digest"):
            _persist_facts(ctx, store, self.faulter.image_digest(),
                           self.faulter.bad_input)
        return builder.finish(
            meta={
                "backend": backend.name,
                "space": space.describe(),
                "checkpoint_interval": _interval_meta(backend),
                "stream": getattr(backend, "stream", False),
                "max_resident_points": getattr(
                    backend, "max_resident_points", None
                ),
                "peak_resident_points": stats.peak_resident_points,
                "emulated_steps": stats.emulated_steps,
                "trace_compile": getattr(
                    backend, "trace_compile", False
                ),
                "compiled_steps": stats.compiled_steps,
                "precise_steps": (
                    stats.emulated_steps - stats.compiled_steps
                ),
                "compile_seconds": round(stats.compile_seconds, 6),
                "compile_divergences": stats.divergences,
                "reduction": reduction_meta,
                "artifacts": _artifacts_meta(store, before, stats),
            }
        )

    def run_chunked(
        self,
        model: FaultModel | str,
        plan,
        backend: ExecutionBackend | str | None = None,
        collect_outcomes: bool = False,
        target: Optional[str] = None,
    ) -> CampaignReport:
        """Exhaustive campaign chunked per rewrite unit.

        The bad-input trace is partitioned by which
        :class:`~repro.disasm.units.RewriteUnit` owns each executed
        address (trampoline/injected code falls into a residual
        ``<outside>`` chunk, so coverage stays total), and each chunk
        runs as its own :class:`WindowedSpace` sub-campaign — a large
        ``.text`` streams through the backend's
        ``max_resident_points`` bound one function at a time.  Each
        outcome's point is re-keyed to its global exhaustive order, so
        the merged report is bit-identical to an unchunked
        :class:`ExhaustiveSpace` run; ``meta["units"]`` carries
        per-function rollups.  Equivalence reduction is skipped (the
        reduced and unreduced reports are proven identical, so nothing
        is lost beyond the pruning speedup).
        """
        if isinstance(model, str):
            model = model_by_name(model)
        store = getattr(self.faulter, "artifacts", None)
        before = store.stats.snapshot() if store is not None else None
        ctx = self.context(model)
        backend = resolve_backend(backend)

        chunks: dict[str, list[int]] = {}
        unit_info: dict[str, dict] = {}
        for step, address in enumerate(ctx.trace):
            unit = plan.unit_at(address)
            name = unit.name if unit is not None else "<outside>"
            chunks.setdefault(name, []).append(step)
            if unit is not None and name not in unit_info:
                unit_info[name] = {
                    "start": unit.start,
                    "end": unit.end,
                    "opaque": unit.opaque,
                    "origin": unit.origin,
                }

        stats = ExecutionStats()
        rollups: dict[str, dict] = {}
        rows: list[tuple[int, FaultPoint, str]] = []
        cumulative = ctx._cumulative_counts()
        for name in sorted(chunks, key=lambda n: chunks[n][0]):
            steps = chunks[name]
            chunk_stats = ExecutionStats()
            outcomes: dict[str, int] = {}
            variant_seen: dict[int, int] = {}
            space = WindowedSpace(indices=tuple(steps))
            for point, outcome in backend.iter_outcomes(
                self.faulter, model, space, ctx, chunk_stats
            ):
                first = point.first_step
                index = variant_seen.get(first, 0)
                variant_seen[first] = index + 1
                prior = cumulative[first - 1] if first else 0
                order = prior + index
                rows.append((
                    order,
                    FaultPoint(order, point.steps, point.details),
                    outcome,
                ))
                outcomes[outcome] = outcomes.get(outcome, 0) + 1
            stats.emulated_steps += chunk_stats.emulated_steps
            stats.observe_resident(chunk_stats.peak_resident_points)
            stats.compiled_steps += chunk_stats.compiled_steps
            stats.divergences += chunk_stats.divergences
            stats.compile_seconds += chunk_stats.compile_seconds
            stats.merge_artifacts(chunk_stats.artifact_counters)
            rollups[name] = {
                **unit_info.get(name, {}),
                "trace_steps": len(steps),
                "points": sum(outcomes.values()),
                "outcomes": outcomes,
            }

        rows.sort(key=lambda row: row[0])
        builder = CampaignReportBuilder(
            target=target if target is not None else self.faulter.name,
            model=model.name,
            trace_length=len(ctx.trace),
            fault_for=lambda point: self._fault_for(point, ctx, model),
            collect_outcomes=collect_outcomes,
        )
        for _, point, outcome in rows:
            builder.add(point, outcome)
        if store is not None and hasattr(self.faulter, "image_digest"):
            _persist_facts(ctx, store, self.faulter.image_digest(),
                           self.faulter.bad_input)
        return builder.finish(
            meta={
                "backend": backend.name,
                "space": f"unit-chunked[{len(chunks)}]",
                "checkpoint_interval": _interval_meta(backend),
                "stream": getattr(backend, "stream", False),
                "max_resident_points": getattr(
                    backend, "max_resident_points", None
                ),
                "peak_resident_points": stats.peak_resident_points,
                "emulated_steps": stats.emulated_steps,
                "trace_compile": getattr(
                    backend, "trace_compile", False
                ),
                "compiled_steps": stats.compiled_steps,
                "precise_steps": (
                    stats.emulated_steps - stats.compiled_steps
                ),
                "compile_seconds": round(stats.compile_seconds, 6),
                "compile_divergences": stats.divergences,
                "reduction": {"enabled": False, "reason": "chunked"},
                "artifacts": _artifacts_meta(store, before, stats),
                "units": rollups,
            }
        )

    @staticmethod
    def _fault_for(
        point: FaultPoint, ctx: SpaceContext, model: FaultModel
    ) -> Fault:
        first = point.first_step
        detail = point.details[0]
        if point.arity > 1:
            # legacy multi-fault format: (d0, s1, d1, s2, d2, ...)
            extra: list = []
            for step, d in zip(point.steps[1:], point.details[1:]):
                extra.extend((step, d))
            detail = (detail, *extra)
        return Fault(
            model.name,
            first,
            ctx.trace[first],
            ctx.mnemonic(first),
            detail,
        )


def _artifacts_meta(store, before, stats) -> dict:
    """Report-meta rollup of cache activity for one campaign.

    Merges the parent store's delta since ``before`` (trace/flags
    derivation in :meth:`CampaignEngine.context`, sequential-executor
    loads) with the per-worker counters the multiprocess backend folds
    into ``stats``.  Lives in ``meta`` (``compare=False``), so counter
    differences never break report bit-identity.
    """
    counters = dict(stats.artifact_counters)
    if store is None and not counters:
        return {"enabled": False}
    merged = ArtifactStats()
    if store is not None and before is not None:
        merged.merge(store.stats.delta(before))
    if counters:
        merged.merge(counters)
    meta = {
        "enabled": True,
        "hits": merged.hits,
        "misses": merged.misses,
        "saves": merged.saves,
        "derive_seconds": round(merged.derive_seconds, 6),
    }
    if store is not None:
        meta["cache_dir"] = str(store.root)
    return meta


def _interval_meta(backend):
    interval = getattr(backend, "checkpoint_interval", None)
    if interval == float("inf"):
        return "inf"  # keep report.to_dict() strictly JSON-safe
    return interval
