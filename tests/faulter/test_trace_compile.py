"""Campaign bit-identity with the trace-compiled tier on vs off.

The compiled tier is a pure performance substrate: every campaign
report — outcomes, per-point classifications, emulated step counts —
must be bit-identical to the precise interpreter across every fault
model, backend, streaming mode and workload.  ``trace_compile=False``
is the differential baseline these tests compare against.  The block
memo that shares lifting across one ``Target`` call is held to the same
standard against the unscoped call.
"""

import pytest

from repro.api import Target
from repro.binfmt.writer import write_elf
from repro.emu.jit import TraceCompiler, compiler
from repro.emu.machine import Machine
from repro.errors import LiftError
from repro.faulter import (
    MultiprocessBackend,
    SampledSpace,
    SequentialBackend,
    engine,
)
from repro.faulter.engine import EngineConfig, resolve_backend
from repro.faulter.models import MODELS
from repro.workloads import bootloader, corpus, pincheck

WORKLOADS = {
    "pincheck": pincheck.workload,
    "bootloader": lambda: bootloader.workload(rich=True),
    "exitgate": corpus.exitgate_workload,
}


@pytest.fixture(scope="module")
def faulters():
    return {name: factory().target().faulter()
            for name, factory in WORKLOADS.items()}


def _run(faulter, model, backend):
    space = SampledSpace(samples=24, seed=11)
    return faulter.engine().run(model, space, backend=backend)


def _assert_identical(faulter, model, on, off):
    compiled = _run(faulter, model, on)
    precise = _run(faulter, model, off)
    assert compiled == precise  # outcomes, faults, classifications
    assert (compiled.meta["emulated_steps"]
            == precise.meta["emulated_steps"])
    assert compiled.meta["trace_compile"] is True
    assert precise.meta["trace_compile"] is False
    assert precise.meta["compiled_steps"] == 0
    assert (compiled.meta["compiled_steps"]
            + compiled.meta["precise_steps"]
            == compiled.meta["emulated_steps"])


class TestEveryModelBitIdentical:
    """All registered fault models, checkpointed sequential backend."""

    @pytest.mark.parametrize("model", sorted(MODELS))
    def test_model(self, faulters, model):
        _assert_identical(
            faulters["bootloader"], model,
            SequentialBackend(checkpoint_interval=64),
            SequentialBackend(checkpoint_interval=64,
                              trace_compile=False))


class TestBackendsAndStreaming:
    """skip model across backends x stream x workloads."""

    @pytest.mark.parametrize("workload", sorted(WORKLOADS))
    @pytest.mark.parametrize("stream", (True, False))
    def test_sequential_master_walk(self, faulters, workload, stream):
        _assert_identical(
            faulters[workload], "skip",
            SequentialBackend(stream=stream),
            SequentialBackend(stream=stream, trace_compile=False))

    @pytest.mark.parametrize("workload", sorted(WORKLOADS))
    def test_sequential_checkpointed(self, faulters, workload):
        _assert_identical(
            faulters[workload], "skip",
            SequentialBackend(checkpoint_interval=16),
            SequentialBackend(checkpoint_interval=16,
                              trace_compile=False))

    @pytest.mark.parametrize("stream", (True, False))
    def test_multiprocess(self, faulters, stream):
        _assert_identical(
            faulters["bootloader"], "skip",
            MultiprocessBackend(workers=2, checkpoint_interval=64,
                                stream=stream),
            MultiprocessBackend(workers=2, checkpoint_interval=64,
                                stream=stream, trace_compile=False))

    def test_multiprocess_aggregates_worker_counters(self, faulters):
        report = _run(
            faulters["bootloader"], "skip",
            MultiprocessBackend(workers=2, checkpoint_interval=64))
        assert report.meta["compiled_steps"] > 0
        assert report.meta["compile_seconds"] >= 0.0


class TestKnobPlumbing:
    def test_engine_config_roundtrip(self):
        config = EngineConfig(trace_compile=False)
        assert (EngineConfig.from_dict(config.to_dict()).trace_compile
                is False)
        assert EngineConfig().to_dict()["trace_compile"] is None

    def test_engine_config_validates(self):
        with pytest.raises(ValueError, match="trace_compile"):
            EngineConfig(trace_compile="yes")

    def test_resolve_backend_plumbs_the_knob(self):
        backend = resolve_backend(None, trace_compile=False)
        assert backend.trace_compile is False
        backend = resolve_backend("multiprocess", trace_compile=False)
        assert backend.trace_compile is False
        assert resolve_backend(None).trace_compile is True

    def test_resolve_backend_instance_conflict(self):
        instance = SequentialBackend()
        with pytest.raises(ValueError, match="trace_compile"):
            resolve_backend(instance, trace_compile=False)

    def test_default_is_on(self):
        assert SequentialBackend().trace_compile is True
        assert MultiprocessBackend().trace_compile is True


def _count_lifts(monkeypatch):
    """Log every block the compilers lift, keyed by its content."""
    calls = []
    original = compiler._lower

    def counted(body, terminator, start):
        insns = body + ([terminator] if terminator is not None else [])
        calls.append(tuple((insn.address, insn.raw) for insn in insns))
        return original(body, terminator, start)

    monkeypatch.setattr(compiler, "_lower", counted)
    return calls


class TestBlockMemo:
    """One ``Target`` call lifts each distinct superblock once."""

    MODELS = ("skip", "bitflip")

    @pytest.fixture(scope="class")
    def evaluations(self):
        """Exhaustive bootloader evaluation with and without the memo."""
        patch = pytest.MonkeyPatch()
        try:
            runs = {}
            for name, evaluate in (("off", Target.evaluate.__wrapped__),
                                   ("on", Target.evaluate)):
                calls = _count_lifts(patch)
                target = bootloader.workload().target()
                runs[name] = (evaluate(target, models=self.MODELS,
                                       harden_models=self.MODELS),
                              calls)
                patch.undo()
        finally:
            patch.undo()
        return runs

    def test_reports_bit_identical_with_and_without_memo(self,
                                                         evaluations):
        on, _ = evaluations["on"]
        off, _ = evaluations["off"]
        assert on.baseline_reports == off.baseline_reports
        assert on.hardened_reports == off.hardened_reports
        assert on.diff.to_dict()["points"] == off.diff.to_dict()["points"]
        assert on.result.iterations == off.result.iterations
        assert write_elf(on.hardened) == write_elf(off.hardened)

    def test_step_counters_identical(self, evaluations):
        on, _ = evaluations["on"]
        off, _ = evaluations["off"]
        for side in ("baseline_reports", "hardened_reports"):
            for model in self.MODELS:
                meta_on = getattr(on, side)[model].meta
                meta_off = getattr(off, side)[model].meta
                for key in ("emulated_steps", "compiled_steps",
                            "precise_steps", "compile_divergences"):
                    assert meta_on[key] == meta_off[key], (side, key)

    def test_each_distinct_block_lifts_once(self, evaluations):
        _, lifts_on = evaluations["on"]
        _, lifts_off = evaluations["off"]
        assert 0 < len(lifts_on) < len(lifts_off) / 2
        # the same blocks, each lifted once
        assert set(lifts_on) == set(lifts_off)
        assert len(lifts_on) == len(set(lifts_on))

    def test_second_call_starts_cold(self, monkeypatch):
        target = pincheck.workload().target()
        calls = _count_lifts(monkeypatch)
        target.evaluate(models=("skip",))
        first = len(calls)
        target.evaluate(models=("skip",))
        assert first > 0
        assert len(calls) == 2 * first

    def test_same_address_different_bytes_not_reused(self, monkeypatch):
        calls = _count_lifts(monkeypatch)
        image = corpus.build("exit42")
        with compiler.block_memo():
            exits = []
            for patched in (False, True, False):
                machine = Machine(image)
                TraceCompiler().attach(machine)
                if patched:
                    # rewrite the imm8 of "mov rdi, 42" in place
                    entry = machine.cpu.rip
                    second = entry + machine.fetch_decode(entry).length
                    machine.memory.poke(second + 3, b"\x2b")
                exits.append(machine.run().exit_code)
        assert exits == [42, 43, 42]
        assert len(calls) == 2  # the third run reuses the first block

    def test_failed_lift_is_memoized(self, monkeypatch):
        calls = []

        def refuse(body, start):
            calls.append(start)
            raise LiftError("refused")

        monkeypatch.setattr(compiler, "lift_superblock", refuse)
        image = corpus.build("exit42")
        with compiler.block_memo():
            for _ in range(3):
                machine = Machine(image)
                jit = TraceCompiler().attach(machine)
                assert machine.run().exit_code == 42
                assert jit.compiled_steps == 0
        # every block failed once and was never lifted again
        assert calls and len(calls) == len(set(calls))

    def test_no_scope_keeps_per_compiler_cache(self, monkeypatch):
        calls = _count_lifts(monkeypatch)
        image = corpus.build("exit42")
        for _ in range(2):
            machine = Machine(image)
            TraceCompiler().attach(machine)
            machine.run()
        assert len(calls) == 2

    def test_fleet_workers_fork_without_the_memo(self, monkeypatch):
        # a worker outlives the call that spawned it; an inherited memo
        # would keep growing across every later campaign it serves
        monkeypatch.setattr(engine, "_worker",
                            lambda job: compiler._MEMO.get())
        with compiler.block_memo():
            fleet = engine._WorkerFleet(1)
            try:
                epoch = fleet.new_epoch()
                fleet.submit(epoch, 0, None)
                assert fleet.recv(epoch) == (0, None)
            finally:
                fleet.shutdown()
