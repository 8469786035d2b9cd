"""Workloads, measurement loop and metrics of the ``r2r`` benchmark.

Every workload drives the public API in-process, the way the ``r2r``
commands do: ELF bytes in, ``Target`` / ``approach_by_name`` /
``Faulter`` underneath, reports and hardened ELFs out.  ``--seed``
only draws the guest programs' inputs (the PIN pair and the firmware
images); the program receives nothing else.

An untraced run times whole operations.  A traced run alternates an
untraced and a traced operation on the same inputs, so that it can
report the tracing overhead and check that both give identical
reports; its per-layer numbers come from the spans of
:mod:`perfbench.spans` and from the counters the program already
returns in ``report.meta`` and in its hardening results.
"""

from __future__ import annotations

import json
import pathlib
import random
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from dataclasses import dataclass, field
from typing import Optional

import repro.binfmt.reader as elf_reader
import repro.binfmt.writer as elf_writer
from repro.api import EngineConfig, Target
from repro.emu.machine import run_executable
from repro.faulter.engine import shutdown_fleet
from repro.workloads import bootloader, corpus, pincheck
from repro.workloads.base import Workload

from perfbench import checks, spans
from perfbench.calibration import Calibrator, scaled

HERE = pathlib.Path(__file__).resolve().parent
OUT_DIR = HERE / "out"
KNOWN_ANSWERS = HERE / "known_answers.json"

DEFAULT_SEED = 0

# set-ups in fresh processes whose median is ``setup_s``
SETUP_PROBES = 5

# (name, unit, better) — the metrics of an untraced run
E2E_METRICS = (
    ("op_s", "s", "lower"),
    ("setup_s", "s", "lower"),
    ("peak_rss_mb", "MB", "lower"),
)

_STAGE_TIMES = (
    # metric, span name (inclusive seconds per operation)
    ("binfmt.read_s", "binfmt.read"),
    ("binfmt.write_s", "binfmt.write"),
    ("disasm.recover_s", "disasm.recover"),
    ("lift.lift_s", "lift.lift"),
    ("ir.cleanup_s", "ir.cleanup"),
    ("ir.verify_s", "ir.verify"),
    ("hybrid.branch_harden_s", "hybrid.branch_harden"),
    ("lower.lower_s", "lower.lower"),
    ("hybrid.validate_s", "hybrid.validate"),
    ("hybrid.harden_s", "hybrid.harden"),
    ("detour.harden_s", "detour.harden"),
    ("patcher.harden_s", "patcher.harden"),
    ("faulter.derive_s", "faulter.derive"),
    ("faulter.campaign_s", "faulter.campaign"),
    ("report.diff_s", "report.diff"),
)

_COUNTERS = (
    # metric, unit, better
    ("ir.insns", "count", "lower"),
    ("hybrid.branches_hardened", "count", "higher"),
    ("detour.patched", "count", "higher"),
    ("detour.refused", "count", "lower"),
    ("detour.trampoline_bytes", "bytes", "lower"),
    ("patcher.iterations", "count", "lower"),
    ("patcher.patched_sites", "count", "lower"),
    ("reduce.elided_points", "count", "higher"),
    ("reduce.executed_ratio", "ratio", "lower"),
    ("engine.emulated_steps", "count", "lower"),
    ("engine.precise_steps", "count", "lower"),
    ("engine.steps_per_fault", "count", "lower"),
    ("engine.peak_resident_points", "count", "lower"),
    ("jit.compiled_ratio", "ratio", "higher"),
    ("jit.divergences", "count", "lower"),
    ("artifacts.hits", "count", "higher"),
    ("artifacts.misses", "count", "lower"),
    ("artifacts.saves", "count", "lower"),
    ("artifacts.hit_ratio", "ratio", "higher"),
    ("harden.code_overhead_pct", "%", "lower"),
    ("harden.runtime_overhead_pct", "%", "lower"),
    ("report.residual_points", "count", "lower"),
)

# (name, unit, better) — the metrics of a traced run
LAYER_METRICS = (
    *((metric, "s", "lower") for metric, _ in _STAGE_TIMES),
    ("asm.assemble_s", "s", "lower"),
    ("jit.compile_s", "s", "lower"),
    ("jit.compile_share", "ratio", "lower"),
    ("fleet.cold_eval_s", "s", "lower"),
    ("fleet.warm_eval_s", "s", "lower"),
    *_COUNTERS,
    *((f"self.{layer}_s", "s", "lower") for layer in spans.LAYERS),
    ("unattributed_s", "s", "lower"),
    ("trace.wall_s", "s", "lower"),
    ("trace.untraced_wall_s", "s", "lower"),
    ("trace.overhead_s", "s", "lower"),
    ("trace.overhead_pct", "%", "lower"),
    ("trace.spans", "count", "lower"),
)

# Counters that legitimately differ between two operations on the
# same inputs.  The fleet's work stealing decides which worker runs
# which partition, and each worker keeps its own checkpoint and
# artifact memos, so step counts and artifact saves depend on the
# schedule.  Every other counter must repeat exactly.
VARYING_COUNTERS = {
    "reevaluate-fleet": frozenset({
        "engine.emulated_steps", "engine.precise_steps",
        "engine.steps_per_fault", "jit.compiled_ratio",
        "artifacts.saves",
    }),
}


# ---------------------------------------------------------------------------
# inputs drawn from the seed
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class Inputs:
    pin: str
    wrong_pin: str
    firmware: bytes          # 16-byte image for the default bootloader
    steady_firmware: bytes   # 64-byte image for the long campaign
    rich_firmware: bytes     # headed image for the rich bootloader


def draw_inputs(seed: int) -> Inputs:
    rng = random.Random(seed)
    digits = "0123456789"
    pin = "".join(rng.choice(digits) for _ in range(4))
    # every digit wrong, so the compare loop rejects at the first one
    wrong = "".join(rng.choice(digits.replace(d, "")) for d in pin)
    return Inputs(
        pin=pin,
        wrong_pin=wrong,
        firmware=rng.randbytes(16),
        steady_firmware=rng.randbytes(64),
        rich_firmware=bootloader.MAGIC + rng.randbytes(14),
    )


def tampered(firmware: bytes) -> bytes:
    """Flip bits in two payload bytes (a one-bit tamper could be
    undone by one fault on the loader's hash constant)."""
    image = bytearray(firmware)
    image[-1] ^= 0x01
    image[len(image) // 2] ^= 0x10
    return bytes(image)


def bootloader_workload(firmware: bytes, rich: bool = False) -> Workload:
    return Workload(
        name="secure-bootloader-rich" if rich else "secure-bootloader",
        source=(bootloader.rich_source(firmware) if rich
                else bootloader.source(firmware)),
        good_input=firmware,
        bad_input=tampered(firmware),
        grant_marker=bootloader.BOOT_MARKER,
    )


@dataclass(frozen=True)
class Case:
    """One guest program as a user hands it to ``r2r``: ELF bytes."""

    name: str
    elf: bytes
    good: bytes
    bad: bytes
    marker: bytes

    @classmethod
    def build(cls, workload: Workload) -> "Case":
        return cls(workload.name, elf_writer.write_elf(workload.build()),
                   workload.good_input, workload.bad_input,
                   workload.grant_marker)

    def target(self) -> Target:
        return Target(self.elf, self.good, self.bad, self.marker,
                      name=self.name)


# ---------------------------------------------------------------------------
# workloads
# ---------------------------------------------------------------------------


@dataclass
class Outcome:
    """What one operation produced, reduced to what the checks need."""

    answer: dict    # compared with the known answer; has "digest"
    problems: list[str]
    hardened: list[tuple[Case, bytes]] = field(default_factory=list)
    items: int = 1                   # faults / rewrites / evaluations
    residual_points: Optional[int] = None

    @property
    def digest(self) -> str:
        return self.answer["digest"]


def _evaluation_outcome(case: Case, evaluation) -> Outcome:
    hardened = elf_writer.write_elf(evaluation.hardened)
    sides = (("baseline", evaluation.baseline_reports),
             ("hardened", evaluation.hardened_reports))
    diff = evaluation.diff.to_dict()
    diff.pop("meta", None)
    payload = {
        "reports": {f"{side}/{model}": checks.report_payload(report)
                    for side, reports in sides
                    for model, report in reports.items()},
        "diff": diff,
        "hardened_elf": checks.sha(hardened),
    }
    problems = [problem for _, reports in sides
                for report in reports.values()
                for problem in checks.report_problems(report)]
    problems += checks.census_problems(
        evaluation.diff, evaluation.baseline_reports,
        evaluation.hardened_reports)
    census = evaluation.diff.counts()
    return Outcome(
        answer={
            "digest": checks.digest(payload),
            "census": {model: dict(counts) for model, counts
                       in evaluation.diff.by_model().items()},
        },
        problems=problems,
        hardened=[(case, hardened)],
        residual_points=census["surviving"] + census["introduced"],
    )


class BenchWorkload:
    name = ""
    # the first operation pays a cost the later ones do not
    cold_first = False

    def setup(self, inputs: Inputs, workdir: pathlib.Path) -> None:
        raise NotImplementedError

    def op(self):
        """One timed operation; returns what ``outcome`` consumes."""
        raise NotImplementedError

    def outcome(self, raw) -> Outcome:
        raise NotImplementedError

    def close(self) -> None:
        pass


class CompareBootloader(BenchWorkload):
    """``r2r compare bootloader --model skip --model bitflip``."""

    name = "compare-bootloader"
    models = ("skip", "bitflip")

    def setup(self, inputs, workdir):
        self.case = Case.build(bootloader_workload(inputs.firmware))

    def op(self):
        return self.case.target().evaluate(
            approach="faulter+patcher", models=self.models,
            harden_models=self.models)

    def outcome(self, raw):
        return _evaluation_outcome(self.case, raw)


class CampaignSteady(BenchWorkload):
    """``r2r fault`` with one exhaustive register-bitflip campaign."""

    name = "campaign-steady"

    def setup(self, inputs, workdir):
        self.case = Case.build(
            bootloader_workload(inputs.steady_firmware))

    def op(self):
        return self.case.target().campaign(models=("reg-bitflip",))

    def outcome(self, raw):
        payload = {model: checks.report_payload(report)
                   for model, report in raw.items()}
        return Outcome(
            answer={
                "digest": checks.digest(payload),
                "outcomes": {model: dict(report.outcomes)
                             for model, report in raw.items()},
            },
            problems=[problem for report in raw.values()
                      for problem in checks.report_problems(report)],
            items=sum(report.total_faults for report in raw.values()),
        )


class RewriteBatch(BenchWorkload):
    """``r2r harden --approach hybrid|detour`` over five programs."""

    name = "rewrite-batch"
    approaches = ("hybrid", "detour")

    def setup(self, inputs, workdir):
        self.cases = [
            Case.build(pincheck.workload(inputs.pin, inputs.wrong_pin)),
            Case.build(bootloader_workload(inputs.firmware)),
            Case.build(pincheck.workload(inputs.pin, inputs.wrong_pin,
                                         rich=True)),
            Case.build(bootloader_workload(inputs.rich_firmware,
                                           rich=True)),
            Case.build(corpus.workload()),
        ]

    def op(self):
        rewrites = []
        for case in self.cases:
            target = case.target()
            for approach in self.approaches:
                result = target.harden(approach, fault_models=())
                rewrites.append((case, approach, result,
                                 elf_writer.write_elf(result.hardened)))
        return rewrites

    def outcome(self, raw):
        sizes = {f"{case.name}/{approach}": [result.original_text_size,
                                             result.hardened_text_size]
                 for case, approach, result, _ in raw}
        payload = {
            "sizes": sizes,
            "elfs": [checks.sha(elf) for _, _, _, elf in raw],
        }
        return Outcome(
            answer={"digest": checks.digest(payload), "sizes": sizes},
            problems=[],
            hardened=[(case, elf) for case, _, _, elf in raw],
            items=len(raw),
        )


class ReevaluateFleet(BenchWorkload):
    """``r2r compare`` repeated on the warm multiprocess fleet with an
    artifact store that is fresh for each benchmark run."""

    name = "reevaluate-fleet"
    cold_first = True
    models = ("skip", "reg-bitflip")

    def setup(self, inputs, workdir):
        self.case = Case.build(bootloader_workload(inputs.firmware))
        cache = workdir / "artifact-cache"
        cache.mkdir()
        self.config = EngineConfig(
            backend="multiprocess", workers=2, artifact_cache=True,
            cache_dir=str(cache))

    def op(self):
        return self.case.target().evaluate(models=self.models,
                                           config=self.config)

    def outcome(self, raw):
        return _evaluation_outcome(self.case, raw)

    def close(self):
        shutdown_fleet()


WORKLOADS = {
    workload.name: workload
    for workload in (CompareBootloader, CampaignSteady, RewriteBatch,
                     ReevaluateFleet)
}


# ---------------------------------------------------------------------------
# per-layer numbers of one traced operation
# ---------------------------------------------------------------------------


def _layer_sample(recorder: spans.Recorder, root: spans.Span,
                  results: list) -> dict:
    inclusive = spans.inclusive_times(recorder, root)
    sample = {metric: inclusive.get(name, 0.0)
              for metric, name in _STAGE_TIMES}
    for layer, seconds in spans.self_times(recorder, root).items():
        key = ("unattributed_s" if layer == "unattributed"
               else f"self.{layer}_s")
        sample[key] = seconds

    metas = [report.meta for name, report in results
             if name == "faulter.campaign"]
    faults = sum(report.total_faults for name, report in results
                 if name == "faulter.campaign")
    emulated = sum(meta.get("emulated_steps", 0) for meta in metas)
    compiled = sum(meta.get("compiled_steps", 0) for meta in metas)
    full = executed = 0
    for meta in metas:
        certificate = meta.get("reduction") or {}
        if certificate.get("enabled"):
            full += certificate.get("full_points", 0)
            executed += certificate.get("executed_points", 0)
    cache = {"hits": 0, "misses": 0, "saves": 0}
    for meta in metas:
        store = meta.get("artifacts") or {}
        if store.get("enabled"):
            for key in cache:
                cache[key] += store.get(key, 0)
    looked_up = cache["hits"] + cache["misses"]
    compile_s = sum(meta.get("compile_seconds", 0.0) for meta in metas)
    sample.update({
        "jit.compile_s": compile_s,
        "jit.compile_share": compile_s / root.seconds,
        "jit.compiled_ratio": compiled / emulated if emulated else 0.0,
        "jit.divergences": sum(meta.get("compile_divergences", 0)
                               for meta in metas),
        "engine.emulated_steps": emulated,
        "engine.precise_steps": sum(meta.get("precise_steps", 0)
                                    for meta in metas),
        "engine.steps_per_fault": emulated / faults if faults else 0.0,
        "engine.peak_resident_points": max(
            (meta.get("peak_resident_points") or 0 for meta in metas),
            default=0),
        "reduce.elided_points": full - executed,
        "reduce.executed_ratio": executed / full if full else 0.0,
        "artifacts.hits": cache["hits"],
        "artifacts.misses": cache["misses"],
        "artifacts.saves": cache["saves"],
        "artifacts.hit_ratio": (cache["hits"] / looked_up
                                if looked_up else 0.0),
    })

    counts = dict.fromkeys(
        ("ir.insns", "hybrid.branches_hardened", "detour.patched",
         "detour.refused", "detour.trampoline_bytes",
         "patcher.iterations", "patcher.patched_sites"), 0)
    for name, result in results:
        if name == "hybrid.harden":
            counts["ir.insns"] += sum(result.ir_histogram_after.values())
            counts["hybrid.branches_hardened"] += (
                result.hardening.branches_hardened)
        elif name == "detour.harden":
            counts["detour.patched"] += result.stats.patched
            counts["detour.refused"] += result.stats.refused
            counts["detour.trampoline_bytes"] += (
                result.stats.trampoline_bytes)
        elif name == "patcher.harden":
            counts["patcher.iterations"] += len(result.iterations)
            counts["patcher.patched_sites"] += sum(
                iteration.patched for iteration in result.iterations)
    sample.update(counts)
    sample["trace.wall_s"] = root.seconds
    sample["trace.spans"] = sum(
        1 for span in recorder.spans if span.start >= root.start
        and span.end <= root.end and span is not root)
    return sample


# ---------------------------------------------------------------------------
# the measurement loop
# ---------------------------------------------------------------------------


def _overheads(outcome: Outcome) -> tuple[float, float]:
    """Hardened over original: ``.text`` bytes and emulated steps on
    the good input, in percent."""
    size_before = size_after = steps_before = steps_after = 0
    for case, elf in outcome.hardened:
        size_before += elf_reader.read_elf(case.elf).code_size()
        size_after += elf_reader.read_elf(elf).code_size()
        steps_before += run_executable(case.elf, stdin=case.good).steps
        steps_after += run_executable(elf, stdin=case.good).steps
    if not size_before:
        return 0.0, 0.0
    return (100.0 * (size_after - size_before) / size_before,
            100.0 * (steps_after - steps_before) / steps_before)


def load_known_answers() -> dict:
    if not KNOWN_ANSWERS.exists():
        return {}
    return json.loads(KNOWN_ANSWERS.read_text())


def setup_probe(name: str, seed: int, started: float) -> float:
    """Seconds from ``started`` until the workload's inputs are
    assembled; ``started`` is taken before the process's imports."""
    workload = WORKLOADS[name]()
    workdir = pathlib.Path(tempfile.mkdtemp(prefix="probe-",
                                            dir=_out_dir()))
    try:
        workload.setup(draw_inputs(seed), workdir)
        return time.perf_counter() - started
    finally:
        workload.close()
        shutil.rmtree(workdir, ignore_errors=True)


def _out_dir() -> pathlib.Path:
    OUT_DIR.mkdir(exist_ok=True)
    return OUT_DIR


def _probe_setup(name: str, seed: int, probes: int,
                 calibrator: Calibrator) -> list[float]:
    """Set-up seconds of ``probes`` fresh processes, imports included,
    each scaled by the calibration right after it."""
    command = [sys.executable, str(HERE / "run.py"), "--setup-probe",
               "--workload", name, "--seed", str(seed)]
    samples = []
    for _ in range(probes):
        done = subprocess.run(command, capture_output=True, text=True,
                              timeout=120, check=True)
        samples.append(scaled(float(done.stdout.split()[-1]),
                              calibrator.sample()))
    return samples


class _Run:
    """Operations of one benchmark run and the checks on them."""

    def __init__(self, workload: BenchWorkload, seed: int,
                 known: Optional[dict], native: checks.NativeReference,
                 calibrator: Calibrator):
        self.workload = workload
        self.calibrator = calibrator
        self.expected = (known or {}).get(str(seed), {}).get(
            workload.name)
        self.native = native
        self.first: Optional[Outcome] = None
        self.overheads = (0.0, 0.0)
        self.untraced: list[float] = []
        # one before each untraced operation and one after the last
        self.calibrations: list[float] = []
        self.attempted = 0
        self.failed = 0
        self.problems: list[str] = []

    def record(self, raw, label: str) -> None:
        outcome = self.workload.outcome(raw)
        problems = list(outcome.problems)
        if self.first is None:
            self.first = outcome
            problems += self._first_checks(outcome)
        elif outcome.digest != self.first.digest:
            problems.append(f"{label} operation gave reports different "
                            f"from the first operation's")
        self.attempted += 1
        if problems:
            self.failed += 1
            self.problems.extend(problems)

    def _first_checks(self, outcome: Outcome) -> list[str]:
        problems = []
        answer = json.loads(json.dumps(outcome.answer))
        if self.expected is not None and answer != self.expected:
            problems.append(
                f"result differs from the known answer: {answer} != "
                f"{self.expected}")
        for case, elf in outcome.hardened:
            problems += self.native.problems(
                case.elf, elf, case.good, case.bad, case.marker,
                case.name)
        self.overheads = _overheads(outcome)
        return problems

    def attempt(self, label: str):
        """One operation; one that raises counts as failed (``None``)."""
        try:
            return self.workload.op()
        except Exception as exc:  # noqa: BLE001 — counted and reported
            self.attempted += 1
            self.failed += 1
            self.problems.append(f"{label} operation raised {exc!r}")
            return None

    def untraced_op(self) -> float:
        self.calibrations.append(self.calibrator.sample())
        began = time.perf_counter()
        raw = self.attempt("untraced")
        seconds = time.perf_counter() - began
        if raw is not None:
            self.record(raw, "untraced")
        self.untraced.append(seconds)
        return seconds


def measure(name: str, seed: int = DEFAULT_SEED, seconds: float = 10,
            trace: bool = False, *, known: Optional[dict] = None,
            probes: int = SETUP_PROBES, min_ops: int = 1,
            trace_out: Optional[pathlib.Path] = None) -> dict:
    """Run workload ``name`` for ``seconds`` and return its numbers.

    Operations start until ``seconds`` have passed, and at least
    ``min_ops`` of them; the last one runs to its end.  ``setup_s`` is
    the median set-up of ``probes`` fresh processes.  ``known`` maps
    seed -> workload -> answer.
    """
    workload = WORKLOADS[name]()
    workdir = pathlib.Path(tempfile.mkdtemp(prefix=f"{name}-",
                                            dir=_out_dir()))
    recorder = spans.Recorder()
    calibrator = Calibrator()
    try:
        inputs = draw_inputs(seed)
        if trace:
            with spans.Interposer(recorder), \
                    recorder.region("setup") as setup_span:
                workload.setup(inputs, workdir)
        else:
            workload.setup(inputs, workdir)
        run = _Run(workload, seed, known,
                   checks.NativeReference(workdir), calibrator)
        began = time.perf_counter()

        def more(done: int, least: int) -> bool:
            return (done < least
                    or time.perf_counter() - began < seconds)

        layers: dict = {}
        if not trace:
            while more(len(run.untraced), min_ops):
                run.untraced_op()
        else:
            cold = run.untraced_op() if workload.cold_first else None
            samples, paired = [], []
            # a second pair, when there is time, checks that the
            # counters repeat within the run
            while more(len(samples), min_ops):
                paired.append(run.untraced_op())
                mark = len(recorder.results)
                with spans.Interposer(recorder):
                    with recorder.region("op") as root:
                        raw = run.attempt("traced")
                if raw is not None:
                    run.record(raw, "traced")
                    samples.append(_layer_sample(
                        recorder, root, recorder.results[mark:]))
            if not samples:
                raise RuntimeError(f"no traced operation succeeded: "
                                   f"{run.problems}")
            layers = _summarize_layers(run, samples, paired, cold)
            setup_times = spans.inclusive_times(recorder, setup_span)
            layers["asm.assemble_s"] = setup_times.get(
                "asm.assemble", 0.0)
            path = trace_out or OUT_DIR / f"{name}-seed{seed}.trace.json"
            recorder.write_chrome(path)

        if run.first is None:
            raise RuntimeError(f"every operation failed: {run.problems}")
        run.calibrations.append(calibrator.sample())
        peak_rss_mb = calibrator.program_peak_bytes() / 2**20
        setups = _probe_setup(name, seed, probes, calibrator)
    finally:
        workload.close()
        shutil.rmtree(workdir, ignore_errors=True)

    op_s = statistics.median(run.untraced)
    # each operation at reference speed, by the calibrations around it
    scaled_ops = [scaled(seconds, before, after)
                  for seconds, before, after in zip(
                      run.untraced, run.calibrations, run.calibrations[1:])]
    return {
        "workload": name,
        "seed": seed,
        "trace": trace,
        "attempted": run.attempted,
        "failed": run.failed,
        "problems": list(dict.fromkeys(run.problems)),
        "native": run.native.status(),
        "answer": run.first.answer,
        "op_seconds": run.untraced,
        "op_scaled_seconds": scaled_ops,
        "e2e": {
            "op_s": statistics.median(scaled_ops),
            "setup_s": statistics.median(setups),
            "peak_rss_mb": peak_rss_mb,
        },
        "table": _table(workload, run, op_s, setups, peak_rss_mb),
        "layers": layers,
    }


def _summarize_layers(run: _Run, samples: list[dict],
                      paired: list[float], cold: Optional[float]) -> dict:
    """Mean per traced operation; counters must repeat exactly."""
    varying = VARYING_COUNTERS.get(run.workload.name, frozenset())
    for metric, _, _ in _COUNTERS:
        if metric in varying or metric.startswith(("harden.",
                                                   "report.")):
            continue
        values = {sample[metric] for sample in samples}
        if len(values) > 1:
            run.problems.append(
                f"counter {metric} varied between operations on the "
                f"same inputs: {sorted(values)}")
            run.failed = run.attempted
    layers = {key: statistics.fmean(sample[key] for sample in samples)
              for key in samples[0]}
    layers["harden.code_overhead_pct"] = run.overheads[0]
    layers["harden.runtime_overhead_pct"] = run.overheads[1]
    layers["report.residual_points"] = run.first.residual_points or 0
    layers["trace.untraced_wall_s"] = statistics.fmean(paired)
    layers["trace.overhead_s"] = (layers["trace.wall_s"]
                                  - layers["trace.untraced_wall_s"])
    layers["trace.overhead_pct"] = (100.0 * layers["trace.overhead_s"]
                                    / layers["trace.untraced_wall_s"])
    layers["fleet.cold_eval_s"] = cold or 0.0
    layers["fleet.warm_eval_s"] = (statistics.median(paired)
                                   if cold is not None else 0.0)
    return layers


def _table(workload: BenchWorkload, run: _Run, op_s: float,
           setups: list[float], peak_rss_mb: float) -> list[tuple]:
    """The end-to-end metrics a user of each command sees."""
    n = len(run.untraced)
    items = run.first.items
    rows = {
        CompareBootloader: [("eval_s", op_s, "s", f"median of {n}")],
        ReevaluateFleet: [("eval_s", op_s, "s",
                           f"median of {n}, first one cold")],
        CampaignSteady: [("faults_per_s", items / op_s, "1/s",
                          f"{items} faults per campaign, median of "
                          f"{n} campaigns")],
        RewriteBatch: [("rewrites_per_s", items / op_s, "1/s",
                        f"{items} rewrites per batch, median of "
                        f"{n} batches")],
    }[type(workload)]
    rows += [
        ("setup_s", statistics.median(setups), "s",
         f"median of {len(setups)} fresh-process set-ups"),
        ("peak_rss_mb", peak_rss_mb, "MB", "this process"),
        ("failed_ops_ratio", run.failed / run.attempted, "ratio",
         f"{run.failed} of {run.attempted} operations"),
    ]
    if run.first.hardened:
        rows += [
            ("code_overhead_pct", run.overheads[0], "%",
             "hardened .text bytes over original"),
            ("runtime_overhead_pct", run.overheads[1], "%",
             "emulated steps on the good input"),
        ]
    if run.first.residual_points is not None:
        rows.append(("residual_points", run.first.residual_points,
                     "count", "surviving + introduced"))
    return rows
