"""Correctness checks applied to every operation the benchmark times.

* ``digest`` — canonical SHA-256 of a JSON-safe payload; reports enter
  it through ``report_payload`` (``to_dict()`` without ``meta``, the
  part that is bit-identical across backends, tiers and caches).
* ``census_problems`` / ``report_problems`` — invariants that hold for
  any input, so seeds without a recorded known answer are still
  checked.
* ``NativeReference`` — runs original and hardened ELFs on the host
  CPU, an oracle independent of the emulator that decided the
  verdicts.
"""

from __future__ import annotations

import hashlib
import json
import os
import pathlib
import subprocess
from collections import Counter
from typing import Optional

NATIVE_TIMEOUT_S = 10


def digest(payload) -> str:
    text = json.dumps(payload, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(text.encode()).hexdigest()


def sha(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def report_payload(report) -> dict:
    """``report.to_dict()`` without the execution metadata."""
    payload = report.to_dict()
    payload.pop("meta", None)
    return payload


def report_problems(report) -> list[str]:
    """Internal consistency of one campaign report."""
    problems = []
    if report.total_faults != sum(report.outcomes.values()):
        problems.append(
            f"{report.target}/{report.model}: outcome counts do not sum "
            f"to total_faults={report.total_faults}")
    if report.outcomes.get("success", 0) != len(report.successes):
        problems.append(
            f"{report.target}/{report.model}: success count differs "
            f"from the success list")
    return problems


def census_problems(diff, baseline: dict, hardened: dict) -> list[str]:
    """The differential report must partition both campaigns' points.

    Per model: eliminated + surviving + unmapped equals the baseline's
    vulnerable points, and every post-hardening vulnerable address is
    claimed by exactly one surviving or introduced point, which
    together carry all of the hardened campaign's successes.
    """
    problems = []
    for model in diff.models:
        census = diff.counts(model=model)
        base_points = len(baseline[model].vulnerable_points())
        covered = (census["eliminated"] + census["surviving"]
                   + census["unmapped"])
        if covered != base_points:
            problems.append(
                f"{model}: census covers {covered} of {base_points} "
                f"baseline points")
        claimed = Counter()
        claimed_faults = 0
        for point in diff.points:
            if point.model == model and point.status in (
                    "surviving", "introduced"):
                claimed.update(point.rewritten_addresses)
                claimed_faults += point.hardened_faults
        wanted = Counter(hardened[model].vulnerable_addresses())
        if claimed != wanted:
            problems.append(
                f"{model}: hardened points claimed {dict(claimed)} "
                f"!= vulnerable {dict(wanted)}")
        if claimed_faults != len(hardened[model].successes):
            problems.append(
                f"{model}: census carries {claimed_faults} of "
                f"{len(hardened[model].successes)} hardened successes")
    return problems


class NativeReference:
    """Runs ELFs natively and compares grant/deny behaviour.

    ``skipped`` holds the reason when the host cannot execute the
    ELFs (not x86-64 Linux, a ``noexec`` work directory, ...); the
    check is then recorded as skipped rather than failed.
    """

    def __init__(self, workdir: pathlib.Path):
        self.workdir = workdir
        self.skipped: Optional[str] = None
        self._runs: dict[tuple[str, bytes], tuple[int, bytes]] = {}

    def _run(self, elf: bytes, stdin: bytes) -> tuple[int, bytes]:
        key = (sha(elf), stdin)
        if key not in self._runs:
            path = self.workdir / f"{key[0][:16]}.elf"
            if not path.exists():
                path.write_bytes(elf)
                os.chmod(path, 0o700)
            try:
                done = subprocess.run(
                    [str(path)], input=stdin, capture_output=True,
                    timeout=NATIVE_TIMEOUT_S, check=False)
            except subprocess.TimeoutExpired:
                self._runs[key] = (None, b"<timed out>")
            else:
                self._runs[key] = (done.returncode, done.stdout)
        return self._runs[key]

    def status(self) -> str:
        """What the result line says about the native check."""
        if self.skipped is not None:
            return f"skipped: {self.skipped}"
        if not self._runs:
            return "not applicable: no hardened ELF"
        return f"checked ({len(self._runs)} native runs)"

    def problems(self, original: bytes, hardened: bytes, good: bytes,
                 bad: bytes, marker: bytes, label: str) -> list[str]:
        """Empty when ``hardened`` behaves natively like ``original``."""
        if self.skipped is not None:
            return []
        try:
            want_good = self._run(original, good)
            want_bad = self._run(original, bad)
        except OSError as exc:
            self.skipped = f"host cannot execute the ELFs ({exc})"
            return []
        problems = []
        if marker not in want_good[1] or marker in want_bad[1]:
            problems.append(
                f"{label}: original does not grant/deny natively "
                f"(good={want_good}, bad={want_bad})")
        for name, stdin, want in (("good", good, want_good),
                                  ("bad", bad, want_bad)):
            got = self._run(hardened, stdin)
            if got != want:
                problems.append(
                    f"{label}: hardened ELF on the {name} input gives "
                    f"{got}, original gives {want}")
        return problems
