"""Benchmark what ``r2r`` users run, end to end and layer by layer.

Run from the root of a checkout::

    python3 perfbench/run.py --workload compare-bootloader --seed 3 \\
        --seconds 25 --trace 0

Human-readable lines come first; the last line of standard output is
one JSON object ``{"correct", "attempted", "failed", "metrics"}``.
``--trace 0`` reports the end-to-end metrics of ``BENCHMARK.json``,
``--trace 1`` the per-layer ones and writes a Chrome trace to
``perfbench/out/``.  The exit code is 1 when any output failed its
check and 2 when the program's source is not there to benchmark.

``--record-known-answers`` re-records ``perfbench/known_answers.json``
at the default seed.
"""

import time

STARTED = time.perf_counter()  # a set-up probe counts from here

import argparse  # noqa: E402
import json  # noqa: E402
import pathlib  # noqa: E402
import sys  # noqa: E402

ROOT = pathlib.Path(__file__).resolve().parent.parent


def _parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=10)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-probe", action="store_true",
                        help="only set the workload up and print the "
                        "seconds that took, imports included")
    parser.add_argument("--record-known-answers", action="store_true")
    return parser


def _record_known_answers(harness) -> None:
    answers = {}
    for name in harness.WORKLOADS:
        result = harness.measure(name, harness.DEFAULT_SEED, seconds=0,
                                 probes=1)
        if result["failed"]:
            raise SystemExit(f"{name}: {result['problems']}")
        answers[name] = result["answer"]
        print(f"recorded {name}", file=sys.stderr)
    harness.KNOWN_ANSWERS.write_text(json.dumps(
        {str(harness.DEFAULT_SEED): answers}, indent=1, sort_keys=True)
        + "\n")


def main(argv=None) -> int:
    args = _parser().parse_args(argv)
    if not (ROOT / "src" / "repro").is_dir():
        print(f"perfbench: no program source at {ROOT / 'src' / 'repro'}"
              "; run from the root of a full checkout", file=sys.stderr)
        return 2
    sys.path[:0] = [str(ROOT / "src"), str(ROOT)]
    from perfbench import harness

    if args.record_known_answers:
        _record_known_answers(harness)
        return 0
    if args.workload not in harness.WORKLOADS:
        print(f"perfbench: --workload must be one of "
              f"{sorted(harness.WORKLOADS)}", file=sys.stderr)
        return 2
    if args.setup_probe:
        print(harness.setup_probe(args.workload, args.seed, STARTED))
        return 0

    result = harness.measure(
        args.workload, args.seed, args.seconds, bool(args.trace),
        known=harness.load_known_answers())
    print(f"{args.workload} seed={args.seed} trace={args.trace} "
          f"native-check={result['native']}")
    for name, value, unit, note in result["table"]:
        print(f"  {name:<22} {value:>14.6g} {unit:<6} {note}")
    for key in ("op_seconds", "op_scaled_seconds"):
        print(f"  {key}: " + " ".join(f"{v:.4f}" for v in result[key]))
    for problem in result["problems"]:
        print(f"  FAILED: {problem}")
    if args.trace:
        chosen = harness.LAYER_METRICS
        values = result["layers"]
    else:
        chosen = harness.E2E_METRICS
        values = result["e2e"]
    correct = result["failed"] == 0
    print(json.dumps({
        "correct": correct,
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": {name: {"value": values[name], "unit": unit}
                    for name, unit, _ in chosen},
    }))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
