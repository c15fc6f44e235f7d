"""End-to-end AdaFL benchmark with outside-in per-layer attribution.

Usage (from the repository root)::

    python3 perfbench/run.py --workload adafl_constrained --seed 0 \
        --seconds 30 --trace 0

Runs complete federations of the chosen workload (see ``workloads.py``)
back to back from a fresh set-up each, until ``--seconds`` of
measurement have passed (always at least one).  Every operation's
deterministic outputs must equal the first one's (for ``adafl_tcp``:
the in-memory run of the same spec); an operation that raises or
differs counts as failed.

``--trace 0`` reports the end-to-end metrics.  ``--trace 1`` first runs
one untraced operation, then traced ones, and reports the per-layer
metrics (median over traced operations) — see ``layers.py``.

The last line of standard output is the JSON result; the host
fingerprint, per-operation details and (traced) spans are written to
``perfbench/out/``.
"""

from __future__ import annotations

import argparse
import gc
import json
import math
import resource
import statistics
import sys
import time
import traceback
from pathlib import Path

ROOT_DIR = Path(__file__).resolve().parent.parent
OUT_DIR = Path(__file__).resolve().parent / "out"

# Extra set-ups before the measured window (warm-up, and samples for a
# steady median ``setup_s``): at least the minimum, then more while the
# budget lasts — cheap in-memory set-ups get many, socket ones few.
SETUP_MIN, SETUP_MAX, SETUP_BUDGET_S = 3, 25, 2.0
# A run whose final accuracy is this low is not a working federation
# (chance is 0.1 on the 10-class MNIST stand-in).
MIN_ACCURACY = 0.5
TAIL_BEYOND = 10  # samples that must lie beyond the tail percentile

END_TO_END_UNITS = {
    "updates_per_s": "1/s",
    "round_ms_p50": "ms",
    "round_ms_tail": "ms",
    "setup_s": "s",
    "peak_rss_mb": "MB",
    "final_accuracy": "fraction",
    "uplink_mb": "MB",
    "sim_time_s": "sim_s",
}


def parse_args(argv: list[str]) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = parser.parse_args(argv)
    if args.seed < 0:
        parser.error("--seed must be non-negative")
    if args.seconds < 1:
        parser.error("--seconds must be at least 1")
    return args


def tail(samples: list[float]) -> tuple[float, float]:
    """(value, percentile) of the highest percentile with at least
    ``TAIL_BEYOND`` samples beyond it (the maximum for tiny samples)."""
    ordered = sorted(samples)
    n = len(ordered)
    rank = max(0, n - TAIL_BEYOND - 1)
    return ordered[rank], 100.0 * (rank + 1) / n


def peak_rss_mb() -> tuple[float, float]:
    """Peak RSS of this process and of its largest reaped child (worker
    processes), in MB (``ru_maxrss`` is in KiB on Linux)."""
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    children = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return own / 1024.0, children / 1024.0


def end_to_end(ops, setups: list[float], rss: tuple[float, float]) -> tuple[dict, dict]:
    rounds = [s for op in ops for s in op.round_s]
    tail_s, tail_pct = tail(rounds)
    first = ops[0]
    rss_self, rss_children = rss
    values = {
        "updates_per_s": statistics.median(op.updates / op.loop_s for op in ops),
        "round_ms_p50": statistics.median(rounds) * 1e3,
        "round_ms_tail": tail_s * 1e3,
        "setup_s": statistics.median(setups),
        "peak_rss_mb": max(rss_self, rss_children),
        "final_accuracy": first.final_accuracy,
        "uplink_mb": first.uplink_mb,
        "sim_time_s": first.sim_time_s,
    }
    details = {
        "round_ms_tail_percentile": tail_pct,
        "round_samples": len(rounds),
        "setup_samples": len(setups),
        "rss_self_mb": rss_self,
        "rss_children_mb": rss_children,
    }
    return values, details


def per_layer(ops) -> dict:
    names = ops[0].layer.keys()
    return {name: statistics.median(op.layer[name] for op in ops) for name in names}


def main(argv: list[str] | None = None) -> int:
    args = parse_args(sys.argv[1:] if argv is None else argv)
    src = ROOT_DIR / "src"
    if not (src / "repro" / "__init__.py").is_file():
        print(f"error: no program sources under {src}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(src))

    import hostinfo
    import layers
    import workloads

    workload = workloads.WORKLOADS.get(args.workload)
    if workload is None:
        known = ", ".join(workloads.WORKLOADS)
        print(f"error: unknown workload {args.workload!r}; known: {known}", file=sys.stderr)
        return 2

    host = hostinfo.fingerprint(ROOT_DIR)
    print("# host " + json.dumps(host, sort_keys=True))
    spec = workloads.spec_for(workload, args.seed)

    setups: list[float] = []
    started = time.perf_counter()
    while len(setups) < SETUP_MIN or (
        len(setups) < SETUP_MAX and time.perf_counter() - started < SETUP_BUDGET_S
    ):
        setups.append(workloads.setup_only(workload, spec))
        gc.collect()

    attempted = failed = 0
    problems: list[str] = []
    ops: list = []
    traced_spans: list[list] = []
    untraced = None

    reference = None  # the first operation's outputs

    def attempt(traced: bool = False):
        """One operation, checked against the first one's outputs."""
        nonlocal attempted, failed, reference
        attempted += 1
        # Start every operation from a collected heap, so that one
        # operation's cyclic garbage does not add to the next one's peak.
        gc.collect()
        try:
            if traced:
                op, tracer = workloads.run_traced_op(workload, spec, untraced.loop_s)
                traced_spans.append(tracer.spans)
            else:
                op = workloads.run_op(workload, spec)
        except Exception:  # noqa: BLE001 - a raising run is a counted failure
            failed += 1
            problems.append(traceback.format_exc())
            return None
        if reference is None:
            reference = op.signature
        if op.signature != reference:
            failed += 1
            problems.append(f"operation {attempted}: outputs differ from the reference")
            return None
        if traced and ops and layers.counts(op.layer) != layers.counts(ops[0].layer):
            failed += 1
            problems.append(f"operation {attempted}: per-layer counts differ")
            return None
        return op

    window = time.perf_counter()
    # A traced run's overhead is measured against one untraced operation;
    # without it the traced operations cannot be reduced.
    untraced = attempt() if args.trace else None
    while not args.trace or untraced is not None:
        op = attempt(traced=bool(args.trace))
        if op is not None:
            ops.append(op)
        if time.perf_counter() - window >= args.seconds:
            break
    # Read before the in-memory reference run, whose memory is not the
    # workload's.
    rss_self, rss_children = peak_rss_mb()
    expected = workloads.reference_signature(workload, spec)
    if expected is not None and reference not in (None, expected):
        failed = attempted  # every completed operation equals the first
        problems.append("outputs differ from the in-memory run of the same spec")

    for problem in problems:
        print(problem, file=sys.stderr)
    if not ops:
        print("error: no operation completed", file=sys.stderr)
        return 1

    details: dict = {}
    if args.trace:
        metrics = per_layer(ops)
        units = layers.PER_LAYER_UNITS
    else:
        metrics, details = end_to_end(
            ops, setups + [op.setup_s for op in ops], (rss_self, rss_children)
        )
        units = END_TO_END_UNITS
    finite = all(math.isfinite(v) for v in metrics.values())
    correct = failed == 0 and finite and ops[0].final_accuracy >= MIN_ACCURACY

    OUT_DIR.mkdir(exist_ok=True)
    stem = f"{workload.name}-seed{args.seed}-trace{args.trace}"
    report = {
        "workload": workload.name,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "host": host,
        "setup_s": setups,
        "operations": [
            {
                "setup_s": op.setup_s,
                "loop_s": op.loop_s,
                "rounds": len(op.round_s),
                "updates": op.updates,
                "layer": op.layer,
            }
            for op in ops
        ],
        "details": details,
        "metrics": metrics,
        "problems": problems,
    }
    (OUT_DIR / f"{stem}.json").write_text(json.dumps(report, indent=2, sort_keys=True))
    if args.trace:
        with (OUT_DIR / f"{stem}.spans.jsonl").open("w") as fh:
            for index, spans in enumerate(traced_spans):
                for s in spans:
                    fh.write(json.dumps({"op": index, **layers.span_record(s)}) + "\n")

    for name, value in details.items():
        print(f"# {name} {value}")
    result = {
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": {
            name: {"value": float(value), "unit": units[name]}
            for name, value in metrics.items()
            if math.isfinite(value)
        },
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
