"""Command-line front end: protected runs, host calibration, model checking.

Exit codes are part of the interface (scripts branch on them):
0 match / safe, 2 output mismatch, 3 replica failure, 4 timeout,
5 diversity loss, 1 model counterexample found, 64 usage error,
65 model check too large, 69 progress counter unavailable,
70 other setup failure.
"""

from __future__ import annotations

import argparse
import sys

from . import monitor, sim
from .core import DiversityLossPolicy, MonitorConfig, VerdictKind
from .progress import CounterUnavailable, PinningFailure, SpawnFailure

EX_COUNTEREXAMPLE = 1
EX_USAGE = 64
EX_SEARCH_SPACE = 65
EX_UNAVAILABLE = 69
EX_SETUP = 70

_VERDICT_EXIT = {
    VerdictKind.MATCH: 0,
    VerdictKind.MISMATCH: 2,
    VerdictKind.REPLICA_FAILURE: 3,
    VerdictKind.TIMEOUT: 4,
    VerdictKind.DIVERSITY_LOSS: 5,
}


class _Parser(argparse.ArgumentParser):
    # argparse exits 2 on bad flags; the contract here reserves 64 for usage.
    def error(self, message):
        self.print_usage(sys.stderr)
        self.exit(EX_USAGE, f"{self.prog}: error: {message}\n")


def _build_parser() -> _Parser:
    parser = _Parser(
        prog="softlockstep",
        description="Run a computation twice with enforced instruction-count staggering.",
    )
    sub = parser.add_subparsers(dest="command", required=True, parser_class=_Parser)

    run = sub.add_parser("run", help="execute one protected run")
    run.add_argument("--workload", help="computation to protect, e.g. matmul:128, checksum:65536, spin:5000000")
    run.add_argument("--threshold", type=int, help="minimum staggering to enforce, in progress units")
    run.add_argument("--calibration-file", help="take threshold, counter and period from a calibration report")
    run.add_argument("--period-us", type=int, help="check period: microseconds, or ticks on the scripted backend (default 1000 us, 1 tick, or the report's; not longer than the report's)")
    run.add_argument("--timeout-ms", type=int, help="abort the run after this long")
    run.add_argument("--trace-out", help="write the staggering trace CSV here")
    run.add_argument("--inject", help="fault to inject: bitflip:ROLE:OUT:BYTE:BIT, freeze:ROLE:DUR, crash:ROLE")
    run.add_argument("--backend", default="process", help="'process' or 'scripted:FILE' with tick,head_delta,trail_delta rows")
    run.add_argument("--counter", choices=["auto", "instructions", "task-clock"], help="process backend: progress counter kind (default auto)")
    run.add_argument("--cores", help="pin replicas (and monitor) to cores: HEAD,TRAIL[,MONITOR]")
    run.add_argument("--seed", type=int, help="process backend: workload input generation seed (default 0)")
    run.add_argument("--on-diversity-loss", default="record", choices=["record", "abort"], help="what to do when staggering goes negative")
    run.add_argument("--scripted-latency", type=int, help="scripted backend: suspension latency in ticks (default 0)")

    cal = sub.add_parser("calibrate", help="measure this host and recommend a threshold")
    cal.add_argument("--period-us", type=int, default=1000, help="check period the threshold is for")
    cal.add_argument("--margin", type=float, default=2.0, help="safety margin multiplier (>= 1)")
    cal.add_argument("--duration-ms", type=int, help="process backend: length of the measured run (default 300)")
    cal.add_argument("--counter", choices=["auto", "instructions", "task-clock"], help="process backend: progress counter kind (default auto)")
    cal.add_argument("--backend", default="process", help="'process' or 'scripted:FILE' for exact, privilege-free calibration")
    cal.add_argument("--scripted-latency", type=int, help="scripted backend: suspension latency in ticks (default 0)")
    cal.add_argument("--out", help="also write the report to this file")

    check = sub.add_parser("simulate", help="check the staggering model over every schedule of a rate alphabet")
    check.add_argument("--alphabet", required=True, help="comma-separated per-tick rates, e.g. 0,1,2")
    check.add_argument("--ticks", type=int, required=True, help="schedule length in ticks")
    check.add_argument("--period", type=int, default=1, help="ticks per monitor check")
    check.add_argument("--latency", type=int, default=0, help="suspension latency in ticks")
    check.add_argument("--threshold", type=int, required=True, help="staggering threshold to verify")
    check.add_argument("--counterexample-out", help="write a found counterexample schedule CSV here")

    return parser


def _parse_cores(text: str) -> tuple[int, int, int | None]:
    parts = [p.strip() for p in text.split(",")]
    if len(parts) not in (2, 3):
        raise ValueError("--cores needs HEAD,TRAIL or HEAD,TRAIL,MONITOR")
    values = [int(p) for p in parts]
    return values[0], values[1], values[2] if len(values) == 3 else None


def _refuse_flags(args, flags, backend: str) -> None:
    """A flag the chosen backend would ignore is a usage error, not a no-op."""
    for flag in flags:
        if getattr(args, flag[2:].replace("-", "_"), None) is not None:
            raise ValueError(f"{flag} applies only to the {backend}")


def _read_schedule(args, period_ticks: int):
    """The schedule of a scripted:FILE backend, at period_ticks and the given or default latency."""
    from .formats import read_schedule_csv

    path = args.backend.partition(":")[2]
    if not path:
        raise ValueError("scripted backend needs a file: --backend scripted:FILE")
    with open(path) as f:
        return read_schedule_csv(
            f,
            period_ticks=period_ticks,
            suspend_latency_ticks=0 if args.scripted_latency is None else args.scripted_latency,
        )


def _run_config(args, threshold: int, period: int) -> MonitorConfig:
    head_core = trail_core = monitor_core = None
    if args.cores:
        head_core, trail_core, monitor_core = _parse_cores(args.cores)
    policy = (
        DiversityLossPolicy.ABORT_RUN
        if args.on_diversity_loss == "abort"
        else DiversityLossPolicy.RECORD_AND_CONTINUE
    )
    return MonitorConfig(
        threshold_instructions=threshold,
        check_period_us=period,
        diversity_loss_policy=policy,
        run_timeout_us=args.timeout_ms * 1000 if args.timeout_ms is not None else None,
        head_core=head_core,
        trail_core=trail_core,
        monitor_core=monitor_core,
    )


def _resolve_threshold(args, scripted: bool) -> tuple[int, str, int]:
    """Threshold, counter kind and check period, honoring a calibration report if given."""
    if args.threshold is not None and args.calibration_file:
        raise ValueError("give either --threshold or --calibration-file, not both")
    threshold, counter, period = args.threshold, args.counter or "auto", 1 if scripted else 1000
    if args.calibration_file:
        from . import calibration

        report = calibration.read_report(args.calibration_file)
        # A threshold holds only in the units it was measured in and at no
        # longer a period; the report's counter is adopted unless overridden.
        if report.counter == "scripted" and not scripted:
            raise ValueError(f"{args.calibration_file} came from the scripted backend: its "
                             "threshold is in scripted units, not a process counter's")
        if report.counter != "scripted" and scripted:
            raise ValueError(f"{args.calibration_file} came from the {report.counter} counter: "
                             "its threshold is in that counter's units, not scripted ones")
        threshold, period = report.recommended_threshold, report.check_period_us
        counter = report.counter if args.counter in (None, "auto") else args.counter
        if args.period_us is not None and args.period_us > period:
            raise ValueError(f"--period-us {args.period_us} is longer than the {period} that "
                             f"the threshold in {args.calibration_file} was measured at")
    elif threshold is None:
        raise ValueError("a threshold is required: --threshold N or --calibration-file FILE")
    return threshold, counter, period if args.period_us is None else args.period_us


def _cmd_run(args) -> int:
    from .formats import parse_fault_spec, parse_workload_id, write_trace

    scripted = args.backend.startswith("scripted:")
    if not scripted and args.backend != "process":
        raise ValueError(f"unknown backend {args.backend!r} (expected process or scripted:FILE)")
    threshold, counter, period = _resolve_threshold(args, scripted)
    if scripted:
        _refuse_flags(args, ("--seed", "--counter"), "process backend")
        if args.workload:
            raise ValueError("the scripted backend replays a schedule; it takes no --workload")
        if args.inject:
            raise ValueError("fault injection needs real replicas (process backend)")
        if args.cores is not None:
            raise ValueError("--cores pins real replicas (process backend)")
        # One tick is 1 us: the schedule is checked every period ticks.
        verdict, trace = monitor.run_scripted(_read_schedule(args, period),
                                              _run_config(args, threshold, period))
    else:
        _refuse_flags(args, ("--scripted-latency",), "scripted backend (scripted:FILE)")
        if not args.workload:
            raise ValueError("the process backend needs --workload")
        workload = parse_workload_id(args.workload, seed=0 if args.seed is None else args.seed)
        config = _run_config(args, threshold, period)
        fault = parse_fault_spec(args.inject) if args.inject else None
        outputs = [bytearray(size) for size in workload.payload.output_sizes]
        verdict, trace = monitor.protect(
            workload.computation,
            workload.payload.inputs,
            workload.payload.input_sizes,
            outputs,
            workload.payload.output_sizes,
            config,
            counter=counter,
            inject=fault,
        )

    if args.trace_out:
        write_trace(trace, args.trace_out)
    print(verdict.describe())
    floor = trace.staggering_floor()
    print("staggering floor:", "none (fewer than two checks before HEAD_DONE)" if floor is None else floor)
    if verdict.kind is VerdictKind.REPLICA_FAILURE and verdict.detail.strip():
        # The last line of a traceback names the exception and its message.
        print(verdict.detail.strip().splitlines()[-1], file=sys.stderr)
    return _VERDICT_EXIT[verdict.kind]


def _cmd_calibrate(args) -> int:
    from . import calibration

    if args.backend == "process":
        _refuse_flags(args, ("--scripted-latency",), "scripted backend (scripted:FILE)")
        report = calibration.calibrate(
            check_period_us=args.period_us,
            safety_margin=args.margin,
            duration_us=(300 if args.duration_ms is None else args.duration_ms) * 1000,
            counter=args.counter or "auto",
        )
    elif args.backend.startswith("scripted:"):
        _refuse_flags(args, ("--duration-ms", "--counter"), "process backend")
        # One tick is 1 us: the schedule is checked every --period-us ticks.
        report = calibration.calibrate_scripted(_read_schedule(args, args.period_us),
                                                safety_margin=args.margin)
    else:
        raise ValueError(f"unknown backend {args.backend!r} (expected process or scripted:FILE)")
    calibration.write_report(report, sys.stdout)
    if args.out:
        calibration.write_report(report, args.out)
    return 0


def _cmd_simulate(args) -> int:
    alphabet = [int(p) for p in args.alphabet.split(",") if p.strip() != ""]
    result = sim.exhaustive_check(
        alphabet,
        ticks=args.ticks,
        period_ticks=args.period,
        suspend_latency_ticks=args.latency,
        threshold=args.threshold,
    )
    if result.safe:
        print(f"safe: no schedule out of {result.schedules_checked} drives staggering negative")
        return 0
    ce = result.counterexample
    trace = sim.simulate(ce, args.threshold)
    print(
        f"unsafe: schedule {result.schedules_checked} reaches staggering "
        f"{sim.min_staggering(trace)} (threshold {args.threshold})"
    )
    if args.counterexample_out:
        from .formats import write_schedule_csv

        with open(args.counterexample_out, "w") as f:
            write_schedule_csv(ce, f)
        print(f"counterexample written to {args.counterexample_out}")
    return EX_COUNTEREXAMPLE


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        if args.command == "run":
            return _cmd_run(args)
        if args.command == "calibrate":
            return _cmd_calibrate(args)
        return _cmd_simulate(args)
    except sim.SearchSpaceTooLarge as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EX_SEARCH_SPACE
    except CounterUnavailable as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EX_UNAVAILABLE
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EX_USAGE
    except (SpawnFailure, PinningFailure, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EX_SETUP


if __name__ == "__main__":
    sys.exit(main())
