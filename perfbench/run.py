"""The softlockstep benchmark: what a protected run costs, end to end and per layer.

Usage:
  python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
  python3 perfbench/run.py [--seed N] [--seconds S] [--trace 0|1]   # all workloads
  python3 perfbench/run.py --self-test

Each workload is a closed loop: this one process runs operations back to
back, and each protect() forks a head and a trail. --trace 0 reports the
end-to-end metrics of BENCHMARK.json; --trace 1 spends half the time untraced
and half with spans recorded around the library's public functions, and
reports the per-layer metrics. Every operation passes the correctness gate in
cases.py or counts as failed. The last line of standard output is one JSON
object; a result file with the host facts, and for traced runs the spans, go
to perfbench/out/. The exit code is nonzero when any operation failed or the
library cannot be imported from this checkout's src/.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
HERE = os.path.join(ROOT, "perfbench")
OUT = os.path.join(HERE, "out")

BASELINE_SEED = 0
DEFAULT_SECONDS = 22
# set-up runs: at least SETUP_MIN, more while they fit in SETUP_BUDGET_S.
SETUP_MIN = 3
SETUP_MAX = 9
SETUP_BUDGET_S = 3.0
# Operations per measured phase, however slow they are.
MIN_OPS = 3
# In-process reference calls after each op: at most REF_CALLS_PER_OP, and
# together at most DIRECT_SHARE of the measured time.
REF_CALLS_PER_OP = 5
DIRECT_SHARE = 0.35
MEMCPY_BYTES = 16 << 20
# Printed beside the BENCHMARK.json metrics, without a bound. The absolute times
# swing with the host's CPU speed from run to run, and slowdown_x with the
# scheduling delay that other tenants' load adds to protect(), so the bounded
# cost metric is cpu_slowdown_x.
ALSO_REPORTED = {"slowdown_x": "x", "op_ms_p50": "ms", "op_ms_tail": "ms", "ops_per_s": "1/s",
                 "cpu_ms_per_op": "ms"}


def cpu_seconds() -> float:
    own = resource.getrusage(resource.RUSAGE_SELF)
    reaped = resource.getrusage(resource.RUSAGE_CHILDREN)
    return own.ru_utime + own.ru_stime + reaped.ru_utime + reaped.ru_stime


def read_text(path: str, default: str = "unknown") -> str:
    try:
        with open(path) as f:
            return f.read()
    except OSError:
        return default


def memcpy_ms() -> float:
    src = bytearray(os.urandom(4096)) * (MEMCPY_BYTES // 4096)
    dst = bytearray(MEMCPY_BYTES)
    times = []
    for _ in range(9):
        start = time.perf_counter()
        dst[:] = src
        times.append((time.perf_counter() - start) * 1e3)
    return statistics.median(times)


def host_facts() -> dict:
    import numpy
    from softlockstep import linuxperf
    from softlockstep.progress import CounterUnavailable

    try:
        linuxperf.probe_counter(linuxperf.COUNTER_INSTRUCTIONS)
        pmu = True
    except CounterUnavailable:
        pmu = False
    models = [line.split(":", 1)[1].strip() for line in read_text("/proc/cpuinfo", "").splitlines()
              if line.startswith("model name")]
    return {
        "nproc": os.cpu_count(),
        "cpu_model": models[0] if models else platform.processor() or "unknown",
        "counter": linuxperf.probe_counter(linuxperf.COUNTER_AUTO),
        "perf_event_paranoid": read_text("/proc/sys/kernel/perf_event_paranoid").strip(),
        "pmu": pmu,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "memcpy_ms": memcpy_ms(),
    }


def setup_times(workload: str, seed: int, quick: bool) -> tuple[list[float], list[str]]:
    times, problems = [], []
    start = time.perf_counter()
    runs = 0
    while runs < (1 if quick else SETUP_MIN) or (
        not quick and runs < SETUP_MAX and time.perf_counter() - start < SETUP_BUDGET_S
    ):
        runs += 1
        proc = subprocess.run(
            [sys.executable, os.path.join(HERE, "setup_probe.py"), workload, str(seed)],
            capture_output=True, text=True, timeout=120,
        )
        try:
            report = json.loads(proc.stdout.strip().splitlines()[-1])
        except (IndexError, ValueError):
            problems.append(f"setup probe exited {proc.returncode}: {proc.stderr.strip()[-500:]}")
            continue
        if report["problems"]:
            problems.append("cold op: " + "; ".join(report["problems"]))
        else:
            times.append(report["setup_s"])
    return times, problems


def leaks(baseline_fds: int) -> int:
    """Unreaped children plus file descriptors above the baseline."""
    children = 0
    try:
        while True:
            pid, _ = os.waitpid(-1, os.WNOHANG)
            children += 1
            if pid == 0:
                break
    except ChildProcessError:
        pass
    return children + max(0, len(os.listdir("/proc/self/fd")) - baseline_fds)


class Loop:
    """Closed loop: operations back to back, each gated for correctness.

    In-process reference calls follow each op, so that slowdown_x compares
    each op with reference calls made under the same host conditions.
    """

    def __init__(self, case):
        self.case = case
        self.attempted = 0
        self.failed = 0
        self.problems: list[str] = []
        self.direct_ms: list[float] = []

    def gate(self, problems: list[str]) -> None:
        self.attempted += 1
        if problems:
            self.failed += 1
            self.problems.extend(f"op {self.attempted}: {p}" for p in problems)

    def run(self, seconds: float, min_ops: int, tracer=None):
        """Returns (op wall ms, op CPU ms, reference ms, traces of passing traced ops).

        The three lists hold one entry per passing op; an op's reference is
        the median of the reference calls made right after it (or of the
        latest ones, when the reference share of the time is used up).
        """
        times: list[float] = []
        cpus: list[float] = []
        refs: list[float] = []
        traces = {}
        direct_s = 0.0
        ref = None
        run = self.case.run if tracer is None else tracer.wrap_op(self.case.run)
        start = time.perf_counter()
        ops = 0
        while True:
            elapsed = time.perf_counter() - start
            if elapsed >= seconds and ops >= min_ops or elapsed >= seconds + 60:
                break
            self.case.reset()
            op_id = self.attempted
            if tracer is not None:
                tracer.op_id = op_id
            cpu_start = cpu_seconds()
            op_start = time.perf_counter()
            try:
                result = run()
            except Exception as exc:
                problems = [f"raised {exc!r}"]
            else:
                op_s = time.perf_counter() - op_start
                op_cpu = cpu_seconds() - cpu_start
                problems = self.case.check(result)
            ops += 1
            self.gate(problems)
            block: list[float] = []
            while len(block) < REF_CALLS_PER_OP and (
                direct_s < DIRECT_SHARE * (time.perf_counter() - start) or ref is None and not block
            ):
                direct_start = time.perf_counter()
                self.case.direct()
                took = time.perf_counter() - direct_start
                direct_s += took
                block.append(took * 1e3)
            if block:
                self.direct_ms += block
                ref = statistics.median(block)
            if not problems:
                times.append(op_s * 1e3)
                cpus.append(op_cpu * 1e3)
                refs.append(ref)
                if tracer is not None and self.case.protected:
                    traces[op_id] = result[1]
        return times, cpus, refs, traces


def paired_median(values: list[float], refs: list[float]) -> float:
    """Median over ops of each op's value divided by its own reference."""
    return statistics.median(v / r for v, r in zip(values, refs)) if values else float("nan")


def tail(times: list[float]) -> tuple[float, float, int]:
    """The highest percentile with at least ten samples beyond it (nearest rank).

    Returns (value, percentile, samples beyond); with ten or fewer samples
    no percentile qualifies and the maximum is returned.
    """
    ordered = sorted(times)
    rank = len(ordered) - 10 if len(ordered) > 10 else len(ordered)
    return ordered[rank - 1], 100.0 * rank / len(ordered), len(ordered) - rank


def run_workload(args) -> int:
    import cases
    import spans

    spec = load_spec()
    case = cases.build(args.workload, args.seed)
    facts = host_facts()
    loop = Loop(case)

    if args.trace == 0:
        setups, problems = setup_times(args.workload, args.seed, args.quick)
        loop.attempted += len(setups) + len(problems)
        loop.failed += len(problems)
        loop.problems += problems
    baseline_fds = len(os.listdir("/proc/self/fd"))
    case.reset()
    try:  # warm-up: the first op in a process pays lazy set-up; gated, not timed
        loop.gate(case.check(case.run()))
    except Exception as exc:
        loop.gate([f"warm-up raised {exc!r}"])

    if args.trace == 0:
        times, cpus, refs, _ = loop.run(args.seconds, MIN_OPS)
        nan = float("nan")
        p50 = statistics.median(times) if times else nan
        tail_ms, tail_pct, beyond = tail(times) if times else (nan, 0.0, 0)
        metrics = {
            "setup_s": statistics.median(setups) if setups else nan,
            "op_ms_p50": p50,
            "op_ms_tail": tail_ms,
            "ops_per_s": len(times) / (sum(times) / 1e3) if times else nan,
            "slowdown_x": paired_median(times, refs),
            "cpu_ms_per_op": statistics.mean(cpus) if cpus else nan,
            "cpu_slowdown_x": paired_median(cpus, refs),
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        }
        info = {"op_samples": len(times), "tail_percentile": tail_pct,
                "tail_samples_beyond": beyond, "setup_runs": len(setups),
                "direct_samples": len(loop.direct_ms)}
        samples = {"op_ms": times, "op_cpu_ms": cpus, "op_ref_ms": refs,
                   "direct_ms": loop.direct_ms, "setup_s": setups}
    else:
        untraced, _, _, _ = loop.run(args.seconds / 2, MIN_OPS)
        # The layers this workload does not reach are measured on one side
        # operation, so that every per-layer metric is a measurement: a
        # checksum:65536 protect() beside model-check, a model-check pair
        # beside the others.
        side = cases.build("model-check", args.seed) if case.protected else cases.small_case(args.seed)
        tracer = spans.Tracer()
        tracer.install()
        try:
            traced, _, _, traces = loop.run(args.seconds / 2, MIN_OPS, tracer)
            side.reset()
            tracer.op_id = side_id = loop.attempted
            try:
                result = tracer.wrap_op(side.run)()
            except Exception as exc:
                loop.gate([f"side operation raised {exc!r}"])
            else:
                problems = side.check(result)
                if not problems and side.protected:
                    traces[side_id] = result[1]
                loop.gate(problems)
        finally:
            tracer.uninstall()
        os.makedirs(OUT, exist_ok=True)
        spans_path = os.path.join(OUT, f"spans-{args.workload}-seed{args.seed}.jsonl")
        tracer.write(spans_path)
        nesting = spans.nesting_problems(tracer.spans)
        if nesting:
            loop.problems += nesting[:10]
            loop.failed += 1
        space = len(cases.MODEL_ALPHABET) ** (2 * cases.MODEL_TICKS)
        output_bytes = case.output_bytes if case.protected else side.output_bytes
        metrics = spans.layer_metrics(tracer.spans, traces, output_bytes,
                                      cases.CHECK_PERIOD_US, space)
        metrics["workloads.direct_ms"] = statistics.median(loop.direct_ms)
        metrics["trace.overhead_ms"] = statistics.median(traced) - statistics.median(untraced)
        info = {"untraced_samples": len(untraced), "traced_samples": len(traced),
                "spans": len(tracer.spans), "spans_file": os.path.relpath(spans_path, ROOT)}
        samples = {"untraced_ms": untraced, "traced_ms": traced, "direct_ms": loop.direct_ms}
    leaked = leaks(baseline_fds)
    if leaked:
        loop.gate([f"{leaked} leaked child processes or file descriptors"])
    metrics["host.memcpy_ms"] = facts["memcpy_ms"]
    metrics["replication.leaked_fds"] = leaked

    kind = "end_to_end" if args.trace == 0 else "per_layer"
    units = {m["name"]: m["unit"] for m in spec[kind]}
    emitted = {name: {"value": metrics[name], "unit": unit} for name, unit in units.items()}
    also = {name: {"value": metrics[name], "unit": unit}
            for name, unit in ALSO_REPORTED.items() if name in metrics}
    fail_share = loop.failed / loop.attempted
    report = {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "why": next(w["why"] for w in spec["workloads"]
                                         if w["name"] == args.workload),
        "config": cases.config_facts(),
        "host": facts, "attempted": loop.attempted, "failed": loop.failed,
        "fail_share": fail_share, "problems": loop.problems, "info": info,
        "metrics": emitted, "also_reported": also, "samples": samples,
    }
    os.makedirs(OUT, exist_ok=True)
    with open(os.path.join(OUT, f"{args.workload}-seed{args.seed}-trace{args.trace}.json"), "w") as f:
        json.dump(report, f, indent=2)

    print(f"workload {args.workload} seed {args.seed} trace {args.trace}: closed loop, one caller; "
          f"threshold {cases.THRESHOLD}, period {cases.CHECK_PERIOD_US} us, counter {cases.COUNTER}")
    print("host " + " ".join(f"{k}={v}" for k, v in facts.items()))
    for name, entry in emitted.items():
        print(f"  {name:<28} {entry['value']:>16.6f} {entry['unit']}")
    for name, entry in also.items():
        print(f"  {name:<28} {entry['value']:>16.6f} {entry['unit']} (reported, not bounded)")
    print(f"  {'fail_share':<28} {fail_share:>16.6f} share ({loop.failed} of {loop.attempted})")
    print("  " + " ".join(f"{k}={v}" for k, v in info.items()))
    for problem in loop.problems[:20]:
        print(f"  FAILED {problem}")
    print(json.dumps({"correct": loop.failed == 0, "attempted": loop.attempted,
                      "failed": loop.failed, "metrics": emitted}))
    return 0 if loop.failed == 0 else 1


def load_spec() -> dict:
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        return json.load(f)


def run_all(args) -> int:
    """Each workload in its own process, so peak_rss_mb is its own."""
    import cases

    total = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for name in cases.NAMES:
        proc = subprocess.run(
            [sys.executable, os.path.abspath(__file__), "--workload", name, "--seed", str(args.seed),
             "--seconds", str(args.seconds), "--trace", str(args.trace)],
            capture_output=True, text=True,
        )
        lines = proc.stdout.strip().splitlines()
        print("\n".join(lines[:-1]), flush=True)
        sys.stderr.write(proc.stderr)
        try:
            result = json.loads(lines[-1])
        except (IndexError, ValueError):
            result = {"correct": False, "attempted": 1, "failed": 1, "metrics": {}}
        total["correct"] &= result["correct"] and proc.returncode == 0
        total["attempted"] += result["attempted"]
        total["failed"] += result["failed"]
        for metric, entry in result["metrics"].items():
            total["metrics"][f"{name}/{metric}"] = entry
    print(json.dumps(total))
    return 0 if total["correct"] else 1


def self_test(args) -> int:
    """A few operations per workload: every metric named with a unit, spans nested.

    Failed operations are the correctness gate's finding about the library,
    not about the benchmark: they are listed but do not fail the self-test.
    """
    import cases
    import spans

    spec = load_spec()
    failures = []
    for name in cases.NAMES:
        for trace in (0, 1):
            proc = subprocess.run(
                [sys.executable, os.path.abspath(__file__), "--workload", name, "--seed", "0",
                 "--seconds", "1", "--trace", str(trace), "--quick"],
                capture_output=True, text=True,
            )
            label = f"{name} trace {trace}"
            found = []
            try:
                result = json.loads(proc.stdout.strip().splitlines()[-1])
            except (IndexError, ValueError):
                failures.append(f"{label}: no result line (exit {proc.returncode}) {proc.stderr[-500:]}")
                continue
            kind = "end_to_end" if trace == 0 else "per_layer"
            for metric in spec[kind]:
                entry = result["metrics"].get(metric["name"])
                if not entry or entry.get("unit") != metric["unit"] \
                        or not isinstance(entry.get("value"), (int, float)):
                    found.append(f"{label}: {metric['name']} missing or without its unit")
            if trace == 1:
                with open(os.path.join(OUT, f"spans-{name}-seed0.jsonl")) as f:
                    rows = [json.loads(line) for line in f]
                recorded = [[r["name"], r["start_ns"], r["end_ns"], r["parent"], r["op"]] for r in rows]
                found += [f"{label}: {p}" for p in spans.nesting_problems(recorded)[:5]]
            failures += found
            note = f", {result['failed']} of {result['attempted']} ops failed the gate" \
                if result["failed"] else ""
            print(f"self-test {label}: {'ok' if not found else 'FAILED'}{note}", flush=True)
    for failure in failures:
        print(f"FAILED {failure}")
    print(f"self-test {'passed' if not failures else 'failed'}: {len(failures)} problems")
    return 0 if not failures else 1


def import_library() -> None:
    """Import softlockstep from this checkout's src/ and nowhere else."""
    src = os.path.join(ROOT, "src")
    sys.path.insert(0, src)
    sys.path.insert(0, HERE)
    try:
        import softlockstep
    except ImportError as exc:
        raise SystemExit(f"cannot import softlockstep from {src}: {exc}") from None
    if not os.path.abspath(softlockstep.__file__).startswith(src + os.sep):
        raise SystemExit(f"softlockstep came from {softlockstep.__file__}, not {src}")


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload")
    parser.add_argument("--seed", type=int, default=BASELINE_SEED)
    parser.add_argument("--seconds", type=float, default=DEFAULT_SECONDS)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--quick", action="store_true", help="one set-up run (self-test)")
    parser.add_argument("--self-test", action="store_true")
    args = parser.parse_args()
    # One caller plus a head and a trail: keep numpy's BLAS pool from adding threads.
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[var] = "1"
    import_library()
    if args.self_test:
        return self_test(args)
    if args.workload is None:
        return run_all(args)
    return run_workload(args)


if __name__ == "__main__":
    sys.exit(main())
