"""CLI surface: exit codes, file round trips, scripted determinism."""

import errno
import importlib
import io
import os
import shutil
import subprocess
import sys

import pytest

from softlockstep import cli, formats, linuxperf, monitor, replication
from softlockstep.calibration import read_report, recommend_threshold, write_report, CalibrationReport
from softlockstep.cli import _VERDICT_EXIT, main
from softlockstep.core import PayloadSpec, VerdictKind
from softlockstep.formats import read_schedule_csv, read_trace, write_schedule_csv
from softlockstep.progress import CounterUnavailable
from softlockstep.sim import Schedule, simulate
from softlockstep.workloads import Workload, checksum_workload, matmul_workload, spin_workload

try:
    linuxperf.probe_counter("auto")
    _counter_reason = ""
except CounterUnavailable as exc:
    _counter_reason = str(exc)

requires_counter = pytest.mark.skipif(
    bool(_counter_reason), reason=f"no progress counter: {_counter_reason}"
)


def schedule_file(tmp_path, schedule, name="schedule.csv"):
    path = tmp_path / name
    with open(path, "w") as f:
        write_schedule_csv(schedule, f)
    return str(path)


STEADY = Schedule.of([100] * 8, [100] * 8)
OVERTAKE = Schedule.of([5, 0, 0, 0, 5, 5], [0, 3, 3, 0, 0, 0])


def test_every_verdict_kind_has_an_exit_code():
    assert set(_VERDICT_EXIT) == set(VerdictKind)
    assert len(set(_VERDICT_EXIT.values())) == len(_VERDICT_EXIT)


# ------------------------------------------------------------ run (scripted)

def test_scripted_run_match_exits_zero(tmp_path, capsys):
    path = schedule_file(tmp_path, STEADY)
    code = main(["run", "--backend", f"scripted:{path}", "--threshold", "150"])
    assert code == 0
    assert "MATCH" in capsys.readouterr().out


def test_scripted_overtake_with_abort_exits_five(tmp_path, capsys):
    path = schedule_file(tmp_path, OVERTAKE)
    code = main(["run", "--backend", f"scripted:{path}", "--threshold", "1",
                 "--on-diversity-loss", "abort"])
    assert code == 5
    assert "DIVERSITY_LOSS" in capsys.readouterr().out


def test_scripted_timeout_exits_four(tmp_path, capsys):
    path = schedule_file(tmp_path, Schedule.of([1] * 1500, [1] * 1500))
    code = main(["run", "--backend", f"scripted:{path}", "--threshold", "1",
                 "--timeout-ms", "1"])
    assert code == 4
    assert "TIMEOUT" in capsys.readouterr().out


def test_scripted_trace_out_matches_in_process_run(tmp_path):
    path = schedule_file(tmp_path, OVERTAKE)
    trace_path = tmp_path / "trace.csv"
    code = main(["run", "--backend", f"scripted:{path}", "--threshold", "1",
                 "--trace-out", str(trace_path)])
    assert code == 0  # record policy: losses recorded, run completes
    parsed = read_trace(str(trace_path))
    expected = simulate(OVERTAKE, threshold=1)
    assert parsed.samples == expected.samples


def test_scripted_run_is_byte_identical_across_invocations(tmp_path):
    path = schedule_file(tmp_path, OVERTAKE)
    env = {**os.environ, "PYTHONPATH": os.path.dirname(os.path.dirname(cli.__file__))}
    outs = []
    texts = []
    for name in ("a.csv", "b.csv"):
        trace_path = tmp_path / name
        proc = subprocess.run(
            [sys.executable, "-m", "softlockstep.cli", "run",
             "--backend", f"scripted:{path}", "--threshold", "1",
             "--trace-out", str(trace_path)],
            capture_output=True, text=True, env=env,
        )
        assert proc.returncode == 0
        texts.append(proc.stdout)
        outs.append(trace_path.read_bytes())
    assert outs[0] == outs[1]
    assert texts[0] == texts[1]


def test_scripted_honors_period_and_latency_flags(tmp_path):
    schedule = Schedule.of([4, 0, 0, 4], [0, 0, 3, 3],
                           period_ticks=2, suspend_latency_ticks=1)
    path = schedule_file(tmp_path, schedule)
    trace_path = tmp_path / "trace.csv"
    code = main(["run", "--backend", f"scripted:{path}", "--threshold", "1",
                 "--period-ticks", "2", "--scripted-latency", "1",
                 "--trace-out", str(trace_path)])
    assert code == 0
    assert read_trace(str(trace_path)).samples == simulate(schedule, threshold=1).samples


# ------------------------------------------------------------- run (process)

@requires_counter
def test_process_run_match_exits_zero(capsys):
    code = main(["run", "--workload", "checksum:4096", "--threshold", "2000000",
                 "--period-us", "200"])
    assert code == 0
    assert "MATCH" in capsys.readouterr().out


@requires_counter
def test_process_run_bitflip_exits_two(capsys):
    code = main(["run", "--workload", "checksum:1024", "--threshold", "2000000",
                 "--period-us", "200", "--inject", "bitflip:trail:0:0:3"])
    assert code == 2
    assert "MISMATCH (output 0 first differs at byte 0)" in capsys.readouterr().out


@requires_counter
def test_process_run_crash_exits_three(capsys):
    code = main(["run", "--workload", "checksum:1024", "--threshold", "2000000",
                 "--period-us", "200", "--inject", "crash:head"])
    assert code == 3
    assert "REPLICA_FAILURE (head: crash)" in capsys.readouterr().out


@requires_counter
def test_process_run_freeze_exits_zero(capsys):
    code = main(["run", "--workload", "spin:1000000", "--threshold", "2000000",
                 "--period-us", "200", "--inject", "freeze:head:20ms"])
    assert code == 0
    assert "MATCH" in capsys.readouterr().out


@pytest.mark.parametrize("name,builder", [
    ("matmul", matmul_workload), ("checksum", checksum_workload), ("spin", spin_workload),
])
def test_a_bare_workload_id_builds_the_builders_default(name, builder):
    bare, default = formats.parse_workload_id(name, seed=3), builder(seed=3)
    assert (bare.name, bare.param, bare.seed) == (default.name, default.param, default.seed)
    assert bare.payload.input_sizes == default.payload.input_sizes
    assert [bytes(v) for v in bare.payload.inputs] == [bytes(v) for v in default.payload.inputs]


@requires_counter
def test_process_run_failure_prints_the_last_traceback_line(monkeypatch, capsys):
    def boom(inputs, outputs):
        raise ValueError("boom-6")

    def failing_workload(ident, seed=0):
        return Workload("boom", 0, seed, PayloadSpec.of([], [], [4]), boom)

    monkeypatch.setattr(formats, "parse_workload_id", failing_workload)
    # A threshold no head reaches first: the trail never starts.
    code = main(["run", "--workload", "boom:0", "--threshold", str(10**12),
                 "--period-us", "200"])
    assert code == 3
    out, err = capsys.readouterr()
    assert "REPLICA_FAILURE (head: nonzero-exit)" in out
    assert err.strip() == "ValueError: boom-6"


@requires_counter
def test_a_refused_process_vm_readv_exits_seventy(monkeypatch, capsys):
    def refuse(*args):
        raise OSError(errno.EPERM, "process_vm_readv: Operation not permitted")

    monkeypatch.setattr(replication, "_vm_read", refuse)
    code = main(["run", "--workload", "checksum:64", "--threshold", "2000000"])
    assert code == 70
    assert "process_vm_readv" in capsys.readouterr().err


@requires_counter
def test_process_run_timeout_exits_four(capsys):
    code = main(["run", "--workload", "spin:2000000000", "--threshold", "2000000",
                 "--period-us", "200", "--timeout-ms", "50"])
    assert code == 4
    assert "TIMEOUT" in capsys.readouterr().out


def test_impossible_pinning_exits_seventy(tmp_path, capsys):
    if _counter_reason:
        pytest.skip(f"no progress counter: {_counter_reason}")
    code = main(["run", "--workload", "checksum:64", "--threshold", "2000000",
                 "--cores", "999998,999999"])
    assert code == 70
    assert "error:" in capsys.readouterr().err


# ------------------------------------------------------------------- usage

@pytest.mark.parametrize("argv,fragment", [
    (["run", "--workload", "checksum:64"], "threshold is required"),
    (["run", "--workload", "checksum:64", "--threshold", "5",
      "--calibration-file", "x"], "not both"),
    (["run", "--threshold", "5"], "needs --workload"),
    (["run", "--workload", "nope:1", "--threshold", "5"], "unknown workload"),
    (["run", "--workload", "checksum:64", "--threshold", "5",
      "--inject", "sulk:head"], "unknown fault kind"),
    (["run", "--backend", "scripted:", "--threshold", "5"], "needs a file"),
    (["run", "--backend", "teleport", "--threshold", "5"], "unknown backend"),
    (["run", "--workload", "checksum:64", "--threshold", "5",
      "--cores", "1"], "HEAD,TRAIL"),
    (["calibrate", "--margin", "0.5"], "margin must be >= 1"),
    (["calibrate", "--backend", "scripted:"], "needs a file"),
    # A flag the chosen backend would ignore is refused, not dropped.
    (["run", "--workload", "spin:1000", "--threshold", "5", "--period-ticks", "0"],
     "--period-ticks applies only to the scripted backend"),
    (["run", "--workload", "spin:1000", "--threshold", "5", "--scripted-latency", "7"],
     "--scripted-latency applies only to the scripted backend"),
    (["calibrate", "--scripted-latency", "2"],
     "--scripted-latency applies only to the scripted backend"),
    (["run", "--backend", "scripted:{schedule}", "--threshold", "5", "--cores", "0,1"],
     "--cores pins real replicas"),
    (["run", "--backend", "scripted:{schedule}", "--threshold", "5", "--seed", "7"],
     "--seed applies only to the process backend"),
    (["run", "--backend", "scripted:{schedule}", "--threshold", "5", "--counter", "instructions"],
     "--counter applies only to the process backend"),
    (["calibrate", "--backend", "scripted:{schedule}", "--samples", "1"],
     "--samples applies only to the process backend"),
    (["calibrate", "--backend", "scripted:{schedule}", "--duration-ms", "1"],
     "--duration-ms applies only to the process backend"),
    (["calibrate", "--backend", "scripted:{schedule}", "--counter", "auto"],
     "--counter applies only to the process backend"),
    (["run", "--backend", "scripted:{schedule}", "--threshold", "5", "--period-us", "7"],
     "--period-us applies only to the process backend"),
    # A negative core is refused before any fork, not by the pinning.
    (["run", "--workload", "spin:10", "--threshold", "1000000", "--cores=-1,0"],
     "head_core must be non-negative"),
    (["run", "--workload", "spin:10", "--threshold", "1000000", "--cores=0,1,-1"],
     "monitor_core must be non-negative"),
])
def test_usage_errors_exit_sixty_four(argv, fragment, tmp_path, capsys):
    schedule = tmp_path / "schedule.csv"
    schedule.write_text("tick,head_delta,trail_delta\n1,5,1\n2,5,1\n")
    assert main([arg.format(schedule=schedule) for arg in argv]) == 64
    assert fragment in capsys.readouterr().err


@pytest.mark.parametrize("iters", ["0", str(2**64), "99999999999999999999999"])
def test_a_spin_count_outside_its_eight_bytes_exits_sixty_four(iters, capsys):
    assert main(["run", "--workload", f"spin:{iters}", "--threshold", "5"]) == 64
    captured = capsys.readouterr()
    assert "iteration count must be >= 1 and below 2**64" in captured.err
    assert "Traceback" not in captured.err


def test_scripted_backend_refuses_workload_and_injection(tmp_path, capsys):
    path = schedule_file(tmp_path, STEADY)
    code = main(["run", "--backend", f"scripted:{path}", "--threshold", "5",
                 "--workload", "checksum:64"])
    assert code == 64
    assert "takes no --workload" in capsys.readouterr().err
    code = main(["run", "--backend", f"scripted:{path}", "--threshold", "5",
                 "--inject", "crash:head"])
    assert code == 64
    assert "needs real replicas" in capsys.readouterr().err


def test_argparse_failures_also_exit_sixty_four():
    with pytest.raises(SystemExit) as exc:
        main(["run", "--no-such-flag"])
    assert exc.value.code == 64
    with pytest.raises(SystemExit) as exc:
        main(["run", "--counter", "sundial", "--threshold", "1"])
    assert exc.value.code == 64
    with pytest.raises(SystemExit) as exc:
        main([])
    assert exc.value.code == 64


# ---------------------------------------------------------------- simulate

def test_simulate_safe_exits_zero(capsys):
    code = main(["simulate", "--alphabet", "0,1,2", "--ticks", "4",
                 "--period", "1", "--latency", "1", "--threshold", "4"])
    assert code == 0
    out = capsys.readouterr().out
    assert out.startswith("safe: no schedule out of 6561")


def test_simulate_unsafe_exits_one_and_writes_the_counterexample(tmp_path, capsys):
    ce_path = tmp_path / "ce.csv"
    code = main(["simulate", "--alphabet", "0,1,2", "--ticks", "4",
                 "--period", "1", "--latency", "1", "--threshold", "3",
                 "--counterexample-out", str(ce_path)])
    assert code == 1
    assert "unsafe" in capsys.readouterr().out
    with open(ce_path) as f:
        schedule = read_schedule_csv(f, period_ticks=1, suspend_latency_ticks=1)
    trace = simulate(schedule, threshold=3)
    assert min(s for _, s in trace.instants) < 0


def test_simulate_trivial_alphabet_is_safe_at_zero_threshold(capsys):
    assert main(["simulate", "--alphabet", "0", "--ticks", "3",
                 "--threshold", "0"]) == 0


def test_simulate_oversized_space_exits_sixty_five(capsys):
    code = main(["simulate", "--alphabet", ",".join(map(str, range(10))),
                 "--ticks", "2000", "--threshold", "1"])
    assert code == 65
    assert capsys.readouterr().err == (
        "error: the count of 10^(2*2000) schedules exceeds the bound of 4000 digits\n"
    )


def test_simulate_prints_an_index_just_under_the_digit_bound(capsys, fails_after):
    # 3^(2*4191) has 4,000 digits; the first counterexample's index has 2,002.
    with fails_after(2):
        code = main(["simulate", "--alphabet", "0,1,2", "--ticks", "4191",
                     "--latency", "1", "--threshold", "3"])
    assert code == 1
    out = capsys.readouterr().out
    index = out.split()[2]
    assert out.startswith("unsafe: schedule ") and len(index) == 2002
    assert "staggering -1 (threshold 3)" in out


def test_simulate_walk_past_its_work_bound_exits_sixty_five(capsys):
    code = main(["simulate", "--alphabet", "0,1,2", "--ticks", "4191",
                 "--latency", "1", "--threshold", "4"])
    assert code == 65
    assert "500000 state steps" in capsys.readouterr().err


def test_simulate_huge_tick_count_exits_sixty_five_promptly(capsys, fails_after):
    with fails_after(2):
        code = main(["simulate", "--alphabet", "0,1,2", "--ticks", "100000000",
                     "--threshold", "4"])
    assert code == 65
    assert "exceeds" in capsys.readouterr().err


def test_simulate_one_rate_over_a_huge_tick_count_exits_sixty_five_promptly(capsys, fails_after):
    with fails_after(2):
        code = main(["simulate", "--alphabet", "0", "--ticks", "1000000000000",
                     "--threshold", "0"])
    assert code == 65
    assert "exceeds" in capsys.readouterr().err


def test_simulate_rates_past_int64_exit_sixty_four(capsys):
    code = main(["simulate", "--alphabet", f"0,{2**62}", "--ticks", "2", "--threshold", "1"])
    assert code == 64
    assert "int64 limit of 9223372036854775807" in capsys.readouterr().err


# --------------------------------------------------------------- calibrate

def test_scripted_calibration_is_exact_and_writes_a_report(tmp_path, capsys):
    path = schedule_file(tmp_path, Schedule.of([5] * 60, [0] * 60))
    out_path = tmp_path / "report.txt"
    code = main(["calibrate", "--backend", f"scripted:{path}",
                 "--scripted-latency", "2", "--period-us", "8", "--margin", "2.0",
                 "--out", str(out_path)])
    assert code == 0
    stdout = capsys.readouterr().out
    report = read_report(io.StringIO(stdout))
    assert report.peak_rate == 5_000_000.0
    assert report.monitor_latency_us == 2
    assert report.recommended_threshold == 100
    assert read_report(str(out_path)) == report


@pytest.mark.parametrize("command", [["run", "--threshold", "5"], ["calibrate"]],
                         ids=["run", "calibrate"])
@pytest.mark.parametrize("deltas, flags, fragment", [
    ([5, -3], [], "deltas must be non-negative"),
    ([5, 5], ["--scripted-latency", "-2"], "suspend_latency_ticks must be >= 0"),
], ids=["negative-delta", "negative-latency"])
def test_a_bad_scripted_schedule_exits_sixty_four(tmp_path, capsys, command, deltas, flags,
                                                   fragment):
    path = schedule_file(tmp_path, Schedule.of(deltas, [1, 1]))
    assert main([*command, "--backend", f"scripted:{path}", *flags]) == 64
    captured = capsys.readouterr()
    assert fragment in captured.err
    assert captured.out == ""


def test_run_takes_threshold_and_counter_from_a_calibration_file(tmp_path, capsys):
    path = schedule_file(tmp_path, Schedule.of([5] * 60, [5] * 60))
    report = CalibrationReport(
        counter="task-clock", peak_rate=1e6, check_period_us=50,
        monitor_latency_us=50, safety_margin=1.0,
        recommended_threshold=recommend_threshold(1e6, 50, 50, 1.0),
    )
    report_path = tmp_path / "report.txt"
    write_report(report, str(report_path))
    code = main(["run", "--backend", f"scripted:{path}",
                 "--calibration-file", str(report_path)])
    assert code == 0
    assert "MATCH" in capsys.readouterr().out


def test_run_rejects_an_inconsistent_calibration_file(tmp_path, capsys):
    report_path = tmp_path / "report.txt"
    report_path.write_text(
        "counter=task-clock\npeak_rate=1000000.0\ncheck_period_us=50\n"
        "monitor_latency_us=50\nsafety_margin=1.0\nrecommended_threshold=7\n"
    )
    code = main(["run", "--workload", "checksum:64",
                 "--calibration-file", str(report_path)])
    assert code == 64
    assert "does not match" in capsys.readouterr().err


@pytest.mark.parametrize("field, value", [
    ("peak_rate", "inf"), ("safety_margin", "inf"), ("peak_rate", "nan"),
], ids=["rate-inf", "margin-inf", "rate-nan"])
def test_run_rejects_a_non_finite_calibration_file(tmp_path, capsys, field, value):
    fields = {"counter": "task-clock", "peak_rate": "1000000.0", "check_period_us": "50",
              "monitor_latency_us": "50", "safety_margin": "1.0",
              "recommended_threshold": "100"}
    fields[field] = value
    report_path = tmp_path / "report.txt"
    report_path.write_text("".join(f"{key}={text}\n" for key, text in fields.items()))
    code = main(["run", "--workload", "checksum:64",
                 "--calibration-file", str(report_path)])
    assert code == 64
    assert f"{field} must be finite" in capsys.readouterr().err


def test_scripted_calibration_of_a_short_head_matches_a_long_one(tmp_path, capsys):
    reports = []
    for ticks in (5, 60):
        path = schedule_file(tmp_path, Schedule.of([5] * ticks, [0] * ticks))
        assert main(["calibrate", "--backend", f"scripted:{path}", "--scripted-latency", "4",
                     "--period-us", "8"]) == 0
        reports.append(read_report(io.StringIO(capsys.readouterr().out)))
    assert reports[0] == reports[1]
    assert reports[0].recommended_threshold == 120  # 5e6/s * 12 us * 2


def test_a_scripted_report_on_the_process_backend_exits_sixty_four(tmp_path, capsys):
    path = schedule_file(tmp_path, Schedule.of([5] * 60, [0] * 60))
    report_path = tmp_path / "report.txt"
    assert main(["calibrate", "--backend", f"scripted:{path}", "--out", str(report_path)]) == 0
    capsys.readouterr()
    code = main(["run", "--workload", "spin:1000", "--calibration-file", str(report_path)])
    assert code == 64
    captured = capsys.readouterr()
    assert f"{report_path} came from the scripted backend" in captured.err
    assert captured.out == ""


def test_calibrate_with_a_zero_period_exits_sixty_four_without_forking(monkeypatch, capsys):
    spawned = []
    monkeypatch.setattr(replication, "spawn_replicas", lambda *a, **k: spawned.append(a))
    assert main(["calibrate", "--period-us", "0"]) == 64
    assert "check_period_us must be positive" in capsys.readouterr().err
    assert spawned == []


def test_a_period_the_clock_cannot_wait_exits_sixty_four_without_forking(monkeypatch, capsys):
    spawned = []
    monkeypatch.setattr(monitor, "spawn_replicas", lambda *a, **k: spawned.append(a))
    assert main(["run", "--workload", "spin:1000", "--threshold", "5",
                 "--period-us", "100000000000000000"]) == 64
    assert "check period must be at most" in capsys.readouterr().err
    assert spawned == []


def test_calibrate_with_hardware_counter_reports_unavailable_if_missing(capsys):
    try:
        linuxperf.probe_counter("instructions")
        pytest.skip("hardware instruction counter present on this host")
    except CounterUnavailable:
        pass
    code = main(["calibrate", "--counter", "instructions", "--duration-ms", "100"])
    assert code == 69
    assert "error:" in capsys.readouterr().err


# ----------------------------------------------------------- console script

def test_console_script_is_installed_and_prints_help():
    exe = shutil.which("softlockstep")
    command, env = [exe, "--help"], None
    if exe is None:
        # Not installed: check the entry point pyproject.toml declares, and
        # run its module from this checkout's src.
        tomllib = pytest.importorskip("tomllib")
        src = os.path.dirname(os.path.dirname(cli.__file__))
        with open(os.path.join(os.path.dirname(src), "pyproject.toml"), "rb") as f:
            entry = tomllib.load(f)["project"]["scripts"]["softlockstep"]
        assert entry == "softlockstep.cli:main"
        module, _, name = entry.partition(":")
        assert callable(getattr(importlib.import_module(module), name))
        command = [sys.executable, "-m", "softlockstep.cli", "--help"]
        env = {**os.environ, "PYTHONPATH": src}
    proc = subprocess.run(command, capture_output=True, text=True, env=env)
    assert proc.returncode == 0
    assert "run" in proc.stdout and "calibrate" in proc.stdout and "simulate" in proc.stdout
