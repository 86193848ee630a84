"""CLI surface: exit codes, file round trips, scripted determinism."""

import errno
import io
import shutil
import subprocess
import sys

import pytest

from softlockstep import cli, linuxperf, replication
from softlockstep.calibration import read_report, recommend_threshold, write_report, CalibrationReport
from softlockstep.cli import _VERDICT_EXIT, main
from softlockstep.core import PayloadSpec, VerdictKind
from softlockstep.monitor import read_trace
from softlockstep.progress import CounterUnavailable
from softlockstep.sim import Schedule, read_schedule_csv, simulate, write_schedule_csv
from softlockstep.workloads import Workload

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
    outs = []
    texts = []
    for name in ("a.csv", "b.csv"):
        trace_path = tmp_path / name
        proc = subprocess.run(
            [sys.executable, "-m", "softlockstep.cli", "run",
             "--backend", f"scripted:{path}", "--threshold", "1",
             "--trace-out", str(trace_path)],
            capture_output=True, text=True,
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
def test_process_run_failure_prints_the_last_traceback_line(monkeypatch, capsys):
    def boom(inputs, outputs):
        raise ValueError("boom-6")

    def failing_workload(ident, seed=0):
        return Workload("boom", 0, seed, PayloadSpec.of([], [], [4]), boom)

    monkeypatch.setattr(cli, "parse_workload_id", failing_workload)
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
])
def test_usage_errors_exit_sixty_four(argv, fragment, capsys):
    assert main(argv) == 64
    assert fragment in capsys.readouterr().err


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
                 "--ticks", "8", "--threshold", "1"])
    assert code == 65
    assert "exceeds" in capsys.readouterr().err


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
    code = main(["calibrate", "--backend", f"scripted:{path}", "--tick-us", "1",
                 "--scripted-latency", "2", "--period-us", "8", "--margin", "2.0",
                 "--out", str(out_path)])
    assert code == 0
    stdout = capsys.readouterr().out
    report = read_report(io.StringIO(stdout))
    assert report.peak_rate == 5_000_000.0
    assert report.monitor_latency_us == 2
    assert report.recommended_threshold == 100
    assert read_report(str(out_path)) == report


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


def test_calibrate_with_a_zero_period_exits_sixty_four_without_forking(monkeypatch, capsys):
    spawned = []
    monkeypatch.setattr(replication, "spawn_replicas", lambda *a, **k: spawned.append(a))
    assert main(["calibrate", "--period-us", "0"]) == 64
    assert "check_period_us must be positive" in capsys.readouterr().err
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
    if exe is None:
        pytest.skip("console script not on PATH")
    proc = subprocess.run([exe, "--help"], capture_output=True, text=True)
    assert proc.returncode == 0
    assert "run" in proc.stdout and "calibrate" in proc.stdout and "simulate" in proc.stdout
