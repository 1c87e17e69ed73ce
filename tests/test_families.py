"""verify-algebra's two suite families in one process or two.

``harness.algebra_report`` runs the vertex family in a forked child when
``harness._cpus()`` gives two CPUs or more, and both families in its own
process otherwise.  Each test here forces one worker or two and checks that
the run is the same either way: report bytes, exit code, log records and
their order, and the error line of a suite that raises.  No run may leave a
child behind.
"""

import logging
import os
import re
import signal
import subprocess
import sys
import time
from pathlib import Path

import pytest

from chargedfock import fock, harness
from chargedfock.cli import main
from test_harness import HALF, _doubled_rows, _fresh_memos, space

SRC = Path(__file__).resolve().parent.parent / "src"
WORKERS = [1, 2]
SUITES = [
    "current_bracket", "virasoro_bracket", "lorentz_closure",
    "current_covariance", "primary_covariance", "mode_oracle_equivalence", "mode_adjoint",
]
MODES = {"exact-rational": [], "exact-gaussian": [], "float": ["--tolerance", "1e-9"]}
CURRENT_LINE = "current family (current_bracket, virasoro_bracket, lorentz_closure): pid "
VERTEX_LINE = "vertex family (current_covariance, primary_covariance, mode_oracle_equivalence, mode_adjoint): pid "


def _workers(monkeypatch, n):
    monkeypatch.setattr(harness, "_cpus", lambda: n)


def _run(capsys, caplog, monkeypatch, workers, *argv):
    """One CLI run with `workers` CPUs -> (exit code, stdout, its log records
    as (level, message) with every pid, RSS, time and count of level stacks
    built taken out: in one process the vertex family reuses stacks that the
    current family built."""
    _workers(monkeypatch, workers)
    caplog.clear()
    with caplog.at_level(logging.INFO):
        code = main(list(argv))
    records = []
    for r in caplog.records:
        message = re.sub(r"pid \d+( \(forked, peak RSS [\d.]+ MB\))?", "pid _", r.getMessage())
        message = re.sub(r"\d+ level stacks built", "_ level stacks built", message)
        records.append((r.levelname, re.sub(r"[\d.]+ s\b", "_ s", message)))
    return code, capsys.readouterr().out, records


def _no_child_left():
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


@pytest.mark.parametrize("mode", list(MODES))
def test_one_or_two_processes_give_the_same_run(capsys, caplog, monkeypatch, mode):
    argv = ["verify-algebra", "--level_cutoff", "4", "--arithmetic", mode, *MODES[mode]]
    one, two = (_run(capsys, caplog, monkeypatch, n, *argv) for n in WORKERS)
    assert one[0] == two[0] == 0
    assert one[1] == two[1]
    # the suites' INFO lines in report order, the families' after them
    assert one[2] == two[2]
    infos = [message for level, message in two[2] if level == "INFO"]
    assert [m.split(":")[0] for m in infos[:7]] == SUITES
    assert infos[7].startswith(CURRENT_LINE) and infos[8].startswith(VERTEX_LINE)


@pytest.mark.parametrize("workers", WORKERS)
def test_the_family_lines_name_each_familys_process(caplog, monkeypatch, workers):
    _workers(monkeypatch, workers)
    with caplog.at_level(logging.INFO, logger="chargedfock.harness"):
        harness.algebra_report(space(2), HALF)
    current, vertex = [r.getMessage() for r in caplog.records][-2:]
    assert current.startswith(f"{CURRENT_LINE}{os.getpid()}, ")
    pid = int(vertex[len(VERTEX_LINE):].split()[0].rstrip(","))
    assert (pid == os.getpid()) == (workers == 1)
    assert ("(forked, peak RSS " in vertex) == (workers == 2)
    _no_child_left()


def test_without_fork_both_families_run_here(caplog, monkeypatch):
    _workers(monkeypatch, 2)
    monkeypatch.delattr(os, "fork")
    with caplog.at_level(logging.INFO, logger="chargedfock.harness"):
        harness.algebra_report(space(2), HALF)
    assert caplog.records[-1].getMessage().startswith(f"{VERTEX_LINE}{os.getpid()}, ")


def test_the_cpu_count_is_the_affinity_masks(monkeypatch):
    assert harness._cpus() == len(os.sched_getaffinity(0))
    monkeypatch.delattr(os, "sched_getaffinity")
    assert harness._cpus() == os.cpu_count()


def test_a_y_row_fault_fails_the_same_suite_in_either_process(monkeypatch):
    _doubled_rows(monkeypatch, "Y", lambda alpha, delta: delta == 1)
    reports = []
    for n in WORKERS:
        _workers(monkeypatch, n)
        reports.append(harness.algebra_report(space(4), HALF))
    one, two = reports
    assert one == two
    assert two["failed_suite"] == "current_covariance"
    assert two["first_failure"] == {"m": -3, "delta": -2, "sector": -2, "basis": []}
    _no_child_left()


def test_each_family_names_the_level_stacks_it_built(caplog, monkeypatch):
    # forked, the child builds every stack its family reads; in one process
    # the vertex family reuses the J and L stacks the current family built
    counts = {}
    for n in WORKERS:
        _fresh_memos(monkeypatch)
        _workers(monkeypatch, n)
        caplog.clear()
        with caplog.at_level(logging.INFO, logger="chargedfock.harness"):
            harness.algebra_report(space(4), HALF)
        lines = [r.getMessage() for r in caplog.records if " family (" in r.getMessage()]
        counts[n] = [int(re.search(r", (\d+) level stacks built in [\d.]+ s$", line).group(1)) for line in lines]
    (current, vertex_alone), (forked_current, forked_vertex) = counts[1], counts[2]
    assert current == forked_current > 0
    assert 0 < vertex_alone < forked_vertex
    _no_child_left()


@pytest.mark.parametrize("family", ["current", "vertex"])
def test_no_family_builds_an_empty_stack_or_multiplies_through_one(monkeypatch, family):
    # a product through a negative level passes through the empty basis, so it
    # is 0: at cutoff 6 the families used to build 62 and 36 stacks with an
    # empty side and pass 141 terms with an empty factor to the residual
    _fresh_memos(monkeypatch)
    stacks, terms = [], []
    build, residual = fock.sector_stack, harness.residual
    monkeypatch.setattr(fock, "sector_stack", lambda *args: stacks.append(build(*args)) or stacks[-1])
    monkeypatch.setattr(harness, "residual", lambda ctx, ts: terms.extend(ts) or residual(ctx, ts))
    suites = getattr(harness, f"_{family}_family")(space(6), HALF)
    assert all(s["status"] == "pass" for s in suites)
    empty = lambda m: 0 in m.ints.shape[-2:]  # noqa: E731
    assert stacks and terms
    assert [m.ints.shape for m in stacks if empty(m)] == []
    assert [c for c, chains in terms if any(empty(m) for chain in chains for m in chain)] == []


@pytest.mark.parametrize("workers", WORKERS)
def test_the_sugawara_canary_exits_two_at_the_virasoro_bracket(capsys, caplog, monkeypatch, workers):
    code, out, _ = _run(capsys, caplog, monkeypatch, workers, "verify-algebra", "--level_cutoff", "5",
                        "--inject-fault", "sugawara")
    assert code == 2
    assert '"failed_suite": "virasoro_bracket"' in out
    # the fault flag reaches the forked child: the L rows of primary_covariance fail there
    assert '"suite": "primary_covariance"' in out and out.count('"status": "fail"') == 2
    _no_child_left()


def _raise(*args):
    raise ValueError("the suite raised")


@pytest.mark.parametrize("suite", ["current_bracket_suite", "primary_covariance_suite"])
def test_a_suite_that_raises_is_one_error_line(capsys, caplog, monkeypatch, tmp_path, suite):
    # in either family: one ERROR line and exit 1, no report, the records
    # before it as one process gives them, and no child left behind
    monkeypatch.setattr(harness, suite, _raise)
    out = tmp_path / "report.json"
    runs = [_run(capsys, caplog, monkeypatch, n, "verify-algebra", "--level_cutoff", "3", "--output", str(out))
            for n in WORKERS]
    for code, stdout, records in runs:
        assert code == 1 and stdout == ""
        assert [r for r in records if r[0] == "ERROR"] == [("ERROR", "the suite raised")] == records[-1:]
        _no_child_left()
    assert runs[0][2] == runs[1][2]
    assert not out.exists()


def test_a_refused_fork_runs_both_families_here(capsys, caplog, monkeypatch):
    # at a process limit the fork raises; the run is then the one-worker run,
    # and the pipe made for the child is closed
    argv = ["verify-algebra", "--level_cutoff", "3"]
    one = _run(capsys, caplog, monkeypatch, 1, *argv)
    pipes, real_pipe = [], os.pipe

    def pipe():
        pipes.extend(real_pipe())
        return tuple(pipes[-2:])

    def fork():
        raise BlockingIOError(11, "Resource temporarily unavailable")

    monkeypatch.setattr(os, "pipe", pipe)
    monkeypatch.setattr(os, "fork", fork)
    assert _run(capsys, caplog, monkeypatch, 2, *argv) == one
    assert len(pipes) == 2
    for fd in pipes:
        with pytest.raises(OSError):
            os.fstat(fd)
    _no_child_left()


class _Unrebuilt(Exception):
    """An exception that pickles but cannot be rebuilt from its args."""

    def __init__(self, suite, reason):
        super().__init__(f"{suite}: {reason}")


def _raise_unrebuilt(*args):
    raise _Unrebuilt("primary_covariance", "refused")


def test_the_childs_exception_carries_its_traceback(monkeypatch):
    monkeypatch.setattr(harness, "primary_covariance_suite", _raise)
    _workers(monkeypatch, 2)
    with pytest.raises(ValueError, match="the suite raised") as info:
        harness.algebra_report(space(2), HALF)
    cause = info.value.__cause__
    assert isinstance(cause, ChildProcessError)
    assert "in _vertex_family" in str(cause) and "in _raise" in str(cause)
    # one that cannot be rebuilt here is reported by its traceback, not as a child without a result
    monkeypatch.setattr(harness, "primary_covariance_suite", _raise_unrebuilt)
    with pytest.raises(ChildProcessError, match="cannot be rebuilt") as info:
        harness.algebra_report(space(2), HALF)
    assert "_Unrebuilt: primary_covariance: refused" in str(info.value)
    _no_child_left()


def test_a_child_that_ends_without_a_result_is_one_error_line(capsys, caplog, monkeypatch):
    monkeypatch.setattr(harness, "mode_adjoint_suite", lambda *args: os._exit(3))
    code, out, records = _run(capsys, caplog, monkeypatch, 2, "verify-algebra", "--level_cutoff", "3")
    assert code == 1 and out == ""
    assert records[-1] == ("ERROR", "a forked verification process ended with status 3 and no result")
    _no_child_left()


@pytest.mark.parametrize("outcome", ["pass", "failure"])
def test_no_child_is_left_after_a_verdict(capsys, monkeypatch, outcome):
    if outcome == "failure":
        _doubled_rows(monkeypatch, "Y", lambda alpha, delta: delta == 1)
    _workers(monkeypatch, 2)
    assert main(["verify-algebra", "--level_cutoff", "3"]) == (0 if outcome == "pass" else 2)
    _no_child_left()


def _python(code: str, **kwargs):
    env = {**os.environ, "PYTHONPATH": str(SRC)}
    return subprocess.Popen([sys.executable, "-c", code], env=env, stdout=subprocess.PIPE, text=True, **kwargs)


def test_the_child_writes_no_stdout_and_runs_no_exit_handler():
    code = (
        "import atexit, sys\n"
        "from chargedfock import cli, harness\n"
        "harness._cpus = lambda: 2\n"
        "atexit.register(print, 'exit handler ran')\n"
        "sys.exit(cli.main(['verify-algebra', '--level_cutoff', '3']))\n"
    )
    proc = _python(code, stderr=subprocess.DEVNULL)
    out, _ = proc.communicate(timeout=60)
    assert proc.returncode == 0
    assert out.count("exit handler ran") == 1 and out.count('"subcommand": "verify-algebra"') == 1


@pytest.mark.skipif(not sys.platform.startswith("linux"), reason="the parent-death signal is Linux's")
def test_the_child_dies_with_its_parent():
    # the parent is killed while its child waits; the kernel then kills the child
    code = (
        "import os, signal, sys, time\n"
        "from chargedfock import harness\n"
        "from chargedfock.config import build_space, resolve_config\n"
        "harness._cpus = lambda: 2\n"
        "def vertex(space, alpha):\n"
        "    print(os.getpid(), flush=True)\n"
        "    time.sleep(60)\n"
        "def current(space, alpha):\n"
        "    time.sleep(60)\n"
        "harness._vertex_family, harness._current_family = vertex, current\n"
        "space, alpha, _ = build_space(resolve_config(None, {'level_cutoff': '2'}))\n"
        "harness.algebra_report(space, alpha)\n"
    )
    proc = _python(code)
    child = int(proc.stdout.readline())
    proc.send_signal(signal.SIGKILL)
    proc.wait(timeout=10)
    proc.stdout.close()
    status = Path(f"/proc/{child}/status")
    deadline = time.monotonic() + 10
    while time.monotonic() < deadline:
        try:
            if "\nState:\tZ" in status.read_text():
                break
        except (FileNotFoundError, ProcessLookupError):
            break
        time.sleep(0.05)
    else:
        os.kill(child, signal.SIGKILL)
        pytest.fail("the forked child outlived its parent")
