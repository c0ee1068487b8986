"""Operations in fresh processes, and the tally of one benchmark run.

Every operation runs in a child forked from the benchmark process, which
has imported fedweave but never run a command, so no in-process state
carries from one operation to the next, as with a real ``fedweave`` call.
The child times its own work, optionally records spans, and sends a JSON
result back through a pipe; the parent takes the child's peak resident
memory from ``wait4``.

Times are taken with a ``Stopwatch``, which reports each lap twice: as
wall time, and scaled to a host that runs a fixed pure-Python calibration
loop in exactly ``CALIBRATION_S``.  On a shared host whose CPU speed
drifts by tens of percent from one quarter-minute to the next, the scaled
times stay within a few percent, while program changes move them as they
move wall time, because the loop runs no program code.
"""

from __future__ import annotations

import contextlib
import io
import json
import os
import signal
import statistics
import sys
import time
import traceback

import tracing

CHILD_TIMEOUT_S = 150
CALIBRATION_S = 0.010  # the reference host runs calibrate() in this time
CALIBRATION_ROUNDS = 40_000
SLICE_ROUNDS = 10_000  # a quarter loop, run inside a lap
SLICE_EVERY_S = 0.25  # of CPU time


def calibrate(rounds: int = CALIBRATION_ROUNDS) -> float:
    """Seconds this host now takes for a full loop of dict and str work,
    estimated from ``rounds`` of it."""
    started = time.perf_counter()
    bag: dict[int, str] = {}
    for i in range(rounds):
        bag[i % 97] = str(i)
    return (time.perf_counter() - started) * CALIBRATION_ROUNDS / rounds


class Stopwatch:
    """Consecutive laps, each as ``(wall seconds, reference seconds)``.

    The calibration loop runs before and after each lap and, in quarter
    slices, every ``SLICE_EVERY_S`` of CPU time during it, so that a long
    lap is scaled by the host's speed while it ran, not only at its ends.
    A lap's wall time excludes the slices; its reference time is the wall
    time times the median speed of the loops."""

    def __init__(self) -> None:
        self._loops = [calibrate()]
        self._sliced = 0.0
        self._previous = signal.signal(signal.SIGVTALRM, self._slice)
        signal.setitimer(signal.ITIMER_VIRTUAL, SLICE_EVERY_S, SLICE_EVERY_S)
        self._started = time.perf_counter()

    def _slice(self, signum, frame) -> None:
        started = time.perf_counter()
        self._loops.append(calibrate(SLICE_ROUNDS))
        self._sliced += time.perf_counter() - started

    def lap(self) -> tuple[float, float]:
        wall = time.perf_counter() - self._started - self._sliced
        signal.setitimer(signal.ITIMER_VIRTUAL, 0)
        self._loops.append(calibrate())
        speed = statistics.median(CALIBRATION_S / loop for loop in self._loops)
        self._loops = self._loops[-1:]
        self._sliced = 0.0
        signal.setitimer(signal.ITIMER_VIRTUAL, SLICE_EVERY_S, SLICE_EVERY_S)
        self._started = time.perf_counter()
        return wall, wall * speed

    def stop(self) -> None:
        signal.setitimer(signal.ITIMER_VIRTUAL, 0)
        signal.signal(signal.SIGVTALRM, self._previous)


def in_child(fn, traced: bool = False) -> dict:
    """Run ``fn()`` in a forked child and return its result.

    The result is ``{"value": ..., "rss_kb": ...}``, plus ``"trace"`` when
    traced, or ``{"error": traceback, "rss_kb": ...}`` when ``fn`` raised
    or the child died.
    """
    sys.stdout.flush()
    sys.stderr.flush()
    read_fd, write_fd = os.pipe()
    pid = os.fork()
    if pid == 0:
        payload: dict = {"error": "child interrupted"}
        try:
            os.close(read_fd)
            signal.alarm(CHILD_TIMEOUT_S)
            tracer = tracing.install() if traced else None
            payload = {"value": fn()}
            if tracer is not None:
                payload["trace"] = tracer.export()
        except Exception:
            payload = {"error": traceback.format_exc()}
        finally:
            with os.fdopen(write_fd, "wb") as pipe:
                pipe.write(json.dumps(payload).encode("utf-8"))
            os._exit(0)
    os.close(write_fd)
    with os.fdopen(read_fd, "rb") as pipe:
        data = pipe.read()
    _, status, usage = os.wait4(pid, 0)
    if data:
        payload = json.loads(data)
    else:
        payload = {"error": f"child ended with wait status {status} and no result"}
    payload["rss_kb"] = usage.ru_maxrss
    return payload


def cli_call(workspace: str, argv: list[str]):
    """A child function: one ``fedweave`` command, timed, output captured."""
    from fedweave import cli

    def call() -> dict:
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            watch = Stopwatch()
            code = cli.run_command(["-w", workspace, *argv])
            wall, reference = watch.lap()
            watch.stop()
        return {"rc": code, "out": out.getvalue(), "err": err.getvalue(),
                "s": reference, "wall_s": wall}

    return call


class Tally:
    """Operations attempted and failed, peak memory, and traces of one run."""

    def __init__(self) -> None:
        self.attempted = 0
        self.failures: list[str] = []
        self.rss_kb = 0
        self.traces: list[dict] = []

    def run(self, fn, traced: bool = False) -> dict:
        result = in_child(fn, traced)
        self.rss_kb = max(self.rss_kb, result["rss_kb"])
        if "trace" in result:
            self.traces.append(result.pop("trace"))
        return result

    def record(self, what: str, problems: list[str]) -> bool:
        """Count one operation; it failed when any check found a problem."""
        self.attempted += 1
        if problems:
            self.failures.append(f"{what}: {'; '.join(problems)}")
        return not problems

    @property
    def failed(self) -> int:
        return len(self.failures)
