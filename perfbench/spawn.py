"""Spawn and time the measured child processes for run.py.

Reads one JSON request per line on stdin, ``[argv, stdout_path, stderr_path,
timeout_s]`` (stdout_path may be null), runs the child to exit and answers
one JSON line, ``[seconds_from_spawn_to_exit, exit_code, peak_rss_kb]``.

This is a process of its own because Linux reports a child's peak RSS
(wait4's ru_maxrss) as at least the peak of the process that spawned it.
It imports next to nothing, so the peak RSS it reports is the child's own,
however large run.py grows.
"""

import json
import os
import signal
import sys
import time

_child = 0


def _kill_child(signum, frame):
    if _child > 0:
        try:
            os.kill(_child, signal.SIGKILL)
        except ProcessLookupError:  # exited just before the alarm
            pass


def run(argv: list, stdout, stderr: str, timeout: int) -> list:
    global _child
    flags = os.O_WRONLY | os.O_CREAT | os.O_TRUNC
    actions = [
        (os.POSIX_SPAWN_OPEN, 0, os.devnull, os.O_RDONLY, 0),
        (os.POSIX_SPAWN_OPEN, 1, stdout or os.devnull, flags, 0o644),
        (os.POSIX_SPAWN_OPEN, 2, stderr, flags, 0o644),
    ]
    start = time.perf_counter()
    _child = os.posix_spawn(argv[0], argv, os.environ, file_actions=actions)
    signal.alarm(timeout)
    _, status, usage = os.wait4(_child, 0)
    elapsed = time.perf_counter() - start
    signal.alarm(0)
    _child = 0
    return [elapsed, os.waitstatus_to_exitcode(status), usage.ru_maxrss]


def main() -> None:
    signal.signal(signal.SIGALRM, _kill_child)
    for line in sys.stdin:
        sys.stdout.write(json.dumps(run(*json.loads(line))) + "\n")
        sys.stdout.flush()


if __name__ == "__main__":
    main()
