"""Starts benchmark child processes and reports each one's wall time and peak RSS.

Linux counts the resident set a child inherits at fork (or takes over
through vfork) in the child's peak RSS. Forked straight from the
benchmark, which holds the generated plan in memory, every child would
report at least the benchmark's own size. This launcher is started before
anything is generated, stays small, and forks the children instead.

Protocol: one JSON request per line on stdin, ``{"argv", "cwd", "env",
"stdout", "stderr"}`` (the last two are file paths, or null to discard);
one JSON reply per line on stdout, ``{"wall_s", "peak_rss_kb", "code"}``.
It exits when stdin closes.
"""

import json
import os
import subprocess
import sys
import time


def run(request: dict) -> dict:
    def sink(path):
        return open(path, "wb") if path else open(os.devnull, "wb")

    with sink(request["stdout"]) as out, sink(request["stderr"]) as err:
        start = time.perf_counter()
        proc = subprocess.Popen(
            request["argv"], stdout=out, stderr=err, cwd=request["cwd"], env=request["env"]
        )
        _, status, usage = os.wait4(proc.pid, 0)
        wall = time.perf_counter() - start
    proc.returncode = os.waitstatus_to_exitcode(status)
    return {"wall_s": wall, "peak_rss_kb": usage.ru_maxrss, "code": proc.returncode}


def main() -> None:
    for line in sys.stdin:
        sys.stdout.write(json.dumps(run(json.loads(line))) + "\n")
        sys.stdout.flush()


if __name__ == "__main__":
    main()
