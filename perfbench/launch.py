"""Start one command from a small process and report the command's own
exit code, wall time and peak RSS.

    python3 perfbench/launch.py TIMEOUT STDOUT STDERR -- CMD...

On Linux a new process's peak RSS (ru_maxrss) starts at the peak RSS of the
process that started it, because exec keeps the larger of the old and new
figures.  run.py holds numpy, kolmo and the checks' arrays, more than a
small kolmo command needs, so it starts every command through this
launcher, which imports only the standard library.  The command is killed
after TIMEOUT seconds.  Prints one JSON line: rc, wall_s, maxrss_kb.
"""

import json
import os
import subprocess
import sys
import threading
import time


def main(argv):
    timeout, out_path, err_path, sep, *cmd = argv
    if sep != "--" or not cmd:
        raise SystemExit("usage: launch.py TIMEOUT STDOUT STDERR -- CMD...")
    with open(out_path, "wb") as out, open(err_path, "wb") as err:
        t0 = time.perf_counter()
        p = subprocess.Popen(cmd, stdout=out, stderr=err)
        timer = threading.Timer(float(timeout), p.kill)
        timer.start()
        try:
            _, status, ru = os.wait4(p.pid, 0)
            wall = time.perf_counter() - t0
            p.returncode = os.waitstatus_to_exitcode(status)
        finally:
            timer.cancel()
            if p.returncode is None:
                p.kill()
                p.wait()
    print(json.dumps({"rc": p.returncode, "wall_s": wall,
                      "maxrss_kb": ru.ru_maxrss}))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
