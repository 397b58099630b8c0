"""Run ``repro.service.daemon.main`` for the benchmark, optionally traced.

Usage: ``python3 perfbench/serve_launcher.py --out FILE [--trace] --
DAEMON-ARGS...``.  The daemon runs in this process; when it has drained
and returned, the launcher writes ``{"exit", "peak_rss_mb", "marks"}`` to
``FILE``.  With ``--trace`` the layer ledger is installed first and every
``status`` request records a mark: the daemon's clock and a ledger
snapshot, taken before the status is answered.  The benchmark sends one
status at the start and one at the end of its timed window.
"""

from __future__ import annotations

import argparse
import json
import resource
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--out", required=True)
    parser.add_argument("--trace", action="store_true")
    parser.add_argument("daemon_args", nargs=argparse.REMAINDER)
    args = parser.parse_args(argv)
    daemon_args = args.daemon_args
    if daemon_args[:1] == ["--"]:
        daemon_args = daemon_args[1:]

    from repro.service import daemon

    marks = []
    if args.trace:
        from ledger import Ledger
        ledger = Ledger().install()
        answer_status = daemon.SchedulerDaemon._op_status

        def marked_status(self):
            marks.append([time.perf_counter(), ledger.snapshot()])
            return answer_status(self)

        daemon.SchedulerDaemon._op_status = marked_status
    code = daemon.main(daemon_args)
    Path(args.out).write_text(json.dumps({
        "exit": code,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "marks": marks,
    }), encoding="utf-8")
    return code


if __name__ == "__main__":
    raise SystemExit(main())
