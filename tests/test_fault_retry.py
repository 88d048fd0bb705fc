"""Worker-crash fault injection (north_rule fault-tolerance evidence).

Runs scripts/fault_retry_smoke.py in a SUBPROCESS (the fault env var
must be set before Ray forks its workers, which the session fixture has
already done). The script kills one fetch worker hard (os._exit) before
any side effect, and one finalize stager right after its first yielded
block; Ray's default task retry re-executes each, and the output tables
+ exact crawl order must equal the straight-line oracle. Both sites are
idempotent by construction: a fetch task's one file is its fixed-name
delta part (atomic rename, counters on the task return), and a stager
re-derives its (table, partition) blocks from the committed deltas."""

import json
import os
import subprocess
import sys

REPO = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def test_worker_crash_retry_golden_parity():
    res = subprocess.run(
        [sys.executable, os.path.join(REPO, "scripts", "fault_retry_smoke.py")],
        capture_output=True, text=True, timeout=600,
    )
    assert res.returncode == 0, res.stderr[-3000:]
    out = json.loads(res.stdout.strip().splitlines()[-1])
    assert out["fault_fired"] == {"fetch": True, "stager": True}, out
    assert out["ok"], out
