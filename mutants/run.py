"""Run the mutation catalogue (mutants/catalogue.py).

    python mutants/run.py

The tree is copied once to a temporary directory.  The killers of every
mutant first run there unmutated, together, under half the sum of the
caps, and must pass.  Then each mutant in turn replaces its one source string
in the copy, runs only its killers under its time cap, and puts the file
back.  A mutant is killed
when its killers fail (pytest exit status 1); it survives when they pass,
and is over its cap when they are still running at the cap.  A source
string that is missing, or found more than once, is an error, for the
known-equivalent entries too, so no entry goes stale silently.

The last line counts the outcomes.  The exit status is 0 only when every
mutant was killed within its cap and no entry is in error.
"""

from __future__ import annotations

import os
import shutil
import signal
import subprocess
import sys
import tempfile
import time
from pathlib import Path

from catalogue import EQUIVALENT, MUTANTS  # this script's own directory

ROOT = Path(__file__).resolve().parent.parent

# left out of the copy: history, outputs and caches
_SKIP = shutil.ignore_patterns(".git", "perfbench_out", "__pycache__",
                               ".hypothesis", ".pytest_cache", "*.egg-info")


def _pytest(copy: Path, node_ids, cap_s: float):
    """(exit status or None when over the cap, seconds, output tail)."""
    env = dict(os.environ, PYTHONPATH=str(copy / "src"),
               PYTHONDONTWRITEBYTECODE="1", PYTHONHASHSEED="0")
    cmd = [sys.executable, "-m", "pytest", "-q", "-x", "-p", "no:cacheprovider",
           *node_ids]
    start = time.monotonic()
    # a process group of its own, so a cap ends every process the tests start
    proc = subprocess.Popen(cmd, cwd=copy, env=env, stdout=subprocess.PIPE,
                            stderr=subprocess.STDOUT, text=True,
                            start_new_session=True)
    try:
        out, _ = proc.communicate(timeout=cap_s)
        status = proc.returncode
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        out, _ = proc.communicate()
        status = None
    tail = "\n".join(out.strip().splitlines()[-5:])
    return status, time.monotonic() - start, tail


def _stale(entry, copy: Path) -> str | None:
    """Why the entry's source string does not name one place, or None."""
    path = copy / entry.file
    if not path.is_file():
        return f"no file {entry.file}"
    count = path.read_text(encoding="utf-8").count(entry.source)
    if count != 1:
        return f"source string found {count} times in {entry.file}"
    return None


def main() -> int:
    todo = MUTANTS  # none when an entry or the unmutated run is in error
    counts = dict.fromkeys(("killed", "survived", "over cap", "error"), 0)
    with tempfile.TemporaryDirectory(prefix="phasetop-mutants-") as tmp:
        copy = Path(tmp) / "tree"
        shutil.copytree(ROOT, copy, ignore=_SKIP)
        for entry in (*MUTANTS, *EQUIVALENT):
            why = _stale(entry, copy)
            if why:
                print(f"error     {entry.name}: {why}")
                counts["error"] += 1
        if counts["error"]:
            todo = []
        # the killers must pass on the tree as it is
        killers = sorted({k for m in todo for k in m.killers})
        if killers:
            # each cap is at least three times its killers' unmutated run
            cap = sum(m.cap_s for m in todo) / 2
            status, secs, tail = _pytest(copy, killers, cap)
            if status != 0:
                print(f"error     the killers fail unmutated ({secs:.1f} s):"
                      f"\n{tail}")
                counts["error"] += 1
                todo = []
        for m in todo:
            path = copy / m.file
            text = path.read_text(encoding="utf-8")
            path.write_text(text.replace(m.source, m.replacement),
                            encoding="utf-8")
            try:
                status, secs, tail = _pytest(copy, m.killers, m.cap_s)
            finally:
                path.write_text(text, encoding="utf-8")
            outcome = {1: "killed", 0: "survived", None: "over cap"}.get(
                status, "error")
            counts[outcome] += 1
            print(f"{outcome:<9} {m.name} ({secs:.1f} s, cap {m.cap_s:g} s)")
            if outcome == "error":
                print(f"          pytest exit status {status}:\n{tail}")
    print("mutants: " + ", ".join(f"{n} {k}" for k, n in counts.items())
          + f"; {len(EQUIVALENT)} known equivalent")
    return 0 if counts["killed"] == len(todo) and not counts["error"] else 1


if __name__ == "__main__":
    sys.exit(main())
