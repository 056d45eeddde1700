"""Run the mutation catalogue (mutants/catalogue.py).

    python mutants/run.py

The tree is copied once to a temporary directory.  The killers of every
mutant first run there unmutated, together, and must pass; that run is
timed, and three times its wall time is the cap of every mutant.  Then
each mutant in turn replaces its one source string in the copy, runs only
its killers under the cap, and puts the file back.  A mutant is killed
when its killers fail (pytest exit status 1); it survives when they pass,
and is over the cap when they are still running at the cap.  A source
string that is missing, or found more than once, is an error, for the
known-equivalent entries too, so no entry goes stale silently; so is a
killer that names a file or a test that does not exist.

The unmutated run's time and the cap come first, then one line per
mutant with its time, and the last line counts the outcomes and gives the
total wall time.  The exit status is 0 only when every mutant was killed
within the cap and no entry is in error.
"""

from __future__ import annotations

import os
import re
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


def _pytest(copy: Path, node_ids, cap_s: float | None):
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
    """Why the entry is stale, or None: its source string does not name
    one place, or a killer names a file or a test that does not exist."""
    path = copy / entry.file
    if not path.is_file():
        return f"no file {entry.file}"
    count = path.read_text(encoding="utf-8").count(entry.source)
    if count != 1:
        return f"source string found {count} times in {entry.file}"
    for killer in getattr(entry, "killers", ()):  # an equivalent has none
        file, _, test = killer.partition("::")
        test = test.partition("[")[0]  # any parametrization is left out
        tests = copy / file
        if not tests.is_file():
            return f"no killer file {file}"
        if not re.search(rf"^def {re.escape(test)}\(",
                         tests.read_text(encoding="utf-8"), re.MULTILINE):
            return f"{file} defines no test {test!r}"
    return None


def main() -> int:
    start = time.monotonic()
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
            status, secs, tail = _pytest(copy, killers, None)
            cap = 3 * secs  # the one cap, for every mutant
            print(f"unmutated {len(killers)} killers ({secs:.1f} s); "
                  f"cap {cap:.1f} s per mutant")
            if status != 0:
                print(f"error     the killers fail unmutated:\n{tail}")
                counts["error"] += 1
                todo = []
        for m in todo:
            path = copy / m.file
            text = path.read_text(encoding="utf-8")
            path.write_text(text.replace(m.source, m.replacement),
                            encoding="utf-8")
            try:
                status, secs, tail = _pytest(copy, m.killers, cap)
            finally:
                path.write_text(text, encoding="utf-8")
            outcome = {1: "killed", 0: "survived", None: "over cap"}.get(
                status, "error")
            counts[outcome] += 1
            print(f"{outcome:<9} {m.name} ({secs:.1f} s)")
            if outcome == "error":
                print(f"          pytest exit status {status}:\n{tail}")
    print("mutants: " + ", ".join(f"{n} {k}" for k, n in counts.items())
          + f"; {len(EQUIVALENT)} known equivalent; "
          f"{time.monotonic() - start:.1f} s in all")
    return 0 if counts["killed"] == len(todo) and not counts["error"] else 1


if __name__ == "__main__":
    sys.exit(main())
