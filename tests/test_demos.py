import importlib
import inspect
import os
import pathlib
import pkgutil
import subprocess
import sys

import pytest

import phasetop

ROOT = pathlib.Path(__file__).resolve().parent.parent
DEMOS = sorted((ROOT / "demos").glob("*.py"))


def test_all_five_demos_found():
    assert len(DEMOS) == 5


@pytest.mark.parametrize("demo", DEMOS, ids=lambda p: p.name)
def test_demo_runs(demo):
    # the demos use the public API, so a removed name breaks them here
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    r = subprocess.run([sys.executable, str(demo)], cwd=ROOT, env=env,
                       capture_output=True, text=True, timeout=120)
    assert r.returncode == 0, r.stderr


def test_all_is_the_public_surface():
    # each listed name resolves, and each public function or class a
    # module defines is listed, so a deletion leaves no stale entry and
    # no new form goes unlisted; the CLI entry point exports nothing
    unlisted = []
    for info in pkgutil.iter_modules(phasetop.__path__):
        if info.name == "cli":
            continue
        mod = importlib.import_module(f"phasetop.{info.name}")
        for name in mod.__all__:
            assert hasattr(mod, name), f"{mod.__name__}.{name}"
        unlisted += [
            f"{mod.__name__}.{name}" for name, obj in vars(mod).items()
            if not name.startswith("_")
            and (inspect.isfunction(obj) or inspect.isclass(obj))
            and obj.__module__ == mod.__name__
            and name not in mod.__all__]
    assert unlisted == []
