"""Every public form of the package is reached by the program itself.

A child process traces every Python call made while it imports phasetop,
runs a small `verify all` and invokes each CLI command once.  Each
function a module lists in `__all__`, and each public method, property,
staticmethod and operator that a listed class defines in the module's own
source, must be among the calls, unless `UNREACHED` names it with the
reason it stays.  A form only tests call is a second spelling of what
the program does, so it goes instead of landing here.
"""

import json
import os
import pathlib
import subprocess
import sys

ROOT = pathlib.Path(__file__).resolve().parent.parent

# each public form that no program path calls, and why it stays
UNREACHED = {
    # called by perfbench: seams, pinned by test_perfbench_seams, and
    # the off-grid workload's indexing
    "mesh.mesh_chart": "seam: one chart, meshed alone",
    "mesh.slice_pieces": "seam: the charts of a slice before assembly",
    "phase.min_enclosing_arc": "seam; its one caller is simplex_probe",
    "covectors.PhaseVector.__getitem__": "perfbench indexes vectors; the "
                                         "program reads .entries",
    "mesh.simplex_probe": "no caller yet: the slice-boundary item of the "
                          "roadmap gives it one or deletes it",
    "order_complex.JoinPoint.__init__": "the README's constructor of a "
                                        "join point from its terms; the "
                                        "program builds one from ints",
    # reprs and strs for people, and the fields the reprs show, which the
    # program reads as ints
    "phase.Angle.__repr__": "repr",
    "phase.Angle.turns": "read by the repr",
    "order_complex.DiscPoint.__repr__": "repr",
    "order_complex.DiscPoint.radius": "read by the repr",
    "order_complex.JoinPoint.__repr__": "repr",
    "order_complex.JoinPoint.terms": "read by the repr",
    "covectors.PhaseVector.__str__": "str; the program writes "
                                     "format_phase_vector",
    # text that names an offender in a witness, so only a failing check
    # or a refused input builds it
    "cells.CellLabel.__str__": "witness text",
    "cells.PLabel.__str__": "witness text",
    "order_complex.DiscPoint.__str__": "witness text",
    "order_complex.ModelPoint.__str__": "witness text",
    "order_complex.format_model_point": "witness text",
    # the value types' refusals of assignment, which the program never
    # attempts
    "phase._refuse_setattr": "refusal",
    "phase._refuse_delattr": "refusal",
}

TRACE = r"""
import inspect, json, sys

codes = set()


def profile(frame, event, arg):
    if event == "call":
        codes.add(frame.f_code)


sys.setprofile(profile)
import importlib, pkgutil
import phasetop
from click.testing import CliRunner
from phasetop.cli import main
from phasetop.suites import run_suite

run_suite("all", max_n=4, m=2, samples=20)
runner = CliRunner()
with runner.isolated_filesystem():
    for args in (
            ["hf", "sum", "--field", "phase", "--elems", "0,1/8,z"],
            ["hf", "sum", "--field", "sign", "--elems", "+,-"],
            ["covector", "check", "--v", "0,0,0", "--x", "0,1/3,2/3"],
            ["covector", "enumerate", "--field", "phase", "--n", "2",
             "--m", "2"],
            ["covector", "enumerate", "--field", "sign", "--n", "2"],
            ["delta", "member", "--v", "0,0,0", "--z", "1@0;1@1/2;0@0"],
            ["pn", "list", "--n", "3"],
            ["pn", "meet", "--n", "3", "--x", "U,L,1", "--y", "L,U,1"],
            ["pn", "nu", "--n", "3", "--x", "U,L,1"],
            ["glue", "verify-slice", "--n", "3", "--samples", "5"],
            ["mesh", "slice", "--n", "3", "--m", "2", "--out", "s.json"],
            ["mesh", "full", "--n", "3", "--m", "2", "--out", "f.json"],
            ["mesh", "stats", "--in", "s.json"],
            ["homology", "--in", "f.json", "--field", "f2"],
            ["verify", "pieces", "--max-n", "3", "--m", "2", "--samples",
             "5", "--report", "r.json", "--timings"]):
        result = runner.invoke(main, args)
        assert result.exit_code == 0, (args, result.output)
sys.setprofile(None)


def forms(mod):
    # each function the module lists, and each public or dunder method,
    # staticmethod and property getter of the classes it lists
    for name in getattr(mod, "__all__", ()):
        obj = getattr(mod, name)
        if inspect.isfunction(obj):
            yield obj
        if not inspect.isclass(obj):
            continue
        for attr, member in vars(obj).items():
            if attr.startswith("_") and not attr.endswith("__"):
                continue
            if isinstance(member, (staticmethod, classmethod)):
                member = member.__func__
            elif isinstance(member, property):
                member = member.fget
            if inspect.isfunction(member):
                yield member


unreached = set()
for info in pkgutil.iter_modules(phasetop.__path__):
    mod = importlib.import_module(f"phasetop.{info.name}")
    for fn in forms(mod):
        # dataclass-made methods have no source file in the package
        code = fn.__code__
        if code.co_filename == mod.__file__ and code not in codes:
            unreached.add(f"{info.name}.{fn.__qualname__}")
print(json.dumps(sorted(unreached)))
"""


def test_every_public_form_is_reached_by_the_program():
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    r = subprocess.run([sys.executable, "-c", TRACE], cwd=ROOT, env=env,
                       capture_output=True, text=True, timeout=120)
    assert r.returncode == 0, r.stderr
    unreached = json.loads(r.stdout.splitlines()[-1])
    # a form reached now leaves the list, so each entry stays true
    assert unreached == sorted(UNREACHED)
