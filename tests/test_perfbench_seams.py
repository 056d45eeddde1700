import importlib
import pathlib

SPANS = pathlib.Path(__file__).resolve().parent.parent / "perfbench" / "spans.py"


def load_seams():
    # executed from its source, so nothing is written next to it
    ns = {"__name__": "perfbench_spans"}
    exec(compile(SPANS.read_text(encoding="utf-8"), str(SPANS), "exec"), ns)
    return ns["SEAMS"]


def test_every_perfbench_seam_names_a_callable():
    # the tracer only reports a missing seam, so a rename would go unseen
    seams = load_seams()
    assert ("mesh", "SimplicialComplex.faces") in seams
    for modname, attr in seams:
        obj = importlib.import_module(f"phasetop.{modname}")
        for part in attr.split("."):
            obj = getattr(obj, part, None)
        assert callable(obj), f"{modname}.{attr}"
