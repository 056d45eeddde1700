import pathlib
import sys

RUN = pathlib.Path(__file__).resolve().parent.parent / "mutants" / "run.py"


def test_every_catalogue_entry_names_one_place_and_its_killers(monkeypatch):
    # the runner makes this check too, but CI runs it on one Python only
    monkeypatch.syspath_prepend(str(RUN.parent))
    monkeypatch.delitem(sys.modules, "catalogue", raising=False)
    # a script, not a module: run its source, which imports the catalogue
    ns = {"__name__": "mutants_run", "__file__": str(RUN)}
    exec(compile(RUN.read_text(encoding="utf-8"), str(RUN), "exec"), ns)
    stale, root = ns["_stale"], ns["ROOT"]
    entries = [*ns["MUTANTS"], *ns["EQUIVALENT"]]
    assert entries
    why = {e.name: stale(e, root) for e in entries}
    assert not {name: w for name, w in why.items() if w}
