"""Command-line front end: queries, mesh file I/O, and verification.

Vectors are comma-separated entries ("z" for the zero element, signs as
+/-/0), model points are semicolon-separated disc coordinates r@a with
rational r and angle a in turns, cell labels use -1/U/L/F/1 tokens.
"""

from __future__ import annotations

import json
import os
import sys

import click

from .phase import hyper_sum_list, sign_hyper_sum_list
from .covectors import (
    format_phase_vector,
    format_sign_vector,
    is_covector,
    iter_covectors,
    parse_phase_vector,
    parse_sign_vector,
)
from .order_complex import delta_member, parse_model_point
from .cells import (
    format_cell_label,
    meet,
    nu,
    parse_cell_label,
    pn_elements,
)
from .gluing import verify_slice_claims
from .mesh import (
    assemble_full,
    assemble_slice,
    boundary_subcomplex,
    complex_from_doc,
    complex_to_doc,
)
from .homology import betti, euler_characteristic
from .suites import SUITES, run_suite


class _Main(click.Group):
    """The one error boundary: bad input or an unusable path is a one-line
    "Error: ..." with exit 1; any other exception keeps its traceback."""

    def invoke(self, ctx):
        try:
            return super().invoke(ctx)
        except (ValueError, OSError) as exc:
            raise click.ClickException(str(exc)) from exc


@click.group(cls=_Main)
def main():
    """Exact tools for phase covectors, cell meshes, and homology."""


# ---------------------------------------------------------------------------
# hyperfield arithmetic
# ---------------------------------------------------------------------------


@main.group()
def hf():
    """Hyperfield arithmetic."""


@hf.command("sum")
@click.option("--field", type=click.Choice(["phase", "sign"]), required=True)
@click.option("--elems", required=True,
              help="comma-separated elements, e.g. 0,1/2,z or +,-,0")
def hf_sum(field, elems):
    """Multivalued sum of a list of elements."""
    if field == "phase":
        click.echo(str(hyper_sum_list(list(parse_phase_vector(elems)))))
    else:
        out = sorted(sign_hyper_sum_list(list(parse_sign_vector(elems))))
        click.echo("{" + ", ".join(str(s) for s in out) + "}")


# ---------------------------------------------------------------------------
# covectors
# ---------------------------------------------------------------------------


@main.group()
def covector():
    """Covector predicates and enumeration."""


@covector.command("check")
@click.option("--v", "v_text", required=True,
              help="unit phase vector, no zero entries")
@click.option("--x", "x_text", required=True,
              help="candidate covector, z entries allowed")
def covector_check(v_text, x_text):
    """True iff zero lies in the twisted sum of v and x."""
    v = parse_phase_vector(v_text)
    x = parse_phase_vector(x_text)
    click.echo("true" if is_covector(v, x) else "false")


@covector.command("enumerate")
@click.option("--field", type=click.Choice(["phase", "sign"]), required=True)
@click.option("--n", type=int, required=True)
@click.option("--m", type=int, default=None,
              help="grid density for the phase field (even)")
def covector_enumerate(field, n, m):
    """All nonzero covectors of the all-ones vector, one per line."""
    if field == "sign" and m is not None:
        raise click.UsageError("--m is the phase field's grid density; "
                               "--field sign takes none")
    fmt = format_phase_vector if field == "phase" else format_sign_vector
    for x in iter_covectors(field, n, m):
        click.echo(fmt(x))


# ---------------------------------------------------------------------------
# the covector space model
# ---------------------------------------------------------------------------


@main.group()
def delta():
    """Points of the covector space model."""


@delta.command("member")
@click.option("--v", "v_text", required=True, help="coefficient vector")
@click.option("--z", "z_text", required=True,
              help="model point, e.g. 1@0;1/2@1/4")
def delta_member_cmd(v_text, z_text):
    """True iff the disc tuple lies in the covector space of v."""
    v = parse_phase_vector(v_text)
    z = parse_model_point(z_text)
    click.echo("true" if delta_member(v, z) else "false")


# ---------------------------------------------------------------------------
# the cell poset
# ---------------------------------------------------------------------------


@main.group()
def pn():
    """The finite poset of cell labels."""


def _parse_label_in(text: str, n: int):
    if n < 3:
        raise ValueError("cell labels need n >= 3")
    # counted first: building a label of under 3 symbols refuses it for n
    count = len(text.split(","))
    if count != n:
        raise ValueError(f"label {text!r} has {count} coordinates,"
                         f" expected {n}")
    return parse_cell_label(text)


@pn.command("list")
@click.option("--n", type=int, required=True)
def pn_list(n):
    """All cell labels, one per line."""
    for x in pn_elements(n):
        click.echo(format_cell_label(x))


@pn.command("meet")
@click.option("--n", type=int, required=True)
@click.option("--x", "x_text", required=True)
@click.option("--y", "y_text", required=True)
def pn_meet(n, x_text, y_text):
    """Greatest lower bound of two cell labels."""
    x = _parse_label_in(x_text, n)
    y = _parse_label_in(y_text, n)
    click.echo(format_cell_label(meet(x, y)))


@pn.command("nu")
@click.option("--n", type=int, required=True)
@click.option("--x", "x_text", required=True)
def pn_nu(n, x_text):
    """Cell dimension of a label."""
    x = _parse_label_in(x_text, n)
    click.echo(str(nu(x)))


# ---------------------------------------------------------------------------
# gluing verification
# ---------------------------------------------------------------------------


@main.group()
def glue():
    """Gluing hypotheses on the chart families."""


@glue.command("verify-slice")
@click.option("--n", type=int, required=True)
@click.option("--samples", type=click.IntRange(min=1), default=1000,
              show_default=True)
@click.option("--seed", type=int, default=0, show_default=True)
def glue_verify_slice(n, samples, seed):
    """Combinatorial and sampled checks for the slice chart families."""
    rep = verify_slice_claims(n, samples=samples, seed=seed)
    click.echo(rep.to_text(), nl=False)
    if not rep.passed:
        sys.exit(1)


# ---------------------------------------------------------------------------
# meshes and homology
# ---------------------------------------------------------------------------


@main.group()
def mesh():
    """Simplicial meshes written as JSON documents."""


@mesh.command("slice")
@click.option("--n", type=int, required=True)
@click.option("--m", type=int, required=True, help="edges per half-circle")
@click.option("--out", "out_path", type=click.Path(dir_okay=False),
              required=True)
def mesh_slice(n, m, out_path):
    """Mesh the glued slice and write it to a file."""
    _write_mesh(assemble_slice(n, m), n, m, out_path, "slice")


@mesh.command("full")
@click.option("--n", type=int, required=True)
@click.option("--m", type=int, required=True, help="edges per half-circle")
@click.option("--out", "out_path", type=click.Path(dir_okay=False),
              required=True)
def mesh_full(n, m, out_path):
    """Mesh the full covector space and write it to a file."""
    _write_mesh(assemble_full(n, m), n, m, out_path, "full space")


def _write_mesh(K, n, m, out_path, what):
    with open(out_path, "w", encoding="utf-8") as fh:
        json.dump(complex_to_doc(K, n, m), fh, indent=2, sort_keys=True)
        fh.write("\n")
    click.echo(f"wrote {out_path}: {what} n={n} m={m},"
               f" {len(K.tops)} top simplices")


def _read_mesh(in_path):
    """The complex of a mesh document file."""
    with open(in_path, "r", encoding="utf-8") as fh:
        try:
            doc = json.load(fh)
        except (ValueError, RecursionError) as exc:  # or nested too deep
            raise ValueError(f"not a JSON document: {exc}") from exc
    return complex_from_doc(doc)[0]


@mesh.command("stats")
@click.option("--in", "in_path", type=click.Path(exists=True, dir_okay=False),
              required=True)
def mesh_stats(in_path):
    """Size and shape of a mesh document: f-vectors, purity, Euler."""
    K = _read_mesh(in_path)
    yes_no = {True: "yes", False: "no"}
    click.echo(f"dimension: {K.dim}")
    click.echo(f"f-vector: {K.f_vector()}")
    click.echo(f"pure: {yes_no[K.is_pure()]}")
    click.echo(f"closed pseudomanifold: {yes_no[K.is_closed_pseudomanifold()]}")
    click.echo(f"euler characteristic: {euler_characteristic(K)}")
    if K.is_pure():
        click.echo(f"boundary f-vector: {boundary_subcomplex(K).f_vector()}")
    else:
        click.echo("boundary f-vector: undefined (not pure)")


@main.command("homology")
@click.option("--in", "in_path", type=click.Path(exists=True, dir_okay=False),
              required=True)
@click.option("--field", type=click.Choice(["q", "f2"]), default="q",
              show_default=True)
def homology_cmd(in_path, field):
    """Betti numbers of a mesh document."""
    click.echo(str(betti(_read_mesh(in_path), field)))


# ---------------------------------------------------------------------------
# verification suites
# ---------------------------------------------------------------------------


@main.command("verify")
@click.argument("suite", type=click.Choice([*SUITES, "all"]))
@click.option("--max-n", type=int, default=None,
              help="cap on n (never widens a suite's documented range)")
@click.option("--m", type=int, default=None, help="cap on grid density")
@click.option("--samples", type=click.IntRange(min=1), default=None,
              help="random samples for the sampled suites"
                   " (default: each suite's own)")
@click.option("--seed", type=int, default=0, show_default=True)
@click.option("--report", "report_path", type=click.Path(dir_okay=False),
              default=None, help="write the report as canonical JSON")
@click.option("--timings", is_flag=True,
              help="show each check's wall time and add it to the report"
                   " (the report is then no longer canonical)")
def verify(suite, max_n, m, samples, seed, report_path, timings):
    """Run a named verification suite; exit 0 only if it passes."""
    if report_path:  # fail on an unusable path before the run: "ab" keeps
        new = not os.path.exists(report_path)  # an old report as it is;
        open(report_path, "ab").close()  # a file it makes, at the path or
        if new:  # behind a dangling link, goes until the report is written
            os.remove(os.path.realpath(report_path))
    rep = run_suite(suite, max_n=max_n, m=m, samples=samples, seed=seed)
    click.echo(rep.to_text(timings), nl=False)
    if report_path:
        with open(report_path, "wb") as fh:
            fh.write(rep.to_bytes(timings))
        click.echo(f"report written to {report_path}")
    if not rep.passed:
        sys.exit(1)


if __name__ == "__main__":
    main()
