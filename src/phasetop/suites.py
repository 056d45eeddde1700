"""Named verification suites behind the `verify` command.

Each suite certifies one acceptance claim and returns a deterministic
VerificationReport; "all" chains every suite.  Scales are capped at the
documented desk-scale ranges held in `SUITES`, so a verify run
terminates in minutes.
"""

from __future__ import annotations

import functools
import itertools
import random
from dataclasses import dataclass
from typing import Callable

from .phase import hyper_sum_list
from .covectors import (
    _phase_alphabet,
    enumerate_covectors,
    format_phase_vector,
    find_zero_triple,
    iter_covectors,
    sign_leq_vec,
    support,
    zero_in_sum,
)
from .order_complex import (
    join_to_model,
    model_to_join,
    random_join_point,
    random_model_point,
)
from .cells import format_cell_label, verify_meet_glb
from .gluing import (
    chart_family,
    check_gluing,
    dimension_witness,
    verify_slice_claims,
)
from .mesh import (
    assemble_full,
    assemble_slice,
    boundary_subcomplex,
    complex_isomorphic,
    drop_last_coordinate,
    full_space_pieces,
)
from .homology import (
    betti,
    euler_characteristic,
    mayer_vietoris_assemble,
    order_complex_of_poset,
    vertex_inclusion_map,
)
from .report import VerificationReport, run_check

__all__ = ["SUITES", "Suite", "run_suite"]


def _grids(m_cap: int) -> list[int]:
    return [m for m in (2, 4, 6, 8) if m <= m_cap]


def _built(rep: VerificationReport, name: str, build: Callable, **params):
    """Run build() as the check `name`: its result, or None if it failed."""
    out = []
    rep.add(run_check(name, lambda: out.append(build()), **params))
    return out[0] if out else None


def _betti_witness(K, want: tuple, field: str = "q") -> str | None:
    got = betti(K, field).betti
    return None if got == want else f"betti {got}, wanted {want}"


def _betti_checks(rep: VerificationReport, name: str, K, want: tuple,
                  **params):
    """Check K's Betti numbers over Q and F2 as `{name},field={F}`."""
    for field in ("q", "f2"):
        rep.add(run_check(f"{name},field={field}",
                          lambda: _betti_witness(K, want, field),
                          field=field, **params))


def _suite_zero_oracle(rep, ns, m_cap, samples, seed):
    for m in _grids(m_cap):
        alphabet = _phase_alphabet(m)
        for n in ns:
            def agree(alphabet=alphabet, n=n):
                for xs in itertools.product(alphabet, repeat=n):
                    if zero_in_sum(xs) != hyper_sum_list(xs).contains_zero:
                        return "mismatch at " + ",".join(str(p) for p in xs)
                return None
            total = len(alphabet) ** n
            rep.add(run_check(f"oracle-agreement:m={m},n={n}", agree,
                              m=m, n=n, inputs=total))


def _suite_pieces(rep, ns, m_cap, samples, seed):
    for m in _grids(m_cap):
        for n in ns:
            def triples(m=m, n=n):
                for x in iter_covectors("phase", n, m):
                    if len(support(x)) < 3:
                        continue
                    t = find_zero_triple(x)
                    if t is None:
                        return f"no zero triple for {format_phase_vector(x)}"
                    j, k, l = t
                    if not (j < k < l):
                        return f"triple {t} not increasing"
                    e = x.entries
                    if not zero_in_sum([e[j - 1], e[k - 1], e[l - 1]]):
                        return (f"triple {t} of {format_phase_vector(x)}"
                                " does not sum through zero")
                return None
            rep.add(run_check(f"zero-triples:m={m},n={n}", triples, m=m, n=n))


def _suite_sign_spheres(rep, ns, m_cap, samples, seed):
    for n in ns:
        vs = enumerate_covectors("sign", n)
        K = order_complex_of_poset(vs, sign_leq_vec)
        _betti_checks(rep, f"sign-sphere:n={n}", K,
                      (1,) + (0,) * (n - 3) + (1,),
                      n=n, elements=len(vs), chains=len(K.tops))


def _suite_gamma(rep, ns, m_cap, samples, seed):
    per = max(1, -(-samples // len(ns)))
    for n in ns:
        def round_trips(n=n):
            rng = random.Random(f"gamma:{n}:{seed}")
            for _ in range(per):
                p = random_join_point(rng, n)
                if model_to_join(join_to_model(p)) != p:
                    return f"join round trip broke at {p}"
                z = random_model_point(rng, n)
                if join_to_model(model_to_join(z)) != z:
                    return f"model round trip broke at {z}"
            return None
        rep.add(run_check(f"gamma-round-trip:n={n}", round_trips,
                          n=n, samples=per))


def _suite_pn(rep, ns, m_cap, samples, seed):
    # one build per (J, n), made by the first check that needs it; a build
    # that raises is not kept, so it fails every check that uses it
    family = functools.cache(chart_family)
    for n in ns:
        idx = range(1, n)
        for j in idx:
            rep.add(run_check(
                f"family-gluing:n={n},j={j}",
                lambda j=j, n=n: check_gluing(family((j,), n)).summary(),
                n=n, j=j))
        for size in range(1, n):
            for J in itertools.combinations(idx, size):
                jtag = ",".join(str(j) for j in J)
                rep.add(run_check(
                    f"cross-dim:n={n},J={{{jtag}}}",
                    lambda J=J, n=n: dimension_witness(family(J, n)),
                    n=n, J=jtag))
                if size >= 2:
                    rep.add(run_check(
                        f"cross-gluing:n={n},J={{{jtag}}}",
                        lambda J=J, n=n: check_gluing(family(J, n)).summary(),
                        n=n, J=jtag))
    for n in range(ns.start, min(ns.stop, 6)):
        def glb(n=n):
            ok, pair = verify_meet_glb(n)
            if ok:
                return None
            x, y = pair
            return (f"meet is not the greatest lower bound of"
                    f" {format_cell_label(x)} and {format_cell_label(y)}")
        rep.add(run_check(f"meet-glb:n={n}", glb, n=n))


def _suite_slice_claims(rep, ns, m_cap, samples, seed):
    for n in ns:
        sub = verify_slice_claims(n, samples=samples, seed=seed)
        rep.extend(sub.checks, prefix=f"n={n}:", n=n)


def _suite_slice_mesh(rep, ns, m_cap, samples, seed):
    for n in ns:
        for m in _grids(m_cap) if n == 3 else (2,):
            K = _built(rep, f"slice-validity:n={n},m={m}",
                       lambda n=n, m=m: assemble_slice(n, m), n=n, m=m)
            if K is None:
                continue
            _betti_checks(rep, f"slice-betti:n={n},m={m}", K,
                          (1,) + (0,) * (2 * n - 4),
                          n=n, m=m, tops=len(K.tops))

            def chi(K=K):
                e = euler_characteristic(K)
                return None if e == 1 else f"euler characteristic {e}"

            rep.add(run_check(f"slice-euler:n={n},m={m}", chi, n=n, m=m))


def _suite_boundary(rep, ns, m_cap, samples, seed):
    for m in _grids(m_cap):
        def ident(m=m):
            B = boundary_subcomplex(assemble_slice(3, m))
            ok, why = complex_isomorphic(B, assemble_full(2, m),
                                         drop_last_coordinate)
            return None if ok else why
        rep.add(run_check(f"boundary-circle:m={m}", ident, n=3, m=m))
    if 4 not in ns:
        return
    B = _built(rep, "boundary-build:n=4,m=2",
               lambda: boundary_subcomplex(assemble_slice(4, 2)), n=4, m=2)
    if B is None:
        return
    _betti_checks(rep, "boundary-sphere:n=4,m=2", B, (1, 0, 0, 1), n=4, m=2)


def _suite_full_sphere(rep, ns, m_cap, samples, seed):
    for m in _grids(m_cap):
        rep.add(run_check(
            f"full-circle:n=2,m={m}",
            lambda m=m: _betti_witness(assemble_full(2, m), (1, 1)),
            n=2, m=m))
    if 3 not in ns:
        return
    K = _built(rep, "full-assembly:n=3,m=2", lambda: assemble_full(3, 2),
               n=3, m=2, route="direct")
    if K is None:
        return
    rep.checks[-1].params["tops"] = len(K.tops)  # known once the build passed

    def closed():
        if not K.is_closed_pseudomanifold():
            return "some codimension-1 face is not in exactly two tops"
        return None

    rep.add(run_check("full-pseudomanifold:n=3,m=2", closed, n=3, m=2))
    _betti_checks(rep, "full-sphere:n=3,m=2", K, (1, 0, 0, 1), n=3, m=2)

    def cross_check():
        P = full_space_pieces(3, 2)
        ma = vertex_inclusion_map(P.interface, P.rotation)
        mb = vertex_inclusion_map(P.interface, P.base)
        got = mayer_vietoris_assemble(P.rotation, P.base, P.interface,
                                      ma, mb).betti
        direct = betti(K).betti
        if got != direct:
            return f"mayer-vietoris {got} disagrees with direct {direct}"
        return None

    rep.add(run_check("full-sphere-mv-cross-check:n=3,m=2", cross_check,
                      n=3, m=2))


@dataclass(frozen=True)
class Suite:
    """A suite's function and its documented scale.

    `ns` is every n the suite checks, `m_cap` the densest grid it meshes
    and `samples` its sample count (None where nothing is sampled);
    `--max-n` and `--m` only truncate these.
    """

    run: Callable
    ns: range
    m_cap: int
    samples: int | None = None


SUITES = {
    "lemma-zero-oracle": Suite(_suite_zero_oracle, range(1, 6), 8),
    "pieces": Suite(_suite_pieces, range(3, 6), 8),
    "sign-spheres": Suite(_suite_sign_spheres, range(3, 6), 8),
    "gamma-roundtrip": Suite(_suite_gamma, range(2, 7), 8, 10000),
    "pn-combinatorics": Suite(_suite_pn, range(3, 8), 8),
    "slice-claims": Suite(_suite_slice_claims, range(3, 5), 8, 1000),
    "slice-mesh": Suite(_suite_slice_mesh, range(3, 5), 4),
    "boundary-ident": Suite(_suite_boundary, range(3, 5), 4),
    "full-sphere": Suite(_suite_full_sphere, range(2, 4), 4),
}


def _scales(name: str, max_n: int | None, m: int | None):
    """The suite's n range and m cap, truncated by max_n and m."""
    spec = SUITES[name]
    ns = spec.ns
    if max_n is not None:
        ns = range(ns.start, min(ns.stop, max_n + 1))
    if not ns:
        raise ValueError(f"suite {name} needs max_n >= {ns.start}")
    return ns, spec.m_cap if m is None else min(m, spec.m_cap)


def run_suite(suite: str, *, max_n: int | None = None, m: int | None = None,
              samples: int | None = None, seed: int = 0) -> VerificationReport:
    """Run one named suite, or "all", and return its report.

    max_n and m narrow each suite's documented range but never widen it;
    None keeps the documented defaults.  samples applies to the sampled
    suites, seed to everything randomized.
    """
    if suite != "all" and suite not in SUITES:
        raise ValueError(f"unknown suite {suite!r}")
    if m is not None and (m < 2 or m % 2 != 0):
        raise ValueError("m must be an even number >= 2")
    if samples is not None and samples < 1:
        raise ValueError("samples must be >= 1")
    names = list(SUITES) if suite == "all" else [suite]
    scales = {name: _scales(name, max_n, m) for name in names}
    params = {"max_n": max_n, "m": m, "samples": samples}
    rep = VerificationReport(
        suite=suite, seed=seed,
        params={k: v for k, v in params.items() if v is not None})
    for name in names:
        spec = SUITES[name]
        sub = VerificationReport(suite=name, seed=seed)
        spec.run(sub, *scales[name],
                 spec.samples if samples is None else samples, seed)
        rep.extend(sub.checks, prefix=f"{name}:" if suite == "all" else "")
    return rep
