"""Named verification suites behind the `verify` command.

Each suite certifies one acceptance claim and returns a deterministic
VerificationReport; "all" chains every suite.  Scales are capped at the
documented desk-scale ranges, so a verify run terminates in minutes.
"""

from __future__ import annotations

import itertools
import random
from fractions import Fraction

from .phase import Phase, hyper_sum_list
from .covectors import (
    all_ones,
    enumerate_covectors,
    format_phase_vector,
    find_zero_triple,
    sign_leq_vec,
    sign_support,
    support,
    zero_in_sum,
)
from .order_complex import (
    join_to_model,
    model_to_join,
    random_join_point,
    random_model_point,
)
from .cells import (
    format_cell_label,
    meet_all,
    nu,
    ul_label,
    verify_meet_glb,
)
from .gluing import check_gluing, lattice_family, verify_slice_claims
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
    vertex_inclusion_map,
)
from .report import CheckResult, VerificationReport, run_check

__all__ = ["SUITES", "run_suite"]

SUITES = (
    "lemma-zero-oracle",
    "pieces",
    "sign-spheres",
    "gamma-roundtrip",
    "pn-combinatorics",
    "slice-claims",
    "slice-mesh",
    "boundary-ident",
    "full-sphere",
)

# widest n each suite accepts; --max-n only narrows these
_N_CAP = {
    "lemma-zero-oracle": 5,
    "pieces": 5,
    "sign-spheres": 5,
    "gamma-roundtrip": 6,
    "pn-combinatorics": 7,
    "slice-claims": 4,
    "slice-mesh": 4,
    "boundary-ident": 4,
    "full-sphere": 3,
}
_N_FLOOR = {"sign-spheres": 3, "pn-combinatorics": 3, "slice-claims": 3,
            "slice-mesh": 3, "boundary-ident": 3, "full-sphere": 2}


def _grid_phases(m: int) -> list[Phase]:
    return [Phase.zero()] + [Phase.of(Fraction(k, m)) for k in range(m)]


def _grids(m_cap: int) -> list[int]:
    return [m for m in (2, 4, 6, 8) if m <= m_cap]


def _suite_zero_oracle(rep: VerificationReport, max_n: int, m_cap: int):
    for m in _grids(m_cap):
        alphabet = _grid_phases(m)
        for n in range(1, max_n + 1):
            def agree(alphabet=alphabet, n=n):
                count = 0
                for xs in itertools.product(alphabet, repeat=n):
                    count += 1
                    if zero_in_sum(xs) != hyper_sum_list(xs).contains_zero:
                        return "mismatch at " + ",".join(str(p) for p in xs)
                return None
            total = len(alphabet) ** n
            rep.add(run_check(f"oracle-agreement:m={m},n={n}", agree,
                              m=m, n=n, inputs=total))


def _suite_pieces(rep: VerificationReport, max_n: int, m_cap: int):
    for m in _grids(m_cap):
        for n in range(3, max_n + 1):
            def triples(m=m, n=n):
                checked = 0
                for x in enumerate_covectors("phase", n, m):
                    if len(support(x)) < 3:
                        continue
                    checked += 1
                    t = find_zero_triple(x)
                    if t is None:
                        return f"no zero triple for {format_phase_vector(x)}"
                    j, k, l = t
                    if not (j < k < l):
                        return f"triple {t} not increasing"
                    if not zero_in_sum([x[j - 1], x[k - 1], x[l - 1]]):
                        return (f"triple {t} of {format_phase_vector(x)}"
                                " does not sum through zero")
                return None
            rep.add(run_check(f"zero-triples:m={m},n={n}", triples, m=m, n=n))


def _suite_sign_spheres(rep: VerificationReport, max_n: int):
    from .homology import order_complex_of_poset

    for n in range(3, max_n + 1):
        vs = [v for v in enumerate_covectors("sign", n)
              if len(sign_support(v)) >= 2]
        K = order_complex_of_poset(vs, sign_leq_vec)
        want = (1,) + (0,) * (n - 3) + (1,)
        for field in ("q", "f2"):
            def spherical(K=K, field=field, want=want):
                got = betti(K, field).betti
                return None if got == want else f"betti {got}, wanted {want}"
            rep.add(run_check(f"sign-sphere:n={n},field={field}", spherical,
                              n=n, field=field, elements=len(vs),
                              chains=len(K.tops)))


def _suite_gamma(rep: VerificationReport, max_n: int, samples: int, seed: int):
    ns = list(range(2, max_n + 1))
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


def _suite_pn(rep: VerificationReport, max_n: int):
    for n in range(3, max_n + 1):
        d = 2 * n - 4
        idx = range(1, n)
        for j in idx:
            cells = [ul_label(j, k, n) for k in idx]
            def row_glues(cells=cells, d=d):
                return check_gluing(lattice_family(cells, d)).summary()
            rep.add(run_check(f"family-gluing:n={n},j={j}", row_glues,
                              n=n, j=j))
        for size in range(1, n):
            for J in itertools.combinations(idx, size):
                jtag = ",".join(str(j) for j in J)
                def cross(J=J, n=n):
                    want = 2 * n - 3 - len(J)
                    for k in range(1, n):
                        mt = meet_all([ul_label(j, k, n) for j in J])
                        if nu(mt) != want:
                            return (f"nu({format_cell_label(mt)}) = {nu(mt)}"
                                    f" at k={k}, wanted {want}")
                    return None
                rep.add(run_check(f"cross-dim:n={n},J={{{jtag}}}", cross,
                                  n=n, J=jtag))
                if size >= 2:
                    def cross_glue(J=J, n=n):
                        cells = [meet_all([ul_label(j, k, n) for j in J])
                                 for k in range(1, n)]
                        fam = lattice_family(cells, 2 * n - 3 - len(J))
                        return check_gluing(fam).summary()
                    rep.add(run_check(f"cross-gluing:n={n},J={{{jtag}}}",
                                      cross_glue, n=n, J=jtag))
    for n in range(3, min(max_n, 5) + 1):
        def glb(n=n):
            ok, pair = verify_meet_glb(n)
            if ok:
                return None
            x, y = pair
            return (f"meet is not the greatest lower bound of"
                    f" {format_cell_label(x)} and {format_cell_label(y)}")
        rep.add(run_check(f"meet-glb:n={n}", glb, n=n))


def _suite_slice_claims(rep: VerificationReport, max_n: int, samples: int,
                        seed: int):
    for n in range(3, max_n + 1):
        sub = verify_slice_claims(n, samples=samples, seed=seed)
        for c in sub.checks:
            rep.add(CheckResult(name=f"n={n}:{c.name}", status=c.status,
                                params=dict(c.params, n=n), witness=c.witness,
                                runtime_s=c.runtime_s))


def _ball_checks(rep: VerificationReport, n: int, m: int):
    state = {}

    def build():
        state["K"] = assemble_slice(n, m)
        return None

    rep.add(run_check(f"slice-validity:n={n},m={m}", build, n=n, m=m))
    if "K" not in state:
        return
    K = state["K"]
    want = (1,) + (0,) * (2 * n - 4)
    for field in ("q", "f2"):
        def ball(field=field):
            got = betti(K, field).betti
            return None if got == want else f"betti {got}, wanted {want}"
        rep.add(run_check(f"slice-betti:n={n},m={m},field={field}", ball,
                          n=n, m=m, field=field, tops=len(K.tops)))

    def chi():
        e = euler_characteristic(K)
        return None if e == 1 else f"euler characteristic {e}"

    rep.add(run_check(f"slice-euler:n={n},m={m}", chi, n=n, m=m))


def _suite_slice_mesh(rep: VerificationReport, max_n: int, m_cap: int):
    for m in (2, 4):
        if m <= m_cap:
            _ball_checks(rep, 3, m)
    if max_n >= 4:
        _ball_checks(rep, 4, 2)


def _suite_boundary(rep: VerificationReport, max_n: int, m_cap: int):
    for m in (2, 4):
        if m > m_cap:
            continue
        def ident(m=m):
            B = boundary_subcomplex(assemble_slice(3, m))
            ok, why = complex_isomorphic(B, assemble_full(2, m),
                                         drop_last_coordinate)
            return None if ok else why
        rep.add(run_check(f"boundary-circle:m={m}", ident, n=3, m=m))
    if max_n >= 4:
        state = {}

        def build():
            state["B"] = boundary_subcomplex(assemble_slice(4, 2))
            return None

        rep.add(run_check("boundary-build:n=4,m=2", build, n=4, m=2))
        if "B" in state:
            for field in ("q", "f2"):
                def sphere(field=field):
                    got = betti(state["B"], field).betti
                    if got != (1, 0, 0, 1):
                        return f"betti {got}, wanted (1,0,0,1)"
                    return None
                rep.add(run_check(
                    f"boundary-sphere:n=4,m=2,field={field}", sphere,
                    n=4, m=2, field=field))


def _suite_full_sphere(rep: VerificationReport, max_n: int, m_cap: int):
    for m in (2, 4):
        if m > m_cap:
            continue
        def circle(m=m):
            got = betti(assemble_full(2, m)).betti
            return None if got == (1, 1) else f"betti {got}, wanted (1,1)"
        rep.add(run_check(f"full-circle:n=2,m={m}", circle, n=2, m=m))
    if max_n < 3:
        return
    K = assemble_full(3, 2)
    rep.add(CheckResult(name="full-assembly:n=3,m=2", status="pass",
                        params={"n": 3, "m": 2, "route": "direct",
                                "tops": len(K.tops)}))

    def closed():
        if not K.is_closed_pseudomanifold():
            return "some codimension-1 face is not in exactly two tops"
        return None

    rep.add(run_check("full-pseudomanifold:n=3,m=2", closed, n=3, m=2))
    for field in ("q", "f2"):
        def sphere(field=field):
            got = betti(K, field).betti
            if got != (1, 0, 0, 1):
                return f"betti {got}, wanted (1,0,0,1)"
            return None
        rep.add(run_check(f"full-sphere:n=3,m=2,field={field}", sphere,
                          n=3, m=2, field=field))

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


def _one_suite(rep: VerificationReport, suite: str, max_n: int | None,
               m: int | None, samples: int | None, seed: int):
    cap = _N_CAP[suite]
    top = cap if max_n is None else min(max_n, cap)
    if top < _N_FLOOR.get(suite, 1):
        raise ValueError(f"suite {suite} needs max_n >= "
                         f"{_N_FLOOR.get(suite, 1)}")
    m_cap = 8 if m is None else m
    if m_cap < 2 or m_cap % 2 != 0:
        raise ValueError("m must be an even number >= 2")
    if suite == "lemma-zero-oracle":
        _suite_zero_oracle(rep, top, m_cap)
    elif suite == "pieces":
        _suite_pieces(rep, top, m_cap)
    elif suite == "sign-spheres":
        _suite_sign_spheres(rep, top)
    elif suite == "gamma-roundtrip":
        _suite_gamma(rep, top, 10000 if samples is None else samples, seed)
    elif suite == "pn-combinatorics":
        _suite_pn(rep, top)
    elif suite == "slice-claims":
        _suite_slice_claims(rep, top, 1000 if samples is None else samples,
                            seed)
    elif suite == "slice-mesh":
        _suite_slice_mesh(rep, top, 4 if m is None else m_cap)
    elif suite == "boundary-ident":
        _suite_boundary(rep, top, 4 if m is None else m_cap)
    elif suite == "full-sphere":
        _suite_full_sphere(rep, top, 4 if m is None else m_cap)


def run_suite(suite: str, *, max_n: int | None = None, m: int | None = None,
              samples: int | None = None, seed: int = 0) -> VerificationReport:
    """Run one named suite, or "all", and return its report.

    max_n and m narrow each suite's documented range but never widen it;
    None keeps the documented defaults.  samples applies to the sampled
    suites, seed to everything randomized.
    """
    if suite != "all" and suite not in SUITES:
        raise ValueError(f"unknown suite {suite!r}")
    params = {"max_n": max_n, "m": m, "samples": samples}
    rep = VerificationReport(
        suite=suite, seed=seed,
        params={k: v for k, v in params.items() if v is not None})
    if suite == "all":
        for name in SUITES:
            sub = VerificationReport(suite=name, seed=seed)
            _one_suite(sub, name, max_n, m, samples, seed)
            for c in sub.checks:
                rep.add(CheckResult(name=f"{name}:{c.name}", status=c.status,
                                    params=c.params, witness=c.witness,
                                    runtime_s=c.runtime_s))
    else:
        _one_suite(rep, suite, max_n, m, samples, seed)
    return rep
