"""The four certificate workloads: seeded inputs, library calls, checks.

A workload is a `setup(seed, smoke)` that builds the inputs and a list of
steps that turn them into a certificate.  Every output is compared with
a value fixed at the commit that defined the benchmark: exact f-vectors
and Betti numbers, and the sha256 of each suite report's canonical bytes.
Library functions are always looked up as module attributes at call
time, so the tracer's wrappers see every call the benchmark makes.

Why these four:
  grid-kernel       the phase/covector kernel alone, on exhaustive grids;
  sampled-geometry  the same kernel on off-grid rationals, plus the
                    order complex, cell predicates and gluing checks;
                    the only workload the seed drives;
  slice-ball        chart meshing, interface checks and homology of the
                    n=4, m=4 slice (no kernel work);
  sphere-homology   the full n=3, m=6 space and the Mayer-Vietoris path,
                    where homology dominates.
"""

from __future__ import annotations

import hashlib
import json
import random
from fractions import Fraction

from phasetop import covectors, homology, mesh, phase, suites

# Suite report digests at the defining commit, keyed by (suite, params).
# A passing report's bytes depend on the seed only through its "seed"
# field, which is set to 0 before hashing (see `report_digest`).
REPORT_SHA256 = {
    "lemma-zero-oracle,m=6":
        "cf1d2c6c1f8a54da6ba03b844e49eab4381fd2ebfbe56cf0bc694d374907670f",
    "pieces,m=6":
        "94f7e5eab38037a0bd041df0bb55b207a5c46a7050a8474c1340a1becffba31b",
    "gamma-roundtrip,samples=10000":
        "e0b822436ad0b82438464123ad013eef974adf2bc7e7b098a5fc63c220574e4e",
    "slice-claims,samples=1000":
        "9deccad3514d91f9a7d2fd6b4feafa1f6bd4deb1fab9c7ab89f3b57d0d6ed8b0",
    "pn-combinatorics":
        "a6ade11aa36b0aee71bb780773922d1004701472196de391c3220d264e71a1fb",
    "sign-spheres":
        "8b2b5968775e64d80aeca3bc29045f7d9b3552308c5fb5f175cb1a9f31a9a3f1",
    # smoke sizes
    "lemma-zero-oracle,m=2,max_n=4":
        "3b9e1ccf3ee2539c93387af35f71990daec6fa4db19bfc23eeeef703e5d9452a",
    "pieces,m=2,max_n=4":
        "1acf8d6708e391c1f9d50a7ec46e3810b87f86ffa97f646517b51c2c3b564c2e",
    "gamma-roundtrip,max_n=4,samples=40":
        "422584c7a7353eae5b427b5f4d2490f1106e4f2a70b3f451fdc15177c7fbfa52",
    "slice-claims,max_n=3,samples=20":
        "9287ca69ce691a7b869c16391f5bbbbfffadc5f047b0be463b57c923b9e17ee3",
    "pn-combinatorics,max_n=4":
        "405d20b6d551437809e91d39a397014bf772aa24a4c259875012357706e4d04d",
    "sign-spheres,max_n=4":
        "bf55b1d328a2fd56bcb97a156fb382fcdc35a8af5b34bdad2c64ad059a002475",
}


def report_digest(rep) -> str:
    """sha256 of the report's canonical bytes with the seed field at 0."""
    doc = rep.to_doc()
    doc["seed"] = 0
    return hashlib.sha256(
        (json.dumps(doc, indent=2, sort_keys=True) + "\n").encode()).hexdigest()


class Checks:
    """Collects operations: suite checks and the benchmark's own checks."""

    def __init__(self):
        self.ops = []  # (name, ok, detail)

    def expect(self, name: str, got, want) -> None:
        ok = got == want
        self.ops.append((name, ok, None if ok else f"got {got!r}, want {want!r}"))

    def fail(self, name: str, detail: str) -> None:
        self.ops.append((name, False, detail))

    def suite(self, name: str, **params):
        """Run a suite; each CheckResult and the report digest is an op."""
        rep = suites.run_suite(name, **params)
        for c in rep.checks:
            self.ops.append((f"{name}:{c.name}", c.status != "fail", c.witness))
        key = ",".join([name] + [f"{k}={params[k]}" for k in sorted(params)
                                 if k != "seed"])
        self.expect(f"{name}:sha256", report_digest(rep), REPORT_SHA256.get(key))
        return rep


# ---------------------------------------------------------------------------
# grid-kernel
# ---------------------------------------------------------------------------


def _grid_setup(seed, smoke):
    # exhaustive grids: the seed is unused
    return {"m": 2, "max_n": 4} if smoke else {"m": 6}


def _grid_oracle(inp, ck):
    ck.suite("lemma-zero-oracle", **inp)


def _grid_pieces(inp, ck):
    ck.suite("pieces", **inp)


# ---------------------------------------------------------------------------
# sampled-geometry
# ---------------------------------------------------------------------------


def offgrid_vectors(seed: int, count: int, max_len: int):
    """Seeded phase vectors with large denominators and ~15% zeros.

    Every fourth vector is given an exact antipodal pair or a repeated
    angle, the boundary cases of the half-circle test.
    """
    rng = random.Random(f"offgrid:{seed}")
    out = []
    for i in range(count):
        n = rng.randint(3, max_len)
        turns = []
        for _ in range(n):
            if rng.random() < 0.15:
                turns.append(None)
            else:
                q = rng.randint(1, 10**6)
                turns.append(Fraction(rng.randrange(q), q))
        if i % 4 == 0:
            a, b = rng.sample(range(n), 2)
            if turns[a] is None:
                q = rng.randint(1, 10**6)
                turns[a] = Fraction(rng.randrange(q), q)
            shift = Fraction(1, 2) if i % 8 == 0 else Fraction(0)
            turns[b] = (turns[a] + shift) % 1
        out.append(covectors.PhaseVector(tuple(
            phase.ZERO if t is None else phase.Phase.of(t) for t in turns)))
    return out


def _sampled_setup(seed, smoke):
    if smoke:
        return {"seed": seed, "gamma": {"samples": 40, "max_n": 4},
                "slice": {"samples": 20, "max_n": 3},
                "pn": {"max_n": 4},
                "offgrid": offgrid_vectors(seed, 200, 4)}
    return {"seed": seed, "gamma": {"samples": 10000},
            "slice": {"samples": 1000}, "pn": {},
            "offgrid": offgrid_vectors(seed, 10000, 6)}


def _sampled_gamma(inp, ck):
    ck.suite("gamma-roundtrip", seed=inp["seed"], **inp["gamma"])


def _sampled_slice(inp, ck):
    ck.suite("slice-claims", seed=inp["seed"], **inp["slice"])


def _sampled_pn(inp, ck):
    ck.suite("pn-combinatorics", **inp["pn"])


def _sampled_offgrid(inp, ck):
    """Kernel against the fold oracle, and a zero triple per covector."""
    for i, x in enumerate(inp["offgrid"]):
        name = f"offgrid:{i}"
        try:
            z = covectors.zero_in_sum(x)
            if z != phase.hyper_sum_list(x).contains_zero:
                ck.fail(name, f"kernel and fold oracle disagree on {x}")
                continue
            if z and len(covectors.support(x)) >= 3:
                t = covectors.find_zero_triple(x)
                if t is None or not t[0] < t[1] < t[2] or not (
                        covectors.zero_in_sum([x[j - 1] for j in t])):
                    ck.fail(name, f"bad zero triple {t} for {x}")
                    continue
            ck.ops.append((name, True, None))
        except Exception as exc:  # noqa: BLE001 - an exception is a failed op
            ck.fail(name, f"exception: {exc!r}")


# ---------------------------------------------------------------------------
# slice-ball
# ---------------------------------------------------------------------------


def _slice_setup(seed, smoke):
    if smoke:
        return {"n": 3, "m": 2, "fvec": (11, 26, 16), "betti": (1, 0, 0),
                "bd_fvec": (4, 4), "bd_betti": (1, 1)}
    return {"n": 4, "m": 4, "fvec": (421, 4572, 13464, 15072, 5760),
            "betti": (1, 0, 0, 0, 0), "bd_fvec": (240, 1584, 2688, 1344),
            "bd_betti": (1, 0, 0, 1)}


def _slice_assemble(inp, ck):
    inp["K"] = mesh.assemble_slice(inp["n"], inp["m"])


def _slice_doc_roundtrip(inp, ck):
    """What `phasetop mesh slice` then `phasetop homology` do to the mesh."""
    K = inp["K"]
    text = json.dumps(mesh.complex_to_doc(K, inp["n"], inp["m"]),
                      indent=2, sort_keys=True)
    K2, n, m = mesh.complex_from_doc(json.loads(text))
    ck.expect("slice:doc-roundtrip", (K2.vertices, K2.tops, n, m),
              (K.vertices, K.tops, inp["n"], inp["m"]))
    inp["K"] = K2


def _slice_homology(inp, ck):
    K = inp["K"]
    ck.expect("slice:f-vector", K.f_vector(), inp["fvec"])
    for field in ("q", "f2"):
        ck.expect(f"slice:betti:{field}", homology.betti(K, field).betti,
                  inp["betti"])
    ck.expect("slice:euler", homology.euler_characteristic(K), 1)


def _slice_boundary(inp, ck):
    B = mesh.boundary_subcomplex(inp["K"])
    ck.expect("boundary:closed-pseudomanifold", B.is_closed_pseudomanifold(),
              True)
    ck.expect("boundary:f-vector", B.f_vector(), inp["bd_fvec"])
    for field in ("q", "f2"):
        ck.expect(f"boundary:betti:{field}", homology.betti(B, field).betti,
                  inp["bd_betti"])


# ---------------------------------------------------------------------------
# sphere-homology
# ---------------------------------------------------------------------------


def _sphere_setup(seed, smoke):
    if smoke:
        return {"signs": {"max_n": 4}, "m": 2, "fvec": (48, 288, 480, 240)}
    return {"signs": {}, "m": 6, "fvec": (672, 4560, 7776, 3888)}


def _sphere_signs(inp, ck):
    ck.suite("sign-spheres", **inp["signs"])


def _sphere_direct(inp, ck):
    K = mesh.assemble_full(3, inp["m"])
    inp["K"] = K
    ck.expect("full:closed-pseudomanifold", K.is_closed_pseudomanifold(), True)
    ck.expect("full:f-vector", K.f_vector(), inp["fvec"])
    for field in ("q", "f2"):
        ck.expect(f"full:betti:{field}", homology.betti(K, field).betti,
                  (1, 0, 0, 1))


def _sphere_mayer_vietoris(inp, ck):
    P = mesh.full_space_pieces(3, inp["m"])
    ma = homology.vertex_inclusion_map(P.interface, P.rotation)
    mb = homology.vertex_inclusion_map(P.interface, P.base)
    for field in ("q", "f2"):
        got = homology.mayer_vietoris_assemble(
            P.rotation, P.base, P.interface, ma, mb, field).betti
        ck.expect(f"full:mayer-vietoris:{field}", got, (1, 0, 0, 1))


WORKLOADS = {
    "grid-kernel": (_grid_setup, [
        ("lemma-zero-oracle", _grid_oracle),
        ("pieces", _grid_pieces),
    ]),
    "sampled-geometry": (_sampled_setup, [
        ("gamma-roundtrip", _sampled_gamma),
        ("slice-claims", _sampled_slice),
        ("pn-combinatorics", _sampled_pn),
        ("offgrid-kernel", _sampled_offgrid),
    ]),
    "slice-ball": (_slice_setup, [
        ("assemble-slice", _slice_assemble),
        ("doc-roundtrip", _slice_doc_roundtrip),
        ("slice-homology", _slice_homology),
        ("boundary", _slice_boundary),
    ]),
    "sphere-homology": (_sphere_setup, [
        ("sign-spheres", _sphere_signs),
        ("full-direct", _sphere_direct),
        ("full-mayer-vietoris", _sphere_mayer_vietoris),
    ]),
}
