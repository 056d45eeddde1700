"""The mutation catalogue: small wrong edits that the tests must refuse.

Each `Mutant` names a file under the repository root, a source string
found exactly once in it, the text that replaces it, and the pytest node
ids expected to fail under the edit (its killers).  `mutants/run.py`
applies each mutant to a copy of the tree and runs only its killers.
Every mutant has the same wall-clock cap: three times the unmutated run
of all the killers together, which the runner times first, so no entry
carries a time of its own.
`EQUIVALENT` lists edits that no test can refuse, with the reason they
change no result; the runner checks that their source strings still
match, so the reasons stay attached to code that exists.

The catalogue holds one mutant per kernel of the certifier and one per
rule that is written in one place only (the label order, the sign
tokens, the signs' phases, the sign alphabet of the covector loop, the
covector loop's one zero test per set of ticks, the fraction format, the
value-type refusals, and the integer rules of the value types: the
reduced ratio of an angle and of a radius, the lcm form of the weights,
the centre's angle and phase, the reduced radius of each chain term),
and the mutants that past changes' mutation checks killed by hand.  A new entry
should be one that a past change's mutation check once found, or that a
new kernel or rule needs.
"""

from __future__ import annotations

from typing import NamedTuple


class Mutant(NamedTuple):
    name: str
    file: str
    source: str
    replacement: str
    killers: tuple[str, ...]


class Equivalent(NamedTuple):
    name: str
    file: str
    source: str
    replacement: str
    reason: str


MUTANTS = [
    # -- kernels ------------------------------------------------------------
    Mutant(
        "zero_in_sum-lcm-skips-first-denominator",
        "src/phasetop/covectors.py",
        "whole = math.lcm(*[a.den for a in angles])",
        "whole = math.lcm(*[a.den for a in angles[1:]])",
        ("tests/test_covectors.py::test_zero_in_sum_agrees_with_fold_oracle",
         "tests/test_covectors.py::test_zero_in_sum_matches_fold_oracle_off_grid")),
    Mutant(
        # the grid loop decides each set of ticks once; a key that misses a
        # coordinate hands one set's answer to combos with other ticks
        "enumerate_covectors-tick-set-drops-first-coordinate",
        "src/phasetop/covectors.py",
        "key = frozenset(combo)",
        "key = frozenset(combo[1:])",
        ("tests/test_covectors.py::"
         "test_enumerate_covectors_is_the_oracle_filter_of_the_grid",)),
    Mutant(
        # once stalled tests/test_homology.py for over 6 minutes at 490 MB;
        # the mesh engine tests fail in seconds
        "engine-low-read-as-first-facet",
        "src/phasetop/homology.py",
        "low = col[-1] if type(col) is tuple else max(col)",
        "low = col[0] if type(col) is tuple else max(col)",
        ("tests/test_homology.py::test_engine_matches_reference_engine_on_meshes",)),
    Mutant(
        # the cone's intersection column puts -(boundary of x) in the rows
        # after A's and B's; at B's offset it lands on B's simplices (and
        # over F2 its tuple of rows is no longer ascending)
        "mv-cone-intersection-boundary-at-b-offset",
        "src/phasetop/homology.py",
        "rows += [shift + r for r in facets]",
        "rows += [na + r for r in facets]",
        ("tests/test_homology.py::"
         "test_mv_projective_plane_from_moebius_band_and_disc",)),
    Mutant(
        # the bound over all ids decides; the per-top loop only names the
        # first bad top once it has
        "face_table-index-range-off-by-one",
        "src/phasetop/mesh.py",
        "max(ids(tops), default=-1) < nv",
        "max(ids(tops), default=-1) <= nv",
        ("tests/test_mesh.py::test_incidence_checks_validate_the_complex",
         "tests/test_mesh.py::"
         "test_the_face_table_names_the_first_bad_top_as_the_loop_did")),
    Mutant(
        # _reductions keeps a facet row whose low is free without calling
        # the engine; keyed by its first facet, it is a pivot at a row it
        # does not end in
        "reductions-emergent-low-read-as-first-facet",
        "src/phasetop/homology.py",
        "claim(col[-1], col)",
        "claim(col[0], col)",
        ("tests/test_homology.py::test_engine_matches_reference_engine_on_meshes",)),
    Mutant(
        # the same ridges in a pseudomanifold, whose ridges lie in one or
        # two tops; a ridge in three tops tells them apart
        "boundary-ridges-in-other-than-two-tops",
        "src/phasetop/mesh.py",
        "if c == 1)",
        "if c != 2)",
        ("tests/test_mesh.py::test_the_boundary_table_is_the_rebuilt_table",)),
    Mutant(
        "slice-vertex-keys-unsorted",
        "src/phasetop/mesh.py",
        "    order = sorted(set(itertools.chain.from_iterable(\n"
        "        itertools.chain.from_iterable(pieces.values()))))",
        "    order = list(dict.fromkeys(itertools.chain.from_iterable(\n"
        "        itertools.chain.from_iterable(pieces.values()))))",
        ("tests/test_mesh.py::test_ticks_round_trip",
         "tests/test_mesh.py::test_mesh_documents_are_pinned")),
    Mutant(
        "bx_member-cross-multiplication-swapped",
        "src/phasetop/cells.py",
        "if lb * ud > ua * ld or (strict and lb * ud == ua * ld):",
        "if ua * ld > lb * ud or (strict and lb * ud == ua * ld):",
        ("tests/test_cells.py::test_bx_member_examples",
         "tests/test_cells.py::test_bx_member_matches_the_reference_on_grid_points")),
    Mutant(
        "model_to_join-merges-equal-levels-late",
        "src/phasetop/order_complex.py",
        "        if r < level:",
        "        if r <= level:",
        # the special points first: the hypothesis test fails too, but
        # takes 6-10 s to shrink its counterexample
        ("tests/test_ratio_kernels.py::"
         "test_model_to_join_matches_the_reference_on_special_points",
         "tests/test_ratio_kernels.py::test_model_to_join_matches_the_reference")),
    Mutant(
        "check_gluing-wrong-sub-meet",
        "src/phasetop/gluing.py",
        "sub = meet_over(tuple(i for i in J if i != r))",
        "sub = meet_over(tuple(i for i in J if i != J[0]))",
        ("tests/test_gluing.py::"
         "test_check_gluing_matches_the_reference_on_failing_families",
         "tests/test_gluing.py::"
         "test_check_gluing_matches_the_reference_on_every_chart_family")),
    Mutant(
        # the same sets for charts built right, so once recorded as
        # equivalent; the tests that hand the slice a faulty chart tell them
        # apart
        "slice-inside-sets-from-chart-vertices",
        "src/phasetop/mesh.py",
        "inside = {jk: {vid[key] for key in box if key in vid}",
        "inside = {jk: {vid[key] for s in pieces[jk] for key in s}",
        ("tests/test_mesh.py::test_interface_mismatch_is_an_error_naming_points",
         "tests/test_mesh.py::"
         "test_interface_witness_is_the_smallest_disputed_face")),
    Mutant(
        # a facet row is read as it stands, +1 at its low; read as -1 there,
        # the step adds the row where it must subtract it
        "engine-tuple-row-low-read-as-minus-one",
        "src/phasetop/homology.py",
        "ka, kb, entries = 1, a, zip(",
        "ka, kb, entries = 1, -a, zip(",
        ("tests/test_homology.py::"
         "test_eliminating_a_facet_row_is_eliminating_its_column",)),
    Mutant(
        # the regions share the torus: without de-duplication its faces
        # are listed twice in the glued full space
        "union-face-lists-merged-with-repeats",
        "src/phasetop/mesh.py",
        "faces = {d: sorted(dict.fromkeys(fs)) for d, fs in faces.items()}",
        "faces = {d: sorted(fs) for d, fs in faces.items()}",
        ("tests/test_mesh.py::"
         "test_the_full_space_is_glued_from_its_regions_tables",
         "tests/test_mesh.py::test_drawn_pairs_glue_as_the_keyed_union")),
    Mutant(
        # the key-first numbering keeps a repeated key as a repeated id;
        # only the whole-list length pass refuses it
        "keyed-repeated-key-check-dropped",
        "src/phasetop/mesh.py",
        "if list(map(len, tops)) != list(map(len, map(set, tops))):",
        "if False:",
        ("tests/test_mesh.py::"
         "test_keyed_refuses_a_repeated_key_naming_the_simplex",
         "tests/test_mesh.py::"
         "test_keyed_names_the_offender_the_key_loop_named")),
    # -- rules written once -------------------------------------------------
    Mutant(
        "label-order-missing-a-pair",
        "src/phasetop/cells.py",
        "(_MINUS_ONE, _UPPER), ",
        "",
        ("tests/test_cells.py::test_label_order_exact_relations",)),
    Mutant(
        "sign-tokens-swapped",
        "src/phasetop/covectors.py",
        '_SIGN_OF = {"+": 1, "-": -1, "0": 0}',
        '_SIGN_OF = {"+": -1, "-": 1, "0": 0}',
        ("tests/test_covectors.py::test_vector_text_round_trip",
         "tests/test_cli.py::test_hf_sum_sign")),
    Mutant(
        "sign-minus-one-at-a-quarter-turn",
        "src/phasetop/phase.py",
        "_SIGN_PHASES = (Phase(Angle(HALF)), ZERO, Phase(ORIGIN))",
        "_SIGN_PHASES = (Phase(Angle(Fraction(1, 4))), ZERO, Phase(ORIGIN))",
        ("tests/test_phase.py::test_sign_ops",
         "tests/test_phase.py::test_sign_sum_matches_the_union_fold")),
    Mutant(
        "sign-alphabet-minus-before-plus",
        "src/phasetop/covectors.py",
        "m, alphabet, build = 2, (0, 1, -1), tuple",
        "m, alphabet, build = 2, (0, -1, 1), tuple",
        ("tests/test_covectors.py::"
         "test_enumerate_covectors_sign_is_the_both_signs_filter",)),
    Mutant(
        "format_fraction-without-whole-numbers",
        "src/phasetop/phase.py",
        'return str(num) if den == 1 else f"{num}/{den}"',
        'return f"{num}/{den}"',
        ("tests/test_phase.py::test_fraction_round_trip",)),
    Mutant(
        "value_type-allows-delattr",
        "src/phasetop/phase.py",
        "    cls.__delattr__ = _refuse_delattr\n",
        "",
        ("tests/test_value_types.py::"
         "test_value_types_refuse_assignment_as_unslotted_frozen_ones_do",)),
    Mutant(
        "join_point-weights-not-over-their-lcm",
        "src/phasetop/order_complex.py",
        "    g = math.gcd(*nums)\n",
        "    g = 1\n",
        ("tests/test_value_types.py::"
         "test_int_builders_are_the_fraction_constructors",
         "tests/test_ratio_kernels.py::"
         "test_join_point_sampler_is_the_draw_over_64ths")),
    Mutant(
        # equality and the hash are those of the fields, so they rely on
        # every constructor reducing its ratio
        "angle-of_ratio-not-reduced",
        "src/phasetop/phase.py",
        "        g = math.gcd(num, den)\n",
        "        g = 1\n",
        ("tests/test_order_complex.py::"
         "test_every_disc_point_constructor_sets_its_phase",)),
    Mutant(
        "disc_point-of_ratio-not-reduced",
        "src/phasetop/order_complex.py",
        "        g = math.gcd(num, den)\n",
        "        g = 1\n",
        ("tests/test_order_complex.py::"
         "test_every_disc_point_constructor_sets_its_phase",
         "tests/test_value_types.py::"
         "test_int_builders_are_the_fraction_constructors")),
    Mutant(
        # every constructor fills a disc point through the one centre rule
        "disc_point-of_ratio-centre-keeps-its-angle",
        "src/phasetop/order_complex.py",
        "        angle, phase = ORIGIN, ZERO\n",
        "        phase = ZERO\n",
        ("tests/test_cells.py::"
         "test_shared_grid_points_equal_freshly_built_points",
         "tests/test_value_types.py::"
         "test_int_builders_are_the_fraction_constructors",
         "tests/test_order_complex.py::"
         "test_every_disc_point_constructor_sets_its_phase")),
    Mutant(
        # an unreduced radius reprs as the reduced one does; its ratio,
        # its text, its equality and its hash differ
        "join_to_model-radius-not-reduced",
        "src/phasetop/order_complex.py",
        "        g = math.gcd(left, whole)\n",
        "        g = 1\n",
        ("tests/test_order_complex.py::"
         "test_round_trip_hands_back_the_chains_own_phases",)),
    # -- found by past changes' mutation checks -----------------------------
    Mutant(
        "arc_contains-end-left-out",
        "src/phasetop/phase.py",
        "% d * ld <= ln * d",
        "% d * ld < ln * d",
        ("tests/test_phase.py::test_sign_ops",)),
    Mutant(
        "upper-half-circle-left-at-its-end",
        "src/phasetop/cells.py",
        "if 2 * a > d or",
        "if 2 * a >= d or",
        ("tests/test_cells.py::test_half_circle_params",)),
    Mutant(
        "nu-full-circle-of-dimension-one",
        "src/phasetop/cells.py",
        "_FULL: 2}",
        "_FULL: 1}",
        ("tests/test_cells.py::test_nu_values",)),
    Mutant(
        "spans_half-on-unsorted-ticks",
        "src/phasetop/covectors.py",
        "s = sorted(ticks)",
        "s = list(ticks)",
        ("tests/test_covectors.py::"
         "test_zero_in_sum_agrees_with_fold_oracle",)),
    Mutant(
        # the lazy heap holds rows that reduction has since cancelled
        "engine-heap-pops-one-stale-row",
        "src/phasetop/homology.py",
        "while -heap[0] not in col:",
        "if -heap[0] not in col:",
        ("tests/test_homology.py::"
         "test_engine_matches_reference_engine_on_meshes",)),
]


EQUIVALENT = [
    Equivalent(
        "find_zero_triple-zero-filled-with-first-tick",
        "src/phasetop/covectors.py",
        "a, b, c = rest[0], rest[-1], rest[-1]",
        "a, b, c = rest[0], rest[0], rest[-1]",
        "with one zero in the triple both fillings leave the two nonzero "
        "ticks, and zero is in their sum only for an exact antipodal "
        "pair, whichever tick is repeated"),
    Equivalent(
        "mv-cone-b-image-not-negated",
        "src/phasetop/homology.py",
        "(fb, map_b, na, -1)",
        "(fb, map_b, na, 1)",
        "negating B's chains is a chain automorphism of C(A) + C(B) that "
        "turns x -> (x, -x) into x -> (x, x), so it carries one mapping "
        "cone onto the other: every boundary rank, and so every Betti "
        "number over Q and F2, is the same"),
    Equivalent(
        "boundary-ridges-in-at-most-one-top",
        "src/phasetop/mesh.py",
        "if c == 1)",
        "if c <= 1)",
        "the counts come from the top facet rows of a pure complex, whose "
        "every ridge lies in some top, so no count is 0"),
    Equivalent(
        "hyper_sum_list-tie-reached-backward",
        "src/phasetop/phase.py",
        "if off - length <= d - off:",
        "if off - length < d - off:",
        "at a tie p's antipode lies in the arc, so the earlier return of "
        "the whole circle fires and no tie reaches this test"),
]
