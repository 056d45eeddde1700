"""Points of the covector space as tuples of unit-disc coordinates.

A point assigns each coordinate a disc position r@a (radius, angle in
turns).  It belongs to the space of a coefficient vector v when some
coordinate sits on the unit circle and every radius level set is a
covector of v.  The same space has a second description as weighted
chains of covectors; the two translate back and forth exactly.
"""

import random

from phasetop.covectors import parse_phase_vector
from phasetop.order_complex import (
    delta_member,
    format_model_point,
    join_to_model,
    model_to_join,
    parse_model_point,
    random_join_point,
    rescale_model,
)


def membership_examples():
    v = parse_phase_vector("0,0,0")
    inside = parse_model_point("1@0;1@1/2;1@0")
    outside = parse_model_point("1@0;1@1/8;1@0")
    print(format_model_point(inside), "->", delta_member(v, inside))
    print(format_model_point(outside), "->", delta_member(v, outside))

    # shrinking a coordinate keeps membership only while every radius
    # level set stays a covector
    good = parse_model_point("1@0;1@1/2;1/2@1/4")
    bad = parse_model_point("1@0;1/2@1/2;1/2@0")
    print(format_model_point(good), "->", delta_member(v, good))
    print(format_model_point(bad), "->", delta_member(v, bad),
          "  (top level set has a single support)")


def chain_round_trip():
    rng = random.Random(2)
    p = random_join_point(rng, 4)
    z = join_to_model(p)
    back = model_to_join(z)
    print("weighted chain of", len(p.terms), "vectors ->",
          format_model_point(z))
    print("round trip exact:", back == p)


def rotation_orbit():
    v = parse_phase_vector("0,0")
    z = parse_model_point("1@0;1@1/2")
    for k in range(4):
        # turning every coordinate by k/4 is the twist by (k/4, k/4)
        w = rescale_model(parse_phase_vector(f"{k}/4,{k}/4"), z)
        print(f"rotate by {k}/4:", format_model_point(w),
              delta_member(v, w))


if __name__ == "__main__":
    membership_examples()
    chain_round_trip()
    rotation_orbit()
