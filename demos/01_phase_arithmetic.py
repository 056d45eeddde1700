"""
Multivalued sums on the circle-with-zero
========================================

Addition of two unit phases is a set: the short closed arc between
them, the whole circle together with zero when they are antipodal, and
the point itself when they agree.  Everything below is exact rational
arithmetic on angles measured in turns.
"""

from fractions import Fraction

from phasetop.phase import ZERO, Phase, hyper_sum_list, min_enclosing_arc

a = Phase.of(0)
b = Phase.of(Fraction(1, 4))
print("1 + i       =", hyper_sum_list([a, b]))

# antipodal phases cancel: the sum is the full circle plus zero
print("1 + (-1)    =", hyper_sum_list([a, Phase.of(Fraction(1, 2))]))

# adding zero changes nothing
print("1 + 0       =", hyper_sum_list([a, ZERO]))

# folding a list associates: the result is a union of arcs, and it
# contains zero exactly when no open half circle holds all the angles
xs = [Phase.of(Fraction(k, 3)) for k in range(3)]
s = hyper_sum_list(xs)
print("cube roots  =", s, " contains zero:", s.contains_zero)

arc = min_enclosing_arc([p.angle for p in xs])
print("their smallest enclosing arc spans", arc.length, "turns")

# two clustered phases stay inside a short arc, so zero is unreachable
ys = [Phase.of(0), Phase.of(Fraction(1, 8)), Phase.of(Fraction(1, 16))]
print("clustered   =", hyper_sum_list(ys))
