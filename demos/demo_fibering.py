"""
Fiber triviality on finite product spaces, exactly
==================================================

A subset of a product space is null-or-full for the product measure
precisely when almost every row fiber AND almost every column fiber is
null-or-full.  With exact rational weights the check is decisive; atoms
of weight zero are where "almost every" earns its keep.
"""

from fractions import Fraction

from diolab import DiscreteSpace, ProductSet, cross_fibering_check, decompose

uniform2 = DiscreteSpace.uniform(2)

# The diagonal of a 2x2 space: measure 1/2, nontrivial, and every fiber is
# a single atom of mass 1/2, so both fiber fractions are 0.
diag = ProductSet(uniform2, uniform2, [[1, 0], [0, 1]])
rep = cross_fibering_check(diag)
print("diagonal:", rep.left.kind, "measure", rep.left.measure,
      "| trivial-fiber mass:", rep.right_x, rep.right_y,
      "| equivalence holds:", rep.equivalence_holds)

# One-sided triviality is not enough: S = {a} x Y has every ROW fiber
# trivial (full or empty), yet S is nontrivial; the column fibers expose it.
half_plane = ProductSet(uniform2, uniform2, [[1, 1], [0, 0]])
rep = cross_fibering_check(half_plane)
print("half plane:", rep.left.kind,
      "| rows trivial:", rep.right_x, "| columns trivial:", rep.right_y)

# Zero-weight atoms: mu lives entirely on 'a', so S = {b} x Y is null even
# though its fiber through b is all of Y.  "Almost every" skips b.
X = DiscreteSpace(("a", "b"), (1, 0))
S = ProductSet(X, uniform2, [[0, 0], [1, 1]])
rep = cross_fibering_check(S)
print("null atom: ", rep.left.kind,
      "| rows trivial:", rep.right_x, "| columns trivial:", rep.right_y)

# The proof-shaped decomposition: classify atoms by their fiber measure and
# evaluate the witness rectangle X0 x Y1 in both iteration orders.
dec = decompose(half_plane)
print("\ndecomposition of the half plane:")
print("  X0 (null fibers):", dec.X0, " X1 (full fibers):", dec.X1, " mixed:", dec.Xnt)
print("  Y0:", dec.Y0, " Y1:", dec.Y1, " mixed:", dec.Ynt)
print("  witness rectangle mass, rows vs columns:",
      dec.witness_by_rows, dec.witness_by_cols)

# Exhaustive confidence at small size: every one of the 512 subsets of a
# 3x3 space respects the equivalence, under lopsided weights too.
import itertools

weights = DiscreteSpace((0, 1, 2), (Fraction(5, 6), Fraction(1, 6), 0))
bad = sum(
    not cross_fibering_check(ProductSet(weights, DiscreteSpace.uniform(3), rows)).equivalence_holds
    for rows in itertools.product(itertools.product((0, 1), repeat=3), repeat=3)
)
print("\n512 subsets with a zero-weight atom: equivalence failures =", bad)
