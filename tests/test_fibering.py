import itertools
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from diolab import cli
from diolab.fibering import (
    DiscreteSpace,
    FiberReport,
    ProductDecomposition,
    ProductSet,
    Triviality,
    _fiber_report,
    cross_fibering_check,
    decompose,
    fiber_x,
    fiber_y,
    product_measure,
)

HALF = Fraction(1, 2)


def all_member_matrices(nx, ny):
    """All 2**(nx*ny) boolean membership matrices, in the lexicographic order of their flags."""
    for bits in itertools.product((False, True), repeat=nx * ny):
        yield np.array(bits, dtype=bool).reshape(nx, ny)


def uniform(k):
    return DiscreteSpace.uniform(k)


def random_space(k, rng, zero_atoms=False):
    numers = [int(rng.integers(0 if zero_atoms else 1, 7)) for _ in range(k)]
    if zero_atoms and all(numers):
        numers[int(rng.integers(0, k))] = 0
    if not any(numers):
        numers[0] = 1
    total = sum(numers)
    return DiscreteSpace(tuple(range(k)), tuple(Fraction(v, total) for v in numers))


class TestDiscreteSpace:
    def test_validation(self):
        with pytest.raises(ValueError):
            DiscreteSpace((0, 1), (HALF, Fraction(1, 3)))  # sums to 5/6
        with pytest.raises(ValueError):
            DiscreteSpace((0, 1), (Fraction(3, 2), Fraction(-1, 2)))  # negative
        with pytest.raises(ValueError):
            DiscreteSpace((0, 0), (HALF, HALF))  # duplicate atoms
        with pytest.raises(ValueError):
            DiscreteSpace((0, 1), (0.5, 0.5))  # floats are not exact
        for weight in (True, None, "1/0", "1/2,1/2", "", [1]):
            with pytest.raises(ValueError):
                DiscreteSpace((0, 1), (weight, 0))  # True would read as weight 1

    def test_zero_weight_atoms_allowed(self):
        s = DiscreteSpace(("a", "b"), (1, 0))
        assert s.weights == (Fraction(1), Fraction(0))


class TestFibers:
    def test_full_and_empty(self):
        X, Y = uniform(2), uniform(3)
        assert fiber_x(ProductSet.full(X, Y), 0) == (0, 1, 2)
        assert fiber_x(ProductSet.empty(X, Y), 1) == ()
        assert fiber_y(ProductSet.full(X, Y), 2) == (0, 1)

    def test_diagonal(self):
        X, Y = uniform(2), uniform(2)
        S = ProductSet(X, Y, [[1, 0], [0, 1]])
        assert fiber_x(S, 0) == (0,)
        assert fiber_y(S, 1) == (1,)

    def test_caller_array_stays_writable(self):
        X, Y = uniform(2), uniform(2)
        member = np.zeros((2, 2), dtype=bool)
        S = ProductSet(X, Y, member)
        member[0, 1] = True  # the caller may reuse its buffer
        with pytest.raises(ValueError, match="read-only"):
            S.member[0, 0] = True

    @pytest.mark.parametrize("dtype", [bool, np.int64])
    def test_later_writes_to_the_caller_array_leave_the_set(self, dtype):
        X, Y = uniform(2), uniform(2)
        member = np.array([[1, 0], [0, 0]], dtype=dtype)
        S = ProductSet(X, Y, member)
        report = cross_fibering_check(S)
        member[:] = 1  # the caller reuses its buffer for the next set
        assert S.member.tolist() == [[True, False], [False, False]]
        assert cross_fibering_check(S) == report

    def test_unknown_atom_rejected(self):
        X, Y = uniform(2), uniform(2)
        S = ProductSet.full(X, Y)
        with pytest.raises(ValueError):
            fiber_x(S, "nope")


class TestProductMeasure:
    def test_rectangle(self):
        X = DiscreteSpace((0, 1, 2), (Fraction(1, 6), Fraction(1, 3), HALF))
        Y = DiscreteSpace((0, 1), (Fraction(1, 4), Fraction(3, 4)))
        member = np.zeros((3, 2), dtype=bool)
        member[[0, 1], 1] = True  # A = {0,1}, B = {1}
        S = ProductSet(X, Y, member)
        assert product_measure(S) == Fraction(1, 2) * Fraction(3, 4)

    def test_diagonal_and_empty(self):
        X, Y = uniform(2), uniform(2)
        assert product_measure(ProductSet(X, Y, [[1, 0], [0, 1]])) == HALF
        assert product_measure(ProductSet.empty(X, Y)) == 0

    def test_fubini_exhaustive_3x3(self):
        X, Y = uniform(3), uniform(3)
        for member in all_member_matrices(3, 3):
            product_measure(ProductSet(X, Y, member))  # raises on disagreement

    def test_fubini_randomized_12x12(self):
        rng = np.random.default_rng(40)
        for _ in range(25):
            k = int(rng.integers(2, 13))
            X = random_space(k, rng, zero_atoms=True)
            Y = random_space(k, rng, zero_atoms=True)
            member = rng.random((k, k)) < rng.uniform(0.1, 0.9)
            product_measure(ProductSet(X, Y, member))


class TestCrossFibering:
    def test_full_set(self):
        X, Y = uniform(2), uniform(3)
        rep = cross_fibering_check(ProductSet.full(X, Y))
        assert rep.left.kind == "Full"
        assert rep.right_x == 1 and rep.right_y == 1
        assert rep.equivalence_holds

    def test_diagonal_nontrivial(self):
        X, Y = uniform(2), uniform(2)
        rep = cross_fibering_check(ProductSet(X, Y, [[1, 0], [0, 1]]))
        assert rep.left.kind == "Nontrivial"
        assert rep.left.measure == HALF
        assert rep.right_x == 0 and rep.right_y == 0
        assert rep.equivalence_holds  # both sides false

    def test_zero_weight_atom_case(self):
        # mu concentrated on 'a'; S = {b} x Y is null yet has a full fiber at b
        X = DiscreteSpace(("a", "b"), (1, 0))
        Y = uniform(2)
        rep = cross_fibering_check(ProductSet(X, Y, [[0, 0], [1, 1]]))
        assert rep.left.kind == "Null"
        assert rep.right_x == 1  # the nontrivial fiber sits on a mu-null atom
        assert rep.right_y == 1  # every column fiber {b} is mu-null
        assert rep.equivalence_holds

    def test_one_sided_triviality_insufficient(self):
        # S = {a} x Y: every row fiber trivial, yet S nontrivial; columns betray it
        X, Y = uniform(2), uniform(2)
        rep = cross_fibering_check(ProductSet(X, Y, [[1, 1], [0, 0]]))
        assert rep.right_x == 1
        assert rep.right_y < 1
        assert rep.left.kind == "Nontrivial"
        assert rep.equivalence_holds

    def test_exhaustive_3x3_with_random_weights(self):
        rng = np.random.default_rng(41)
        weight_pairs = [(uniform(3), uniform(3))]
        for _ in range(8):
            weight_pairs.append(
                (random_space(3, rng, zero_atoms=True), random_space(3, rng, zero_atoms=True))
            )
        for member in all_member_matrices(3, 3):
            for X, Y in weight_pairs:
                rep = cross_fibering_check(ProductSet(X, Y, member))
                assert rep.equivalence_holds
                # one-directional implications
                if rep.left.trivial:
                    assert rep.right_x == 1 and rep.right_y == 1


class TestDecompose:
    def test_full(self):
        X, Y = uniform(2), uniform(2)
        dec = decompose(ProductSet.full(X, Y))
        assert dec.X1 == (0, 1) and dec.Y1 == (0, 1)
        assert dec.X0 == () and dec.Y0 == () and dec.Xnt == ()
        assert dec.witness_by_rows == 0 and dec.witness_by_cols == 0

    def test_empty(self):
        X, Y = uniform(2), uniform(2)
        dec = decompose(ProductSet.empty(X, Y))
        assert dec.X0 == (0, 1) and dec.Y0 == (0, 1)
        assert dec.witness_by_rows == 0 == dec.witness_by_cols

    def test_witness_evaluations_agree_exhaustively(self):
        rng = np.random.default_rng(42)
        spaces = [(uniform(3), uniform(3))]
        for _ in range(4):
            spaces.append(
                (random_space(3, rng, zero_atoms=True), random_space(3, rng, zero_atoms=True))
            )
        for member in all_member_matrices(3, 3):
            for X, Y in spaces:
                dec = decompose(ProductSet(X, Y, member))  # raises if orders disagree
                assert dec.witness_by_rows == dec.witness_by_cols

    def test_contradiction_case_is_empty(self):
        # no S on a 3x3 space has all four classes with positive measure
        # while every fiber is trivial
        rng = np.random.default_rng(43)
        spaces = [(uniform(3), uniform(3))]
        for _ in range(4):
            spaces.append((random_space(3, rng), random_space(3, rng)))
        for member in all_member_matrices(3, 3):
            for X, Y in spaces:
                S = ProductSet(X, Y, member)
                dec = decompose(S)
                all_trivial = dec.Xnt == () and dec.Ynt == ()
                if all_trivial:
                    mx0 = sum((X.weights[X.atoms.index(a)] for a in dec.X0), Fraction(0))
                    mx1 = sum((X.weights[X.atoms.index(a)] for a in dec.X1), Fraction(0))
                    my0 = sum((Y.weights[Y.atoms.index(a)] for a in dec.Y0), Fraction(0))
                    my1 = sum((Y.weights[Y.atoms.index(a)] for a in dec.Y1), Fraction(0))
                    assert not (mx0 > 0 and mx1 > 0 and my0 > 0 and my1 > 0)


def test_triviality_classification():
    assert Triviality.of(Fraction(0)).kind == "Null"
    assert Triviality.of(Fraction(1)).kind == "Full"
    assert Triviality.of(HALF).kind == "Nontrivial"
    assert Triviality.of(Fraction(0)).trivial
    assert not Triviality.of(HALF).trivial


def test_matrix_shape_validation():
    X, Y = uniform(2), uniform(3)
    with pytest.raises(ValueError):
        ProductSet(X, Y, np.ones((3, 2), dtype=bool))


@pytest.mark.parametrize("entry", [2, -1, 0.5, 1.0, "x", "1", None, Fraction(1)])
def test_membership_entries_are_booleans_or_0_1(entry):
    X, Y = uniform(2), uniform(2)
    with pytest.raises(ValueError, match="booleans or the integers 0 and 1"):
        ProductSet(X, Y, [[1, 0], [0, entry]])
    with pytest.raises(ValueError, match="booleans or the integers 0 and 1"):
        ProductSet(X, Y, np.array([[1, 0], [0, entry]]))
    for member in ([[True, 0], [False, 1]], np.array([[1, 0], [0, 1]], dtype=np.uint8)):
        assert ProductSet(X, Y, member).member.tolist() == [[True, False], [False, True]]


# ---------------------------------------------------------------------------
# the integer paths against the Fraction formulas they replaced

# distinct primes, so pairwise coprime; any three multiply past 2**63
BIG_PRIMES = (998244353, 1000000007, 1000000009, 2147483647, 4294967291, 2**61 - 1, 2**89 - 1)


def ref_measure(weights, flags) -> Fraction:
    return sum((w for w, f in zip(weights, flags) if f), Fraction(0))


def ref_fibers(S: ProductSet):
    rows = [ref_measure(S.Y.weights, S.member[i]) for i in range(len(S.X))]
    cols = [ref_measure(S.X.weights, S.member[:, j]) for j in range(len(S.Y))]
    by_rows = sum((wx * nu for wx, nu in zip(S.X.weights, rows)), Fraction(0))
    by_cols = sum((wy * mu for wy, mu in zip(S.Y.weights, cols)), Fraction(0))
    assert by_rows == by_cols
    return rows, cols, by_rows


def ref_report(S: ProductSet) -> FiberReport:
    rows, cols, measure = ref_fibers(S)
    left = Triviality.of(measure)
    right_x = sum((wx for wx, nu in zip(S.X.weights, rows) if nu == 0 or nu == 1), Fraction(0))
    right_y = sum((wy for wy, mu in zip(S.Y.weights, cols) if mu == 0 or mu == 1), Fraction(0))
    return FiberReport(left, right_x, right_y, left.trivial == (right_x == 1 and right_y == 1))


def ref_decompose(S: ProductSet) -> ProductDecomposition:
    rows, cols, _ = ref_fibers(S)
    x0 = [i for i, m in enumerate(rows) if m == 0]
    y1 = [j for j, m in enumerate(cols) if m == 1]
    x0_flags = np.isin(np.arange(len(S.X)), x0)
    y1_flags = np.isin(np.arange(len(S.Y)), y1)
    by_cols = sum((S.Y.weights[j] * ref_measure(S.X.weights, S.member[:, j] & x0_flags) for j in y1), Fraction(0))
    by_rows = sum((S.X.weights[i] * ref_measure(S.Y.weights, S.member[i] & y1_flags) for i in x0), Fraction(0))

    def atoms(space, measures, keep):
        return tuple(a for a, m in zip(space.atoms, measures) if keep(m))

    return ProductDecomposition(
        X0=atoms(S.X, rows, lambda m: m == 0),
        X1=atoms(S.X, rows, lambda m: m == 1),
        Xnt=atoms(S.X, rows, lambda m: 0 < m < 1),
        Y0=atoms(S.Y, cols, lambda m: m == 0),
        Y1=atoms(S.Y, cols, lambda m: m == 1),
        Ynt=atoms(S.Y, cols, lambda m: 0 < m < 1),
        witness_by_rows=by_rows,
        witness_by_cols=by_cols,
    )


@st.composite
def weight_lists(draw, k: int) -> list[Fraction]:
    """k weights summing to 1: a_i/d_i over small or pairwise-coprime large d_i, the rest last.

    Zero numerators give zero-weight atoms; the order is shuffled, so the
    rest can land anywhere, and it is zero when the others already sum to 1.
    """
    if draw(st.booleans()):
        dens = draw(st.permutations(BIG_PRIMES))[: k - 1]
    else:
        dens = [draw(st.integers(1, 9)) for _ in range(k - 1)]
    weights = [Fraction(draw(st.integers(0, d // k)), d) for d in dens]
    if k > 1 and draw(st.booleans()):
        weights[0] = 1 - sum(weights[1:])
    return draw(st.permutations(weights + [1 - sum(weights)]))


@st.composite
def product_sets(draw) -> ProductSet:
    kx, ky = draw(st.integers(1, 5)), draw(st.integers(1, 4))
    X = DiscreteSpace(tuple(range(kx)), tuple(draw(weight_lists(kx))))
    Y = DiscreteSpace(tuple("abcd"[:ky]), tuple(draw(weight_lists(ky))))
    member = draw(st.lists(st.lists(st.booleans(), min_size=ky, max_size=ky), min_size=kx, max_size=kx))
    return ProductSet(X, Y, member)


class TestIntegerPaths:
    @settings(max_examples=300, deadline=None)
    @given(product_sets())
    def test_match_the_fraction_reference(self, S):
        assert cross_fibering_check(S) == ref_report(S)
        assert decompose(S) == ref_decompose(S)
        assert product_measure(S) == ref_fibers(S)[2]
        for flags in S.member:
            assert S.Y.measure(flags) == ref_measure(S.Y.weights, flags)

    def test_common_denominator_past_int64(self):
        p, q, r = BIG_PRIMES[1], BIG_PRIMES[5], BIG_PRIMES[4]
        X = DiscreteSpace((0, 1, 2, 3), (Fraction(1, p), Fraction(1, q), Fraction(0), 1 - Fraction(1, p) - Fraction(1, q)))
        Y = DiscreteSpace((0, 1), (Fraction(1, r), 1 - Fraction(1, r)))
        assert X._denom == p * q > 2**63 and X._denom * Y._denom > 2**120
        for member in all_member_matrices(4, 2):
            S = ProductSet(X, Y, member)
            assert cross_fibering_check(S) == ref_report(S)
            assert decompose(S) == ref_decompose(S)


def test_exhaustive_cli_checks_every_subset_in_the_matrix_order(monkeypatch, capsys):
    # fiber-check --exhaustive feeds row tuples to the integer core; record what it is fed
    calls = []

    def recording(rows, X, Y):
        report = _fiber_report(rows, X, Y)
        calls.append((rows, X, Y, report))
        return report

    monkeypatch.setattr(cli, "_fiber_report", recording)
    assert cli.main(["fiber-check", "--exhaustive", "3", "--weight-samples", "2"]) == 0
    assert capsys.readouterr().out == "512 subsets x 2 weight pairs: all equivalences hold\n"
    pairs = [(X, Y) for _, X, Y, _ in calls[:2]]
    assert pairs[0] == (uniform(3), uniform(3))
    assert 0 in pairs[1][0].weights and 0 in pairs[1][1].weights
    expected = [(member, X, Y) for member in all_member_matrices(3, 3) for X, Y in pairs]
    assert len(calls) == len(expected) == 1024
    for (rows, X, Y, report), (member, X_ref, Y_ref) in zip(calls, expected):
        assert np.array_equal(np.array(rows, dtype=bool), member)
        assert (X, Y) == (X_ref, Y_ref)
        assert report == ref_report(ProductSet(X, Y, member))


def ref_validation_error(atoms, weights) -> str | None:
    if any(isinstance(w, float) for w in weights):
        return "weights must be exact rationals (int, Fraction, or 'a/b' string)"
    weights = [Fraction(w) for w in weights]
    if len(atoms) != len(weights):
        return "atoms and weights must have equal length"
    if len(set(atoms)) != len(atoms):
        return "atoms must be distinct"
    if any(w < 0 for w in weights):
        return "weights must be >= 0"
    if sum(weights) != 1:
        return f"weights must sum to exactly 1, got {sum(weights)}"
    return None


@settings(max_examples=200, deadline=None)
@given(
    st.integers(1, 5).flatmap(weight_lists),
    st.sampled_from(["valid", "length", "duplicate", "negative", "sum", "float"]),
    st.data(),
)
def test_validation_matches_the_fraction_rules(weights, fault, data):
    atoms = list(range(len(weights)))
    i = data.draw(st.integers(0, len(weights) - 1))
    if fault == "length":
        atoms.append(len(atoms))
    elif fault == "duplicate" and len(atoms) > 1:
        atoms[i] = atoms[i - 1]
    elif fault == "negative":
        weights[i] -= data.draw(st.sampled_from([1, Fraction(1, BIG_PRIMES[-1])]))
    elif fault == "sum":
        weights[i] += data.draw(st.sampled_from([Fraction(1, 7), Fraction(-1, BIG_PRIMES[-2])])) * weights[i]
    elif fault == "float":
        weights[i] = float(weights[i])
    want = ref_validation_error(atoms, weights)
    if want is None:
        assert DiscreteSpace(tuple(atoms), tuple(weights)).weights == tuple(weights)
    else:
        with pytest.raises(ValueError) as err:
            DiscreteSpace(tuple(atoms), tuple(weights))
        assert str(err.value) == want
