"""Unit and property tests for the ROBDD package."""

import itertools

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.bdd.manager import BDDError, BDDManager


@pytest.fixture()
def mgr() -> BDDManager:
    return BDDManager()


class TestBasics:
    def test_terminals(self, mgr):
        assert mgr.ZERO == 0 and mgr.ONE == 1
        assert mgr.negate(mgr.ONE) == mgr.ZERO

    def test_var_is_canonical(self, mgr):
        a1 = mgr.var("a")
        a2 = mgr.var("a")
        assert a1 == a2

    def test_declare_order(self, mgr):
        assert mgr.declare("a") == 0
        assert mgr.declare("b") == 1
        assert mgr.declare("a") == 0  # idempotent
        assert mgr.num_vars() == 2

    def test_undeclared_lookup_raises(self, mgr):
        with pytest.raises(BDDError):
            mgr.var_level("ghost")

    def test_reduction_no_redundant_nodes(self, mgr):
        a = mgr.var("a")
        # a OR NOT a == 1, reduced away completely
        assert mgr.disj(a, mgr.negate(a)) == mgr.ONE
        assert mgr.conj(a, mgr.negate(a)) == mgr.ZERO

    def test_idempotence_and_absorption(self, mgr):
        a, b = mgr.var("a"), mgr.var("b")
        assert mgr.conj(a, a) == a
        assert mgr.disj(a, a) == a
        assert mgr.disj(a, mgr.conj(a, b)) == a

    def test_cofactors(self, mgr):
        a, b = mgr.var("a"), mgr.var("b")
        f = mgr.conj(a, b)
        low, high = mgr.cofactors(f)
        assert low == mgr.ZERO
        assert high == b
        with pytest.raises(BDDError):
            mgr.cofactors(mgr.ONE)


class TestAlgebra:
    def test_xor_truth_table(self, mgr):
        a, b = mgr.var("a"), mgr.var("b")
        f = mgr.xor(a, b)
        for va, vb in itertools.product((False, True), repeat=2):
            assert mgr.evaluate(f, {0: va, 1: vb}) == (va != vb)

    def test_conj_all_empty_is_one(self, mgr):
        assert mgr.conj_all([]) == mgr.ONE
        assert mgr.disj_all([]) == mgr.ZERO

    def test_restrict(self, mgr):
        a, b, c = mgr.var("a"), mgr.var("b"), mgr.var("c")
        f = mgr.disj(mgr.conj(a, b), c)
        assert mgr.restrict(f, {0: True}) == mgr.disj(b, c)
        assert mgr.restrict(f, {0: False}) == c
        assert mgr.restrict(f, {0: False, 2: False}) == mgr.ZERO

    def test_ite_base_cases(self, mgr):
        a, b = mgr.var("a"), mgr.var("b")
        assert mgr.ite(mgr.ONE, a, b) == a
        assert mgr.ite(mgr.ZERO, a, b) == b
        assert mgr.ite(a, mgr.ONE, mgr.ZERO) == a


class TestQueries:
    def test_tautology_and_sat(self, mgr):
        a = mgr.var("a")
        assert mgr.is_tautology(mgr.ONE)
        assert not mgr.is_tautology(a)
        assert mgr.is_satisfiable(a)
        assert not mgr.is_satisfiable(mgr.ZERO)

    def test_any_model(self, mgr):
        a, b = mgr.var("a"), mgr.var("b")
        f = mgr.conj(a, mgr.negate(b))
        model = mgr.any_model(f)
        assert model == {0: True, 1: False}
        assert mgr.any_model(mgr.ZERO) is None

    def test_support(self, mgr):
        a, b, c = mgr.var("a"), mgr.var("b"), mgr.var("c")
        f = mgr.conj(a, c)
        assert mgr.support(f) == {0, 2}
        assert mgr.support(mgr.ONE) == set()
        del b

    def test_count_models(self, mgr):
        a, b, c = mgr.var("a"), mgr.var("b"), mgr.var("c")
        assert mgr.count_models(mgr.conj(a, b), 3) == 2
        assert mgr.count_models(mgr.disj(a, b), 3) == 6
        assert mgr.count_models(mgr.ONE, 3) == 8
        assert mgr.count_models(mgr.ZERO, 3) == 0
        assert mgr.count_models(c, 3) == 4

    def test_iter_models(self, mgr):
        a, b = mgr.var("a"), mgr.var("b")
        f = mgr.disj(a, b)
        models = list(mgr.iter_models(f, [0, 1]))
        assert len(models) == 3
        for m in models:
            assert mgr.evaluate(f, m)

    def test_evaluate_missing_level_raises(self, mgr):
        a = mgr.var("a")
        with pytest.raises(BDDError):
            mgr.evaluate(a, {})


def test_node_limit():
    small = BDDManager(max_nodes=4)
    with pytest.raises(BDDError):
        # XOR chain blows past 4 nodes quickly
        acc = small.var(0)
        for level in range(1, 10):
            acc = small.xor(acc, small.var(level))


# ---------------------------------------------------------------- property
# st.recursive bounds the tree size; an unbounded st.deferred tree
# makes Hypothesis discard most draws for exceeding its depth limit.
_expr = st.recursive(
    st.integers(0, 3).map(lambda i: ("var", i)),
    lambda sub: st.one_of(
        st.tuples(st.just("not"), sub),
        st.tuples(st.just("and"), sub, sub),
        st.tuples(st.just("or"), sub, sub),
        st.tuples(st.just("xor"), sub, sub),
    ),
    max_leaves=16,
)


def _build(mgr: BDDManager, expr) -> int:
    if expr[0] == "var":
        return mgr.var(expr[1])
    if expr[0] == "not":
        return mgr.negate(_build(mgr, expr[1]))
    left = _build(mgr, expr[1])
    right = _build(mgr, expr[2])
    if expr[0] == "and":
        return mgr.conj(left, right)
    if expr[0] == "or":
        return mgr.disj(left, right)
    return mgr.xor(left, right)


def _eval(expr, env) -> bool:
    if expr[0] == "var":
        return env[expr[1]]
    if expr[0] == "not":
        return not _eval(expr[1], env)
    left = _eval(expr[1], env)
    right = _eval(expr[2], env)
    if expr[0] == "and":
        return left and right
    if expr[0] == "or":
        return left or right
    return left != right


@settings(max_examples=120, deadline=None)
@given(_expr)
def test_bdd_matches_truth_table(expr):
    mgr = BDDManager()
    for level in range(4):
        mgr.declare(str(level))
    node = _build(mgr, expr)
    count = 0
    for bits in itertools.product((False, True), repeat=4):
        env = dict(enumerate(bits))
        want = _eval(expr, env)
        assert mgr.evaluate(node, env) == want
        count += want
    assert mgr.count_models(node, 4) == count


class TestQuantification:
    def test_exists_basic(self, mgr):
        a, b, c = mgr.var("a"), mgr.var("b"), mgr.var("c")
        f = mgr.disj(mgr.conj(a, b), mgr.conj(mgr.negate(a), c))
        assert mgr.exists([0], f) == mgr.disj(b, c)
        assert mgr.forall([0], f) == mgr.conj(b, c)

    def test_exists_no_levels_identity(self, mgr):
        a = mgr.var("a")
        assert mgr.exists([], a) == a
        assert mgr.forall([], mgr.ONE) == mgr.ONE

    def test_exists_all_support_gives_constant(self, mgr):
        a, b = mgr.var("a"), mgr.var("b")
        f = mgr.conj(a, mgr.negate(b))
        assert mgr.exists([0, 1], f) == mgr.ONE
        assert mgr.forall([0, 1], f) == mgr.ZERO

    def test_exists_matches_truth_table(self, mgr):
        import itertools

        a, b, c = mgr.var("a"), mgr.var("b"), mgr.var("c")
        f = mgr.xor(mgr.conj(a, b), c)
        q = mgr.exists([1], f)
        for va, vc in itertools.product((False, True), repeat=2):
            want = any(
                mgr.evaluate(f, {0: va, 1: vb, 2: vc})
                for vb in (False, True)
            )
            assert mgr.evaluate(q, {0: va, 2: vc}) == want

    def test_compose_substitution(self, mgr):
        import itertools

        a, b, c = mgr.var("a"), mgr.var("b"), mgr.var("c")
        f = mgr.xor(a, b)
        g = mgr.conj(b, c)
        h = mgr.compose(f, 0, g)  # a := b & c
        for vb, vc in itertools.product((False, True), repeat=2):
            want = (vb and vc) != vb
            assert mgr.evaluate(h, {1: vb, 2: vc}) == want

    def test_compose_untouched_variable(self, mgr):
        a, b = mgr.var("a"), mgr.var("b")
        f = mgr.conj(a, b)
        # substituting a variable absent from f is the identity
        c = mgr.var("c")
        assert mgr.compose(f, 2, mgr.negate(a)) == f

    def test_image_computation(self, mgr):
        """exists() computes the image of a function vector — the BDD
        analogue of the care networks in repro.core.instance_models."""
        x = mgr.var("x")
        # outputs: s = x OR NOT x (constant 1), d = x
        v_s, v_d = mgr.var("v_s"), mgr.var("v_d")
        s_fn = mgr.ONE
        d_fn = x
        relation = mgr.conj(
            mgr.negate(mgr.xor(v_s, s_fn)),
            mgr.negate(mgr.xor(v_d, d_fn)),
        )
        image = mgr.exists([0], relation)  # quantify the input x
        # image: v_s must be 1, v_d free
        assert image == v_s
