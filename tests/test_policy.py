import re
from itertools import chain, combinations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from formula_oracle import formula_holds, nesting, words

from rabe.errors import ParameterError, PolicyParseError, UnsatisfiedPolicyError
from rabe.policy import (
    MAX_FORMULA_TOKENS,
    check_attributes,
    parse_policy,
    reconstruction_coefficients,
    satisfies,
    share_secret,
)
from rabe.rng import SeededRng

MOD = 2147483659  # any prime works for the linear algebra here


def powerset(items):
    items = sorted(items)
    return chain.from_iterable(combinations(items, r) for r in range(len(items) + 1))


def test_single_attribute_matrix():
    policy = parse_policy("3")
    assert policy.rows == ((1,),)
    assert policy.row_attrs == (3,)
    assert policy.width == 1


def test_and_matrix():
    policy = parse_policy("1 AND 2")
    assert policy.rows == ((1, 1), (0, -1))
    assert policy.row_attrs == (1, 2)


def test_or_matrix():
    policy = parse_policy("1 OR 2")
    assert policy.rows == ((1,), (1,))


def test_nested_matrix_shape():
    policy = parse_policy("1 AND (2 OR 3)")
    assert policy.row_attrs == (1, 2, 3)
    assert policy.rows == ((1, 1), (0, -1), (0, -1))
    deep = parse_policy("(1 OR 2) AND (3 AND 4)")
    assert deep.width == 3
    assert deep.row_attrs == (1, 2, 3, 4)


def test_precedence_and_binds_tighter():
    policy = parse_policy("1 OR 2 AND 3")
    assert satisfies(policy, {1}, MOD)
    assert not satisfies(policy, {2}, MOD)
    assert satisfies(policy, {2, 3}, MOD)
    # parenthesized form changes the meaning
    other = parse_policy("(1 OR 2) AND 3")
    assert not satisfies(other, {1}, MOD)


def test_formula_normalization_and_repeated_attrs():
    policy = parse_policy("2  and ( 1 or 2 )")
    assert policy.formula == "2 AND ( 1 OR 2 )"
    assert policy.row_attrs == (2, 1, 2)
    assert satisfies(policy, {2}, MOD)
    assert not satisfies(policy, {1}, MOD)


def test_parse_errors():
    """Each refusal names its reason."""
    for bad, reason in [
        ("", "empty formula"),
        ("AND", "expected an attribute or '(', got 'AND'"),
        ("1 AND", "unexpected end of formula"),
        ("(1 OR 2", "unbalanced parentheses"),
        ("1 XOR 2", "unknown operator 'XOR': only the monotone AND/OR are supported"),
        ("1 not 2", "unknown operator 'not'"),
        ("0", "attributes are positive integers"),
        ("1 & 2", "unexpected character at ' & 2'"),
        ("1 2", "expected AND, OR or ')', got '2'"),
        ("1 )", "unbalanced parentheses"),
    ]:
        with pytest.raises(PolicyParseError, match=re.escape(reason)):
            parse_policy(bad)


def test_deepest_and_longest_formulas_under_the_token_cap():
    # 2 * 511 + 1 and 2 * 512 - 1 tokens; neither shape's depth reaches the call stack
    deep = parse_policy("(" * 511 + "7" + ")" * 511)
    assert deep.rows == ((1,),) and deep.row_attrs == (7,)
    chain = parse_policy(" AND ".join(["1"] * 512))
    assert len(chain.rows) == chain.width == 512
    assert chain.rows[0] == (1,) * 512 and chain.rows[-1] == (0, -1) + (0,) * 510
    for over in ("(" * 512 + "7" + ")" * 512, " OR ".join(["1"] * 513)):
        with pytest.raises(PolicyParseError, match="1025 tokens, over the cap of 1024"):
            parse_policy(over)
    # a formula's token count is odd, so 1024 tokens is always malformed; the
    # parser, not the cap, says how
    with pytest.raises(PolicyParseError, match="unexpected end of formula"):
        parse_policy(" AND ".join(["1"] * 512) + " AND")


def test_matrix_semantics_match_boolean_oracle_500_random_formulas():
    rng = SeededRng("policy-oracle")
    universe = [1, 2, 3, 4, 5]

    def random_formula(depth):
        if depth == 0 or rng.randbelow(4) == 0:
            return str(universe[rng.randbelow(len(universe))])
        op = "AND" if rng.randbelow(2) else "OR"
        left = random_formula(depth - 1)
        right = random_formula(depth - 1)
        return f"({left} {op} {right})"

    for _ in range(500):
        policy = parse_policy(random_formula(3))
        for attrs in powerset(policy.attributes()):
            assert satisfies(policy, attrs, MOD) == formula_holds(policy.formula, attrs), (
                policy.formula,
                attrs,
            )


# ---------------------------------------------------------------------------
# fuzzing: formulas of any shape parse or end as PolicyParseError

OPERATORS = st.sampled_from(["AND", "OR", "and", "or", "And", "oR"])
ATTR_SETS = st.lists(st.sets(st.integers(1, 5), min_size=1), min_size=1, max_size=3)


@st.composite
def formulas(draw):
    """A random bracketing of up to eight leaves, wrapped in up to 600
    parentheses, then maybe chained with leaves until its token count lands
    anywhere up to twice the cap, or right next to it."""
    parts = draw(st.lists(st.integers(1, 5).map(str), min_size=1, max_size=8))
    while len(parts) > 1:
        k = draw(st.integers(0, len(parts) - 2))
        joined = f"{parts[k]} {draw(OPERATORS)} {parts[k + 1]}"
        parts[k:k + 2] = [f"({joined})" if draw(st.booleans()) else joined]
    depth = draw(st.integers(0, 3) | st.integers(150, 600))
    formula = "(" * depth + parts[0] + ")" * depth
    target = draw(st.just(0) | st.integers(0, 2 * MAX_FORMULA_TOKENS)
                  | st.integers(MAX_FORMULA_TOKENS - 2, MAX_FORMULA_TOKENS + 2))
    links = max(0, target - len(words(formula)) + 1) // 2
    if links:
        op = draw(OPERATORS)
        chain = f" {op} ".join(str(1 + i % 5) for i in range(links))
        formula = f"{chain} {op} {formula}" if draw(st.booleans()) else f"{formula} {op} {chain}"
    return formula


@st.composite
def mutated_formulas(draw):
    """A grammar formula with one token dropped, repeated or inserted.  Any
    such edit leaves operands and operators out of turn or the parentheses
    unbalanced, so the result is always malformed."""
    tokens = words(draw(formulas()))
    i = draw(st.integers(0, len(tokens) - 1))
    edit = draw(st.sampled_from(["drop", "repeat", "insert"]))
    if edit == "drop":
        del tokens[i]
    elif edit == "repeat":
        tokens.insert(i, tokens[i])
    else:
        tokens.insert(i, draw(st.sampled_from(["(", ")", "AND", "or", "3"])))
    return " ".join(tokens)


@settings(max_examples=150, derandomize=True, database=None, deadline=None)
@given(formulas(), ATTR_SETS)
def test_grammar_formulas_parse_up_to_the_token_cap(formula, attr_sets):
    tokens = words(formula)
    if len(tokens) > MAX_FORMULA_TOKENS:
        with pytest.raises(PolicyParseError, match=f"over the cap of {MAX_FORMULA_TOKENS}"):
            parse_policy(formula)
        return
    policy = parse_policy(formula)
    assert len(policy.rows) == sum(t.isdigit() for t in tokens)
    assert policy.width == 1 + sum(t.upper() == "AND" for t in tokens)
    if nesting(formula) < 200:
        for attrs in attr_sets:
            assert satisfies(policy, attrs, MOD) == formula_holds(formula, attrs), attrs


@settings(max_examples=150, derandomize=True, database=None, deadline=None)
@given(mutated_formulas())
def test_mutated_formulas_raise_policy_parse_error(formula):
    with pytest.raises(PolicyParseError):
        parse_policy(formula)


def test_share_and_reconstruct_roundtrip():
    rng = SeededRng("shares")
    # in "(3 AND 1) OR 4", {1, 4} solves row 1 to coefficient 0, and w omits it
    for formula in ("1 AND (2 OR 3)", "(1 OR 4) AND (2 OR 3)", "1 OR (2 AND 3 AND 4)",
                    "(3 AND 1) OR 4"):
        policy = parse_policy(formula)
        for attrs in powerset(policy.attributes()):
            secret = rng.randbelow(MOD)
            shares = share_secret(policy, secret, MOD, rng)
            assert len(shares) == len(policy.rows)
            if formula_holds(policy.formula, attrs):
                w = reconstruction_coefficients(policy, attrs, MOD)
                assert set(w) <= {i for i, a in enumerate(policy.row_attrs) if a in set(attrs)}
                assert 0 not in w.values()
                got = sum(c * shares[i] for i, c in w.items()) % MOD
                assert got == secret
            else:
                with pytest.raises(UnsatisfiedPolicyError):
                    reconstruction_coefficients(policy, attrs, MOD)


class _EnumRng:
    """Hands out a fixed blinding value; lets tests enumerate sharings."""

    def __init__(self, value):
        self.value = value

    def randbelow(self, bound):
        return self.value % bound


def test_unauthorized_sets_learn_nothing_linear():
    # for an AND of two attrs, each single share takes every value in the
    # field as the blinding term sweeps, independent of the secret
    policy = parse_policy("1 AND 2")
    for row in (0, 1):
        seen_a = {share_secret(policy, 11, 97, _EnumRng(u))[row] for u in range(97)}
        seen_b = {share_secret(policy, 22, 97, _EnumRng(u))[row] for u in range(97)}
        assert seen_a == seen_b == set(range(97))
    # while the authorized pair of shares pins the secret exactly
    shares = share_secret(policy, 11, 97, _EnumRng(40))
    assert (shares[0] + shares[1]) % 97 == 11


def test_reconstruction_is_deterministic():
    policy = parse_policy("(1 OR 2) AND (2 OR 3)")
    w1 = reconstruction_coefficients(policy, {1, 2, 3}, MOD)
    w2 = reconstruction_coefficients(policy, {1, 2, 3}, MOD)
    assert w1 == w2


def test_check_attributes():
    assert check_attributes([3, 1, "2", 3], 4) == frozenset({1, 2, 3})
    with pytest.raises(ParameterError):
        check_attributes([], 4)
    with pytest.raises(ParameterError):
        check_attributes([0], 4)
    with pytest.raises(ParameterError):
        check_attributes([5], 4)
