"""Monotone access policies as linear secret sharing matrices.

A policy is a boolean formula over positive integer attributes:

    expr   := term (OR term)*        AND/OR in any letter case;
    term   := factor (AND factor)*   AND binds tighter than OR and
    factor := INT | '(' expr ')'     both associate to the left

It compiles to a share-generating matrix M (one row per leaf, in
left-to-right formula order) and a row -> attribute map, by the counter
construction of Lewko-Waters (Eurocrypt 2011, App. G): the root starts with
vector (1) and counter c = 1; an OR node passes its vector to both children;
an AND node gives its left child the vector padded to length c with 1
appended, its right child c zeros with -1 appended, and bumps c.  An
attribute set satisfies the policy iff the target vector (1, 0, ..., 0) lies
in the span of its rows, in which case the secret is recovered as a linear
combination of the row shares.

Parsing and compiling run on explicit stacks, never on Python's call stack,
so the nesting depth needs no cap of its own: a formula of at most
MAX_FORMULA_TOKENS tokens parses whatever its shape, and a longer one is a
PolicyParseError.

The matrix entries are backend-independent small integers; all linear
algebra takes the group order explicitly.
"""

from __future__ import annotations

import re
from dataclasses import dataclass

from .errors import ParameterError, PolicyParseError, UnsatisfiedPolicyError

_TOKEN = re.compile(r"\s*(\(|\)|\d+|[A-Za-z]+)")

# The matrix has a row per leaf and a column per AND gate (plus one), so its
# size grows with the square of the formula's length; the cap bounds it at
# 512 x 512 entries.
MAX_FORMULA_TOKENS = 1024


@dataclass(frozen=True)
class AccessPolicy:
    """rows[i] is the sharing vector for attribute row_attrs[i]."""

    rows: tuple[tuple[int, ...], ...]
    row_attrs: tuple[int, ...]
    formula: str

    @property
    def width(self) -> int:
        return len(self.rows[0])

    def attributes(self) -> frozenset[int]:
        return frozenset(self.row_attrs)


def _tokenize(formula: str) -> list[str]:
    tokens = []
    pos = 0
    while pos < len(formula):
        m = _TOKEN.match(formula, pos)
        if not m:
            if formula[pos:].strip():
                raise PolicyParseError(f"unexpected character at {formula[pos:]!r}")
            break
        tok = m.group(1)
        if tok.isalpha():
            word = tok.upper()
            if word not in ("AND", "OR"):
                raise PolicyParseError(
                    f"unknown operator {tok!r}: only the monotone AND/OR are supported"
                )
            tok = word
        tokens.append(tok)
        pos = m.end()
    return tokens


_PRECEDENCE = {"OR": 1, "AND": 2}


def parse_policy(formula: str) -> AccessPolicy:
    tokens = _tokenize(formula)
    if not tokens:
        raise PolicyParseError("empty formula")
    if len(tokens) > MAX_FORMULA_TOKENS:
        raise PolicyParseError(
            f"formula has {len(tokens)} tokens, over the cap of {MAX_FORMULA_TOKENS}"
        )

    # The tree, by shunting-yard: a leaf is its attribute, a gate is
    # (operator, left, right).  Reducing operators of equal precedence before
    # pushing the next one makes chains left-associative.
    operands: list = []
    ops: list[str] = []

    def reduce() -> None:
        right = operands.pop()
        operands.append((ops.pop(), operands.pop(), right))

    want_operand = True
    for tok in tokens:
        if want_operand:
            if tok == "(":
                ops.append(tok)
                continue
            if not tok.isdigit():
                raise PolicyParseError(f"expected an attribute or '(', got {tok!r}")
            if int(tok) < 1:
                raise PolicyParseError("attributes are positive integers")
            operands.append(int(tok))
            want_operand = False
        elif tok in _PRECEDENCE:
            while ops and ops[-1] != "(" and _PRECEDENCE[ops[-1]] >= _PRECEDENCE[tok]:
                reduce()
            ops.append(tok)
            want_operand = True
        elif tok == ")":
            while ops and ops[-1] != "(":
                reduce()
            if not ops:
                raise PolicyParseError("unbalanced parentheses")
            ops.pop()
        else:
            raise PolicyParseError(f"expected AND, OR or ')', got {tok!r}")
    if want_operand:
        raise PolicyParseError("unexpected end of formula")
    while ops:
        if ops[-1] == "(":
            raise PolicyParseError("unbalanced parentheses")
        reduce()

    # The matrix, by a depth-first walk that pops the left child first, so
    # rows come out in formula order and AND gates take their coordinates in
    # preorder.
    rows: list[list[int]] = []
    row_attrs: list[int] = []
    counter = 1
    stack = [(operands[0], [1])]
    while stack:
        node, vec = stack.pop()
        if isinstance(node, int):
            rows.append(vec)
            row_attrs.append(node)
        elif node[0] == "OR":
            stack += [(node[2], vec), (node[1], vec)]
        else:
            stack += [(node[2], [0] * counter + [-1]),
                      (node[1], vec + [0] * (counter - len(vec)) + [1])]
            counter += 1
    return AccessPolicy(
        rows=tuple(tuple(vec + [0] * (counter - len(vec))) for vec in rows),
        row_attrs=tuple(row_attrs),
        formula=" ".join(tokens),
    )


def _solve_target(policy: AccessPolicy, attrs, modulus: int):
    """Coefficients w (by row index) with sum_i w_i M_i = (1, 0, ..., 0) mod
    modulus, or None.  Deterministic: Gaussian elimination taking the lowest
    usable row index as each pivot, free rows fixed to 0."""
    have = set(attrs)
    usable = [i for i, attr in enumerate(policy.row_attrs) if attr in have]
    width = policy.width
    # One equation per matrix column: sum_i w_i M[i][col] = target[col]
    aug = [[policy.rows[i][col] % modulus for i in usable] + [1 if col == 0 else 0] for col in range(width)]
    n_unknowns = len(usable)
    pivot_of_unknown: dict[int, int] = {}
    used_rows: set[int] = set()
    for unknown in range(n_unknowns):
        pivot_row = None
        for r in range(width):
            if r not in used_rows and aug[r][unknown] % modulus != 0:
                pivot_row = r
                break
        if pivot_row is None:
            continue
        used_rows.add(pivot_row)
        pivot_of_unknown[unknown] = pivot_row
        inv = pow(aug[pivot_row][unknown], -1, modulus)
        aug[pivot_row] = [v * inv % modulus for v in aug[pivot_row]]
        for r in range(width):
            if r != pivot_row and aug[r][unknown] % modulus != 0:
                factor = aug[r][unknown]
                aug[r] = [(v - factor * pv) % modulus for v, pv in zip(aug[r], aug[pivot_row])]
    # Inconsistent system -> not satisfiable with these rows
    for r in range(width):
        if r not in used_rows and aug[r][n_unknowns] % modulus != 0:
            return None
    w = {}
    for unknown, r in pivot_of_unknown.items():
        value = aug[r][n_unknowns]
        if value:
            w[usable[unknown]] = value
    return w


def satisfies(policy: AccessPolicy, attrs, modulus: int) -> bool:
    """True iff the rows labeled by attrs span the target vector."""
    return _solve_target(policy, attrs, modulus) is not None


def reconstruction_coefficients(policy: AccessPolicy, attrs, modulus: int) -> dict[int, int]:
    """Row-index -> coefficient map recombining shares to the secret;
    rows with coefficient 0 are omitted."""
    w = _solve_target(policy, attrs, modulus)
    if w is None:
        raise UnsatisfiedPolicyError(f"attributes {sorted(set(attrs))} do not satisfy {policy.formula!r}")
    return w


def share_secret(policy: AccessPolicy, secret, modulus: int, rng) -> list:
    """Shares M_i . u for a random vector u with u[0] = secret."""
    secret = int(secret) % modulus
    u = [secret] + [rng.randbelow(modulus) for _ in range(policy.width - 1)]
    return [sum(m * uj for m, uj in zip(row, u)) % modulus for row in policy.rows]


def check_attributes(attrs, attr_max: int) -> frozenset[int]:
    """Validate an attribute set against the universe size."""
    values = frozenset(int(a) for a in attrs)
    if not values:
        raise ParameterError("attribute set must be non-empty")
    for a in values:
        if not 1 <= a <= attr_max:
            raise ParameterError(f"attribute {a} outside [1, {attr_max}]")
    return values
