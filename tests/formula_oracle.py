"""A boolean reference for policy formulas that shares no code with rabe.policy.

Each attribute becomes a Python boolean literal and AND/OR become and/or, so
Python's own grammar decides the formula: `and` binds tighter than `or`, as
AND does over OR in a policy.  Python refuses 200 or more nested parentheses,
so ask only about formulas whose nesting() is below that.
"""

import re

_WORD = re.compile(r"\d+|[A-Za-z]+|[()]")
_OPERATOR = {"AND": "and", "OR": "or"}


def words(formula: str) -> list[str]:
    """The formula's tokens: attributes, operators and parentheses."""
    return _WORD.findall(formula)


def nesting(formula: str) -> int:
    """The deepest parenthesis level in the formula."""
    level = deepest = 0
    for char in formula:
        level += (char == "(") - (char == ")")
        deepest = max(deepest, level)
    return deepest


def formula_holds(formula: str, attrs) -> bool:
    """Whether the attribute set satisfies the formula, read as booleans."""
    have = {int(a) for a in attrs}
    python = []
    for word in words(formula):
        if word.isdigit():
            python.append(str(int(word) in have))
        else:
            python.append(_OPERATOR.get(word.upper(), word))
    return eval(" ".join(python), {"__builtins__": {}})
