"""Exponent audits for transparent-backend artifacts.

On the transparent backend every group element is its discrete logarithm,
so given the master key and the tree secrets an auditor can recompute the
defining equation of every component of every artifact and compare, field
by field.  Each audit function returns a list of Check records; failures()
filters the bad ones and assert_clean() raises on any.

The audit recomputes its own attribute-generator logarithms and solves the
share system with its own elimination, so it does not inherit bugs from the
scheme code it is checking.
"""

from __future__ import annotations

from dataclasses import dataclass

from .errors import BackendMismatchError, RabeError
from .timecode import ct_epoch_bits, epoch_bits, zero_positions
from .tree import cover_nodes


class AuditError(RabeError):
    pass


@dataclass(frozen=True)
class Check:
    label: str
    ok: bool
    expected: int | None = None
    actual: int | None = None

    def __str__(self):
        if self.ok:
            return f"ok   {self.label}"
        return f"FAIL {self.label}: expected {self.expected}, found {self.actual}"


def failures(checks) -> list[Check]:
    return [c for c in checks if not c.ok]


def assert_clean(checks) -> None:
    bad = failures(checks)
    if bad:
        raise AuditError("; ".join(str(c) for c in bad))


def format_report(checks) -> str:
    return "\n".join(str(c) for c in checks)


def _log(element) -> int:
    return element.transparent_log


def _require_transparent(pp) -> None:
    if pp.ctx.backend != "transparent":
        raise BackendMismatchError("exponent audits need the transparent backend")


@dataclass(frozen=True)
class ParamLogs:
    """All setup exponents, read out of the public parameters."""

    p: int
    alpha: int
    g2: int
    t: tuple[int, ...]
    u0: int
    u: tuple[int, ...]


def read_params(pp, mk) -> tuple[ParamLogs, list[Check]]:
    """Extract the setup exponents and verify the mirrored-pair discipline:
    both halves of every public pair carry the same exponent, and the
    blinding base e(g^alpha, g2) that pp stores is the target generator
    raised to alpha * log g2."""
    _require_transparent(pp)
    checks = []

    def mirrored(label, pair):
        one, two = _log(pair.one), _log(pair.two)
        checks.append(Check(f"{label} mirrored across sides", one == two, one, two))
        return one

    alpha = int(mk.alpha)
    g2 = mirrored("g2", pp.g2)
    blind, found = alpha * g2 % pp.ctx.prime_order, _log(pp.blind)
    checks.append(Check("blind = e(g, g~)^(alpha beta)", found == blind, blind, found))
    t = tuple(mirrored(f"t[{i + 1}]", pair) for i, pair in enumerate(pp.t_gens))
    u0 = mirrored("u0", pp.u0)
    u = tuple(mirrored(f"u[{j + 1}]", pair) for j, pair in enumerate(pp.u_gens))
    logs = ParamLogs(p=pp.ctx.prime_order, alpha=alpha, g2=g2, t=t, u0=u0, u=u)
    return logs, checks


def _t_log(logs: ParamLogs, x: int) -> int:
    """log T(x) = g2 * x^n + sum_i t_i * L_i(x) over anchors 1..n."""
    p = logs.p
    n = len(logs.t)
    points = list(range(1, n + 1))
    acc = logs.g2 * pow(x, n, p) % p
    for i, t_i in zip(points, logs.t):
        num, den = 1, 1
        for j in points:
            if j != i:
                num = num * (x - j) % p
                den = den * (i - j) % p
        acc = (acc + t_i * num * pow(den, -1, p)) % p
    return acc


def _epoch_base_log(logs: ParamLogs, epoch: int, max_time: int, exact: bool) -> int:
    """log(u0 * prod u_j) over the zero positions of the epoch encoding,
    exact for key material, truncated for original ciphertexts."""
    bits = epoch_bits(epoch, max_time) if exact else ct_epoch_bits(epoch, max_time)
    total = logs.u0
    for j in zero_positions(bits):
        total = (total + logs.u[j - 1]) % logs.p
    return total


def _solve_linear(rows, rhs, p):
    """One solution u of M u = rhs over F_p, or None if inconsistent."""
    if not rows:
        return [] if not rhs else None
    width = len(rows[0])
    aug = [[v % p for v in row] + [b % p] for row, b in zip(rows, rhs)]
    pivots = []
    row_at = 0
    for col in range(width):
        pivot = next((r for r in range(row_at, len(aug)) if aug[r][col]), None)
        if pivot is None:
            continue
        aug[row_at], aug[pivot] = aug[pivot], aug[row_at]
        inv = pow(aug[row_at][col], -1, p)
        aug[row_at] = [v * inv % p for v in aug[row_at]]
        for r in range(len(aug)):
            if r != row_at and aug[r][col]:
                factor = aug[r][col]
                aug[r] = [(a - factor * b) % p for a, b in zip(aug[r], aug[row_at])]
        pivots.append(col)
        row_at += 1
    if any(row[-1] for row in aug[row_at:]):
        return None
    solution = [0] * width
    for r, col in enumerate(pivots):
        solution[col] = aug[r][-1]
    return solution


def _audit_key_rows(logs: ParamLogs, policy, rows, node_secret: int, label: str) -> list[Check]:
    """Recover each row's share from (k0, k1), then check the share vector
    is a consistent sharing of the node secret under the policy matrix."""
    p = logs.p
    checks = []
    if logs.g2 == 0:
        return [Check(f"{label}: g2 exponent invertible", False, None, 0)]
    g2_inv = pow(logs.g2, -1, p)
    shares = []
    for i, (k0, k1) in enumerate(rows):
        r = _log(k1)
        lam = (_log(k0) - _t_log(logs, policy.row_attrs[i]) * r) * g2_inv % p
        shares.append(lam)
    matrix = [list(row) for row in policy.rows]
    solution = _solve_linear(matrix, shares, p)
    if solution is None:
        checks.append(Check(f"{label}: row shares lie in the policy span", False))
    else:
        checks.append(Check(f"{label}: row shares lie in the policy span", True))
        checks.append(
            Check(
                f"{label}: shares recombine to the node secret",
                solution[0] == node_secret % p,
                node_secret % p,
                solution[0],
            )
        )
    return checks


def audit_private_key(pp, mk, state, sk) -> list[Check]:
    logs, checks = read_params(pp, mk)
    leaf = state.leaf_for(sk.identity)
    want = set(state.path(leaf))
    checks.append(
        Check(
            f"sk[{sk.identity}]: one share vector per path node",
            set(sk.parts) == want,
            sorted(want),
            sorted(sk.parts),
        )
    )
    for node, rows in sorted(sk.parts.items()):
        secret = state.node_secrets.get(node)
        if secret is None:
            checks.append(Check(f"sk[{sk.identity}] node {node}: secret known", False))
            continue
        checks.extend(
            _audit_key_rows(logs, sk.policy, rows, int(secret), f"sk[{sk.identity}] node {node}")
        )
    return checks


def _d0_check(logs: ParamLogs, pp, epoch: int, secret: int, d0, d1, label: str) -> Check:
    base = _epoch_base_log(logs, epoch, pp.max_time, exact=True)
    want = (logs.g2 * (logs.alpha - secret) + base * _log(d1)) % logs.p
    return Check(f"{label}: d0 = g2^(alpha - secret) * base^r", _log(d0) == want, want, _log(d0))


def audit_key_update(pp, mk, state, rl, ku) -> list[Check]:
    logs, checks = read_params(pp, mk)
    want = cover_nodes(state, rl, ku.epoch)
    checks.append(
        Check(
            f"ku@{ku.epoch}: parts cover exactly the non-revoked set",
            set(ku.parts) == set(want),
            sorted(want),
            sorted(ku.parts),
        )
    )
    for node, (d0, d1) in sorted(ku.parts.items()):
        secret = state.node_secrets.get(node)
        if secret is None:
            checks.append(Check(f"ku@{ku.epoch} node {node}: secret known", False))
            continue
        checks.append(
            _d0_check(logs, pp, ku.epoch, int(secret), d0, d1, f"ku@{ku.epoch} node {node}")
        )
    return checks


def audit_decryption_key(pp, mk, state, dk) -> list[Check]:
    logs, checks = read_params(pp, mk)
    secret = state.node_secrets.get(dk.node)
    if secret is None:
        checks.append(Check(f"dk[{dk.identity}]@{dk.epoch}: node secret known", False))
        return checks
    label = f"dk[{dk.identity}]@{dk.epoch} node {dk.node}"
    checks.extend(_audit_key_rows(logs, dk.policy, dk.rows, int(secret), label))
    checks.append(_d0_check(logs, pp, dk.epoch, int(secret), dk.d0, dk.d1, label))
    return checks


def _audit_ct_common(logs: ParamLogs, pp, ct, message, label: str) -> tuple[int, list[Check]]:
    p = logs.p
    s = _log(ct.c1)
    checks = []
    if message is not None:
        want_c = (logs.alpha * logs.g2 * s + _log(message)) % p
        checks.append(
            Check(f"{label}: c = blind^s * m", _log(ct.c) == want_c, want_c, _log(ct.c))
        )
    for x, c2x in sorted(ct.c2.items()):
        want = _t_log(logs, x) * s % p
        checks.append(Check(f"{label}: c2[{x}] = T({x})^s", _log(c2x) == want, want, _log(c2x)))
    return s, checks


def audit_original_ct(pp, mk, ct, message=None) -> list[Check]:
    logs, checks = read_params(pp, mk)
    label = f"ct@{ct.epoch}"
    s, more = _audit_ct_common(logs, pp, ct, message, label)
    checks.extend(more)
    want_e1 = logs.u0 * s % logs.p
    checks.append(Check(f"{label}: e1 = u0^s", _log(ct.e1) == want_e1, want_e1, _log(ct.e1)))
    positions = zero_positions(ct_epoch_bits(ct.epoch, pp.max_time))
    checks.append(
        Check(
            f"{label}: update slots at the truncated encoding's zero positions",
            set(ct.e2) == positions,
            sorted(positions),
            sorted(ct.e2),
        )
    )
    for j, e2j in sorted(ct.e2.items()):
        if j in positions:
            want = logs.u[j - 1] * s % logs.p
            checks.append(Check(f"{label}: e2[{j}] = u{j}^s", _log(e2j) == want, want, _log(e2j)))
    return checks


def audit_updated_ct(pp, mk, ct, message=None) -> list[Check]:
    logs, checks = read_params(pp, mk)
    label = f"uct@{ct.epoch}"
    s, more = _audit_ct_common(logs, pp, ct, message, label)
    checks.extend(more)
    want = _epoch_base_log(logs, ct.epoch, pp.max_time, exact=True) * s % logs.p
    checks.append(
        Check(f"{label}: e_t = (u0 * prod u_j)^s", _log(ct.e_t) == want, want, _log(ct.e_t))
    )
    return checks
