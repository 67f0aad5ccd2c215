"""Span tracing of rabe's public functions, installed from outside the package.

Each wrapped function records one span (name, parent span, op id, start and
end in nanoseconds) while the tracer is on.  `from ... import` binds a
function separately in every importing module (rabe.game.keygen is the same
object as rabe.scheme.keygen), so install() replaces the function in every
rabe module that holds it and then scans all rabe modules to prove that no
binding of an original is left.  Methods are patched once, on their class.

Spans stay in memory; per-layer aggregates, the cost-model check and the
span dump are computed from them after the traced pass.
"""

from __future__ import annotations

import hashlib
import os
import sys
import time

# Internal span names may carry a variant after "@" (the side of an
# exponentiation, eval_t hit or miss); metrics aggregate over variants.
VARIANT = "@"

BLS_FUNCS = (
    "g1_mul", "g2_mul", "fq12_pow_cyclo", "miller_loop", "final_exponentiation",
    "g1_add", "g2_add", "g1_from_bytes", "g2_from_bytes", "fq12_from_bytes",
    "g1_to_bytes", "g2_to_bytes", "fq12_to_bytes", "g1_in_subgroup",
    "g2_in_subgroup", "gt_is_valid",
)
SCHEME_FUNCS = (
    "setup", "keygen", "update_key", "derive_dk", "encrypt", "fold_ciphertext", "decrypt",
)
POLICY_FUNCS = ("parse_policy", "share_secret", "reconstruction_coefficients", "satisfies")
SERIAL_FUNCS = (
    "read_envelope", "write_envelope", "state_from_payload", "sk_from_payload",
    "ku_from_payload", "dk_from_payload", "ct_original_from_payload",
    "ct_updated_from_payload", "msg_from_payload", "params_hash",
)
GAME_FUNCS = ("challenger_run", "validate_transcript", "backdate_ciphertext")
CLI_FUNCS = ("cmd_update_key", "cmd_derive_dk", "cmd_encrypt", "cmd_update_ct", "cmd_decrypt")

# (metric name, parent span name): calls of a function split by caller, so
# that exponentiations inside membership checks stay apart from scheme work.
PARENT_SPLITS = {
    "bls12381.g2_mul.subgroup_calls": ("bls12381.g2_mul", "bls12381.g2_in_subgroup"),
    "bls12381.fq12_pow_cyclo.final_exp_calls": (
        "bls12381.fq12_pow_cyclo", "bls12381.final_exponentiation"),
    "bls12381.fq12_pow_cyclo.gt_check_calls": ("bls12381.fq12_pow_cyclo", "bls12381.gt_is_valid"),
}


def _file_size(args, result):
    return os.path.getsize(args[0])


def _targets():
    """(owner, attribute, span name, variant function, note function)."""
    from rabe import bls12381, cli, game, groups, policy, rng, scheme, serial, timecode, tree

    out = [(bls12381, f, f"bls12381.{f}", None, None) for f in BLS_FUNCS]
    out += [
        (groups.BilinearContext, "pair_product", "groups.pair_product", None,
         lambda args, result: len(args[1])),
        (groups.BilinearContext, "decode_element", "groups.decode_element", None, None),
        (groups.GroupElement, "__pow__", "groups.pow", lambda args: args[0].side, None),
        (groups.GroupElement, "__mul__", "groups.mul", None, None),
    ]
    out += [(scheme, f, f"scheme.{f}", None, None) for f in SCHEME_FUNCS]
    out.append((scheme.PublicParams, "eval_t", "scheme.eval_t",
                lambda args: "hit" if (args[2], args[1]) in args[0]._t_cache else "miss", None))
    out += [(policy, f, f"policy.{f}", None, None) for f in POLICY_FUNCS]
    out += [
        (tree, "cover_nodes", "tree.cover_nodes", None, None),
        (timecode, "backdatable_epochs", "timecode.backdatable_epochs", None, None),
        (rng.SeededRng, "randbelow", "rng.randbelow", None, None),
    ]
    out += [(serial, f, f"serial.{f}", None,
             _file_size if f in ("read_envelope", "write_envelope") else None)
            for f in SERIAL_FUNCS]
    out += [(game, f, f"game.{f}", None, None) for f in GAME_FUNCS]
    out += [(cli, f, f"cli.{f}", None, None) for f in CLI_FUNCS]
    return out


def _rabe_modules():
    return [m for name, m in list(sys.modules.items())
            if m is not None and (name == "rabe" or name.startswith("rabe."))]


class Tracer:
    def __init__(self):
        self.names: list[str] = []
        self._name_ids: dict[str, int] = {}
        self.spans: list[list] = []       # [name id, parent span, op id, start ns, end ns]
        self.notes: dict[int, object] = {}
        self.args: dict[int, tuple] = {}  # cost-model inputs of selected spans
        self.on = False
        self.op = -1
        self._stack = [-1]
        self._undo: list[tuple] = []
        self.originals: dict[str, object] = {}

    def name_id(self, name: str) -> int:
        nid = self._name_ids.get(name)
        if nid is None:
            nid = self._name_ids[name] = len(self.names)
            self.names.append(name)
        return nid

    # -- recording -----------------------------------------------------------

    def root(self, name, fn):
        """fn wrapped to record one root span per op."""
        return self._wrap(name, fn, None, None, keep_args=False)

    def _wrap(self, name, fn, variant, note, keep_args):
        tracer = self
        spans = self.spans
        stack = self._stack
        clock = time.perf_counter_ns
        base_id = self.name_id(name)
        variant_ids = {}

        def wrapper(*args, **kwargs):
            if not tracer.on:
                return fn(*args, **kwargs)
            nid = base_id
            if variant is not None:
                key = variant(args)
                nid = variant_ids.get(key)
                if nid is None:
                    nid = variant_ids[key] = tracer.name_id(f"{name}{VARIANT}{key}")
            sid = len(spans)
            rec = [nid, stack[-1], tracer.op, clock(), 0]
            spans.append(rec)
            stack.append(sid)
            try:
                result = fn(*args, **kwargs)
            finally:
                stack.pop()
                rec[4] = clock()
            if note is not None:
                tracer.notes[sid] = note(args, result)
            if keep_args:
                tracer.args[sid] = args
            return result

        return wrapper

    # -- installation --------------------------------------------------------

    def install(self):
        modules = _rabe_modules()
        for owner, attr, name, variant, note in _targets():
            orig = owner.__dict__[attr]
            self.originals[name] = orig
            keep = name in ("scheme.decrypt", "scheme.keygen")
            wrapper = self._wrap(name, orig, variant, note, keep)
            if isinstance(owner, type):
                self._undo.append((owner, attr, orig))
                setattr(owner, attr, wrapper)
                continue
            for module in modules:
                for key, value in list(vars(module).items()):
                    if value is orig:
                        self._undo.append((module, key, orig))
                        setattr(module, key, wrapper)
        originals = {id(f) for f in self.originals.values()}
        for module in modules:
            for key, value in vars(module).items():
                if id(value) in originals:
                    raise RuntimeError(f"{module.__name__}.{key} escaped the tracer")

    def uninstall(self):
        for owner, attr, orig in reversed(self._undo):
            setattr(owner, attr, orig)
        self._undo.clear()

    # -- analysis ------------------------------------------------------------

    def base_names(self) -> list[str]:
        return [n.split(VARIANT)[0] for n in self.names]

    def self_and_total_ns(self):
        spans = self.spans
        child = [0] * len(spans)
        for rec in spans:
            if rec[1] >= 0:
                child[rec[1]] += rec[4] - rec[3]
        return [(rec[4] - rec[3]) - c for rec, c in zip(spans, child)], [
            rec[4] - rec[3] for rec in spans
        ]

    def subtree_ends(self) -> list[int]:
        """Spans are stored in entry order, so a span's descendants are the
        contiguous run of indices up to its subtree end."""
        ends = [i + 1 for i in range(len(self.spans))]
        for i in range(len(self.spans) - 1, -1, -1):
            parent = self.spans[i][1]
            if parent >= 0 and ends[i] > ends[parent]:
                ends[parent] = ends[i]
        return ends

    def call_counts(self) -> dict[str, int]:
        counts: dict[str, int] = {}
        for rec in self.spans:
            name = self.names[rec[0]]
            counts[name] = counts.get(name, 0) + 1
        return counts

    def counts_digest(self) -> str:
        """SHA-256 over the sorted call counts and notes; equal between runs of
        one seed, because the traced pass runs a fixed op list."""
        h = hashlib.sha256()
        for name, n in sorted(self.call_counts().items()):
            h.update(f"{name}={n};".encode())
        for sid, value in sorted(self.notes.items()):
            h.update(f"{sid}:{value};".encode())
        return h.hexdigest()

    def dump(self, path):
        os.makedirs(os.path.dirname(path), exist_ok=True)
        with open(path, "w", encoding="utf-8") as fh:
            fh.write("span\tparent\top\tname\tstart_ns\tend_ns\n")
            for sid, (nid, parent, op, start, end) in enumerate(self.spans):
                fh.write(f"{sid}\t{parent}\t{op}\t{self.names[nid]}\t{start}\t{end}\n")


# ---------------------------------------------------------------------------
# per-layer metrics

_SPEC = [(f"bls12381.{f}", ("calls", "self_ms")) for f in BLS_FUNCS]
_SPEC += [(f"groups.{f}", ("calls", "self_ms")) for f in ("pair_product", "decode_element", "pow", "mul")]
_SPEC += [(f"scheme.{f}", ("calls", "self_ms", "total_ms")) for f in SCHEME_FUNCS + ("eval_t",)]
_SPEC += [(f"policy.{f}", ("calls", "self_ms")) for f in POLICY_FUNCS]
_SPEC += [(n, ("calls", "self_ms")) for n in (
    "tree.cover_nodes", "timecode.backdatable_epochs", "rng.randbelow")]
_SPEC += [(f"serial.{f}", ("calls", "self_ms")) for f in SERIAL_FUNCS]
_SPEC += [(f"game.{f}", ("calls", "self_ms")) for f in GAME_FUNCS]
_SPEC += [(f"cli.{f}", ("total_ms",)) for f in CLI_FUNCS]

_UNITS = {"calls": "count/op", "self_ms": "ms/op", "total_ms": "ms/op"}


# modules with more than one traced function also get their summed self time
_MODULES = ("bls12381", "groups", "scheme", "policy", "serial", "game", "cli")


def metric_specs():
    """(name, unit, better) of every per-layer metric, in report order."""
    out = [(f"{base}.{kind}", _UNITS[kind], "lower") for base, kinds in _SPEC for kind in kinds]
    out += [(f"{module}.self_ms", "ms/op", "lower") for module in _MODULES]
    out += [(name, "count/op", "lower") for name in PARENT_SPLITS]
    out += [
        ("groups.pair_product.pairs", "count/op", "lower"),
        ("scheme.eval_t.hit_ratio", "ratio", "higher"),
        ("serial.bytes_read", "B/op", "lower"),
        ("serial.bytes_written", "B/op", "lower"),
        ("trace.overhead_ratio", "ratio", "lower"),
        ("fail_ratio", "ratio", "lower"),
    ]
    return out


def layer_metrics(tr: Tracer, op_factors: list[float]) -> dict[str, float]:
    """Per-op calls, self and total time of every traced function, plus the
    parent splits and the notes; run-level entries are added by the caller.
    Span times are scaled by their op's machine-speed factor."""
    n_ops = len(op_factors)
    selfs, totals = tr.self_and_total_ns()
    base = tr.base_names()
    calls: dict[str, int] = {}
    self_ns: dict[str, float] = {}
    total_ns: dict[str, float] = {}
    for sid, rec in enumerate(tr.spans):
        name = base[rec[0]]
        f = op_factors[rec[2]]
        calls[name] = calls.get(name, 0) + 1
        self_ns[name] = self_ns.get(name, 0) + selfs[sid] * f
        total_ns[name] = total_ns.get(name, 0) + totals[sid] * f
    out = {}
    for name, kinds in _SPEC:
        for kind in kinds:
            if kind == "calls":
                value = calls.get(name, 0) / n_ops
            else:
                value = (self_ns if kind == "self_ms" else total_ns).get(name, 0) / 1e6 / n_ops
            out[f"{name}.{kind}"] = value
    for module in _MODULES:
        out[f"{module}.self_ms"] = sum(
            v for name, v in self_ns.items() if name.startswith(module + ".")
        ) / 1e6 / n_ops
    for metric, (child, parent) in PARENT_SPLITS.items():
        out[metric] = sum(
            1 for rec in tr.spans
            if base[rec[0]] == child and rec[1] >= 0 and base[tr.spans[rec[1]][0]] == parent
        ) / n_ops
    note_sum = {}
    for sid, value in tr.notes.items():
        name = base[tr.spans[sid][0]]
        note_sum[name] = note_sum.get(name, 0) + value
    out["groups.pair_product.pairs"] = note_sum.get("groups.pair_product", 0) / n_ops
    out["serial.bytes_read"] = note_sum.get("serial.read_envelope", 0) / n_ops
    out["serial.bytes_written"] = note_sum.get("serial.write_envelope", 0) / n_ops
    counts = tr.call_counts()
    hits = counts.get("scheme.eval_t@hit", 0)
    misses = counts.get("scheme.eval_t@miss", 0)
    out["scheme.eval_t.hit_ratio"] = hits / (hits + misses) if hits + misses else 0.0
    return out


# ---------------------------------------------------------------------------
# cost model


def cost_model_check(tr: Tracer) -> tuple[int, list[str]]:
    """Check the scheme's operation counts against its sizes, span by span:

    * decrypt: one pair_product over |I|+2 pairs; on BLS12-381, |I|+2
      Miller loops and 1 final exponentiation.
    * keygen: 3*rows*(depth+1) G2 exponentiations, plus attr_max+2 for each
      T(x) cache miss; no other exponentiation.
    * fold_ciphertext: 1 target-group exponentiation.

    A call site that escaped the tracer shows up as a missing count.
    Returns the number of spans checked and the violations found.
    """
    reconstruction = tr.originals["policy.reconstruction_coefficients"]
    names = tr.names
    spans = tr.spans
    ends = tr.subtree_ends()
    real = any(names[rec[0]].startswith("bls12381.") for rec in spans)

    def below(sid):
        counts: dict[str, int] = {}
        for i in range(sid + 1, ends[sid]):
            counts[names[spans[i][0]]] = counts.get(names[spans[i][0]], 0) + 1
        return counts

    def expect(label, sid, got, want):
        if got != want:
            violations.append(f"op {spans[sid][2]} {label}: {got} != {want}")

    checked = 0
    violations: list[str] = []
    for sid, rec in enumerate(spans):
        name = names[rec[0]]
        if name == "scheme.decrypt":
            pp, ct, dk = tr.args[sid][:3]
            pairs = len(reconstruction(dk.policy, ct.attrs, pp.ctx.prime_order)) + 2
            counts = below(sid)
            pp_sids = [i for i in range(sid + 1, ends[sid]) if names[spans[i][0]] == "groups.pair_product"]
            expect("decrypt pair_product calls", sid, len(pp_sids), 1)
            expect("decrypt pairs", sid, sum(tr.notes[i] for i in pp_sids), pairs)
            if real:
                expect("decrypt Miller loops", sid, counts.get("bls12381.miller_loop", 0), pairs)
                expect("decrypt final exps", sid,
                       counts.get("bls12381.final_exponentiation", 0), 1)
        elif name == "scheme.keygen":
            pp, _, state, _, policy = tr.args[sid][:5]
            counts = below(sid)
            misses = counts.get("scheme.eval_t@miss", 0)
            want = 3 * len(policy.rows) * state.capacity.bit_length() + (pp.attr_max + 2) * misses
            pows = sum(n for k, n in counts.items() if k.startswith("groups.pow@"))
            expect("keygen G2 exponentiations", sid, counts.get("groups.pow@two", 0), want)
            expect("keygen exponentiations", sid, pows, want)
            if real:
                expect("keygen g2_mul", sid, counts.get("bls12381.g2_mul", 0), want)
        elif name == "scheme.fold_ciphertext":
            counts = below(sid)
            expect("fold GT exponentiations", sid, counts.get("groups.pow@target", 0), 1)
            if real:
                direct = sum(
                    1 for i in range(sid + 1, ends[sid])
                    if names[spans[i][0]] == "bls12381.fq12_pow_cyclo"
                    and names[spans[spans[i][1]][0]] == "groups.pow@target"
                )
                expect("fold fq12_pow_cyclo", sid, direct, 1)
        else:
            continue
        checked += 1
    return checked, violations
