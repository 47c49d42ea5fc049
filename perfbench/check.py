"""Output checker: references from the seed commit plus invariants.

Integers (n_b, n_p, n_tot_budget, budgets, exit codes, check verdicts)
must match a reference exactly; floats within ``REL_TOL``.  Outputs that
also match byte for byte are counted apart, so last-digit drift shows
without counting as an error.  Invariants hold for every output, with or
without a reference: the frozen plan keys and sweep header,
eps_fail <= delta_min at the returned budget, expected_pairs >= the
all-success pair count (n_b + 1)(n_p + 1), and every verify check passing.
"""

from __future__ import annotations

import json
import math
import os

REFS_PATH = os.path.join(os.path.dirname(os.path.abspath(__file__)), "refs.json")

#: Relative bound on float drift against the references.
REL_TOL = 1e-6

PLAN_KEYS = [
    "schedule", "delta_min", "n_tot_budget", "expected_pairs", "eps_fail",
    "eps_E", "t_robust_ent", "t_C", "gamma", "p_cnot_raw",
]
SWEEP_HEADER = "p_L,F,noise,n_b,n_p,delta_min,eps_fail,eps_E,n_tot_budget,expected_pairs,t_C_s,gamma"
_SWEEP_INTS = {"n_b", "n_p", "n_tot_budget"}
_VERIFY_INTS = {"pass", "budget"}


class Mismatch(Exception):
    pass


def load_refs(path: str = REFS_PATH) -> dict:
    with open(path) as fh:
        refs = json.load(fh)
    lines = refs["sweep_csv"].splitlines()
    refs["sweep_rows"] = {tuple(line.split(",")[:2]): line for line in lines[1:]}
    return refs


def _close(name: str, got: float, want: float) -> None:
    if not math.isclose(got, want, rel_tol=REL_TOL, abs_tol=0.0):
        raise Mismatch(f"{name}: {got!r} vs reference {want!r}")


def _same(name: str, got, want) -> None:
    if got != want:
        raise Mismatch(f"{name}: {got!r} vs reference {want!r}")


def _plan_invariants(n_b: int, n_p: int, delta_min: float, eps_fail: float, expected: float) -> None:
    if not eps_fail <= delta_min:
        raise Mismatch(f"eps_fail {eps_fail!r} exceeds delta_min {delta_min!r}")
    if not expected >= (n_b + 1) * (n_p + 1):
        raise Mismatch(f"expected_pairs {expected!r} below the all-success count")


def check_plan(argv, rc: int, text: str, refs: dict) -> bool | None:
    """Raise Mismatch on a wrong plan; return byte identity (None: no reference)."""
    _same("exit code", rc, 0)
    got = json.loads(text)
    _same("plan keys", list(got), PLAN_KEYS)
    n_b, n_p = got["schedule"]["n_b"], got["schedule"]["n_p"]
    _plan_invariants(n_b, n_p, got["delta_min"], got["eps_fail"], got["expected_pairs"])
    ref = refs["plans"].get(" ".join(argv))
    if ref is None:
        return None
    _same("exit code", rc, ref["rc"])
    want = json.loads(ref["stdout"])
    _same("schedule", got["schedule"], want["schedule"])
    _same("n_tot_budget", got["n_tot_budget"], want["n_tot_budget"])
    for key in PLAN_KEYS[1:]:
        if key != "n_tot_budget":
            _close(key, got[key], want[key])
    return text == ref["stdout"]


def check_sweep(argv, rc: int, text: str, refs: dict) -> bool | None:
    _same("exit code", rc, 0)
    lines = text.splitlines()
    _same("header", lines[0], SWEEP_HEADER)
    opt = dict(zip(argv[1::2], argv[2::2]))
    p_ls = [opt["--p-l-min"], opt["--p-l-max"]][: int(opt["--p-l-points"])]
    fs = [opt["--f-min"], opt["--f-max"]][: int(opt["--f-points"])]
    points = [(p, f) for p in p_ls for f in fs]
    _same("rows", [tuple(line.split(",")[:2]) for line in lines[1:]], points)
    names = SWEEP_HEADER.split(",")
    identical = True
    for line in lines[1:]:
        got = dict(zip(names, line.split(",")))
        _same("noise", got["noise"], "depolarizing")
        n_b, n_p = int(got["n_b"]), int(got["n_p"])
        _plan_invariants(n_b, n_p, float(got["delta_min"]), float(got["eps_fail"]), float(got["expected_pairs"]))
        ref = refs["sweep_rows"].get((got["p_L"], got["F"]))
        if ref is None:
            identical = None
            continue
        want = dict(zip(names, ref.split(",")))
        for key in names[3:]:
            if key in _SWEEP_INTS:
                _same(f"{got['p_L']},{got['F']} {key}", int(got[key]), int(want[key]))
            else:
                _close(f"{got['p_L']},{got['F']} {key}", float(got[key]), float(want[key]))
        if identical is not None:
            identical &= line == ref
    return identical


def _verify_fields(line: str) -> tuple[str, dict]:
    head, _, tail = line.partition(" pass=")
    fields = dict(item.split("=", 1) for item in ("pass=" + tail).split())
    return head, fields


def check_verify(op, rc: int, text: str, refs: dict) -> bool | None:
    _same("exit code", rc, 0)
    lines = text.splitlines()
    for line in lines:
        head, got = _verify_fields(line)
        if got["pass"] != "1":
            raise Mismatch(f"check failed: {head}")
    ref = refs["verify"].get(str(op[1]))
    if ref is None:
        return None
    ref_lines = ref.splitlines()
    _same("checks", len(lines), len(ref_lines))
    for line, ref_line in zip(lines, ref_lines):
        head, got = _verify_fields(line)
        ref_head, want = _verify_fields(ref_line)
        _same("check", head, ref_head)
        _same(f"{head} fields", sorted(got), sorted(want))
        for key, value in got.items():
            if key in _VERIFY_INTS:
                _same(f"{head} {key}", int(value), int(want[key]))
            else:
                _close(f"{head} {key}", float(value), float(want[key]))
    return text == ref


CHECKERS = {"plan": check_plan, "sweep": check_sweep, "verify": check_verify}


def check(op, rc: int, text: str, refs: dict) -> bool | None:
    """Raise Mismatch if the output is wrong; return whether it is byte-identical."""
    try:
        return CHECKERS[op[0]](op, rc, text, refs)
    except (ValueError, KeyError, IndexError, TypeError) as exc:
        raise Mismatch(f"malformed output: {exc!r}") from exc
