"""Ground-truth checks of each workload's outcomes.

Every function compares one item's outcome, reduced to plain data, with
the expectation the generator recorded, and returns the list of problems
found; an empty list means the answer is correct. A wrong outcome is
counted once however many problems it has. Exceptions the program should
not raise are recorded by the runner, not here.
"""

from __future__ import annotations


def leaf_key(item):
    """Sort key for (multiindex, mult) pairs with mixed int and "u" entries."""
    multiindex, mult = item
    return tuple((1,) if e == "u" else (0, e) for e in multiindex), mult


def _leaves(pairs) -> list:
    return sorted(((tuple(m), int(k)) for m, k in pairs), key=leaf_key)


def _blocks(pairs) -> list:
    return sorted((int(p), int(m)) for p, m in pairs)


def check_single(expected: dict, outcome: dict) -> list[str]:
    """Outcome keys: accept, and for accepted inputs unitary_dim and blocks."""
    if not expected["accept"]:
        return ["invalid input was accepted"] if outcome["accept"] else []
    if not outcome["accept"]:
        return [f"valid input was not certified ({outcome.get('reason')})"]
    problems = []
    if outcome["unitary_dim"] != expected["unitary_dim"]:
        problems.append(f"unitary dim {outcome['unitary_dim']} != {expected['unitary_dim']}")
    if _blocks(outcome["blocks"]) != _blocks(expected["blocks"]):
        problems.append(f"blocks {outcome['blocks']} != {expected['blocks']}")
    return problems


def check_tuple(expected: dict, outcome: dict) -> list[str]:
    """Outcome keys: verify, and for verified tuples leaves and verdicts."""
    if not expected["verify"]:
        return ["perturbed tuple passed verify_twisted"] if outcome["verify"] else []
    if not outcome["verify"]:
        return ["valid tuple failed verify_twisted"]
    if outcome.get("leaves") is None:
        return [f"valid tuple was not certified ({outcome.get('reason')})"]
    problems = []
    if _leaves(outcome["leaves"]) != _leaves(expected["leaves"]):
        problems.append(f"leaves {outcome['leaves']} != {expected['leaves']}")
    if outcome.get("verdicts", []) != expected.get("verdicts", []):
        problems.append(f"verdicts {outcome.get('verdicts')} != {expected.get('verdicts')}")
    return problems


def check_rung(expected: dict, outcome: dict, eps: float) -> list[str]:
    """Outcome keys: verify, leaves, hw, projection_max, commutant."""
    problems = check_tuple(expected, outcome)
    unitary_dim, blocks = outcome["hw"] if outcome.get("hw") else (None, [])
    if unitary_dim != expected["hw"][0] or _blocks(blocks) != _blocks(expected["hw"][1]):
        problems.append(f"V1 decomposition {outcome.get('hw')} != {expected['hw']}")
    if expected["projection_check"]:
        worst = outcome.get("projection_max")
        if worst is None or worst > eps:
            problems.append(f"block projections of V1 do not commute with V2 ({worst})")
    if outcome.get("commutant") != expected["commutant"]:
        problems.append(f"commutant dimension {outcome.get('commutant')} != {expected['commutant']}")
    return problems


def check_cli(expected: dict, exit_code: int, report: dict | None) -> list[str]:
    """Compare an exit code and the parsed report with the expectation.

    Reports are read for their answers only; the `timing` field is never
    consulted.
    """
    if exit_code != expected["exit"]:
        return [f"exit code {exit_code} != {expected['exit']}"]
    if report is None:
        return ["no report was written"]
    problems = []
    if "pass" in expected and report.get("pass") != expected["pass"]:
        problems.append(f"pass {report.get('pass')} != {expected['pass']}")
    if "generated_dim" in expected:
        ops = report.get("operators", [])
        if report.get("dim") != expected["generated_dim"] or len(ops) != 2:
            problems.append(f"generated document has dim {report.get('dim')} and {len(ops)} operators")
    if "leaves" in expected:
        got = [(leaf["multiindex"], leaf["mult_dim"]) for leaf in report.get("leaves", [])]
        if _leaves(got) != _leaves(expected["leaves"]):
            problems.append(f"leaves {got} != {expected['leaves']}")
    if "blocks" in expected:
        got = [(b["p"], b["mult"]) for b in report.get("blocks", [])]
        if report.get("unitary_dim") != expected["unitary_dim"] or _blocks(got) != _blocks(expected["blocks"]):
            problems.append(f"hw answer {report.get('unitary_dim')}, {got} != {expected['blocks']}")
    if "verdict" in expected and report.get("verdict") != expected["verdict"]:
        problems.append(f"verdict {report.get('verdict')} != {expected['verdict']}")
    if "dimension" in expected and report.get("dimension") != expected["dimension"]:
        problems.append(f"commutant dimension {report.get('dimension')} != {expected['dimension']}")
    return problems
