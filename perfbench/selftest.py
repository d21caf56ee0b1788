"""Self-test of the benchmark's checks: each one must pass on fmpart's real
results and fire on a corrupted copy of them.

    python3 perfbench/selftest.py

Prints one line per case and exits 1 if any check stayed silent on a
corrupted result, or complained about a correct one.
"""

from __future__ import annotations

import os
import random
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, os.path.join(os.path.dirname(HERE), "src"))
sys.path.insert(0, HERE)

from fmpart import FmConfig, build, exact_min_cut_balanced, fm_run, variant_run  # noqa: E402

import checks  # noqa: E402
import gen  # noqa: E402
import run  # noqa: E402

MAX_PASSES = 100


def instance(n: int, seed: int) -> checks.Truth:
    nets = gen.planted_nets(random.Random(seed), n, 2 * n, round(0.4 * n))
    return checks.Truth(gen.Instance(f"case{n}.hgr", n, nets, [str(c + 1) for c in range(n)]))


def row(truth: checks.Truth, algorithm: str, seed: int) -> dict:
    h = build(truth.inst.nets, truth.n)
    runner = fm_run if algorithm == "fm" else variant_run
    r = runner(h, FmConfig(seed=seed, max_passes=MAX_PASSES), label=truth.inst.path)
    return {
        "file": r.label, "algorithm": r.algorithm, "seed": r.seed, "initial_cut": r.initial_cut,
        "optimal_cut": r.optimal_cut, "passes": r.passes, "elapsed_ms": r.elapsed_ms,
        "final_side": list(r.final_side),
    }


def names(truth: checks.Truth) -> list[str]:
    return list(truth.inst.names)


def worsening_cell(truth: checks.Truth, side: list[int], block: int) -> int:
    gains = truth.gains(side)
    return next(c for c in range(truth.n) if side[c] == block and gains[c] < 0)


def main() -> int:
    odd = instance(15, 1)
    even = instance(16, 2)
    fm_odd = row(odd, "fm", 3)
    var_even = row(even, "fm_variant", 3)
    var_odd = row(odd, "fm_variant", 4)
    h = build(odd.inst.nets, odd.n)
    oracle = exact_min_cut_balanced(h, "off_by_one")
    verdict = {"file": odd.inst.path, "optimum": oracle.optimum_cut, "witness": list(oracle.witness.side),
               "runs": [fm_odd, var_odd]}

    cases = []

    def case(name, problems, expect):
        fired = [p for p in problems if expect in p]
        ok = bool(fired) if expect else not problems
        cases.append(ok)
        shown = fired[0] if fired else (problems[0] if problems else "no problem found")
        print(f"{'ok  ' if ok else 'FAIL'} {name}: {shown}")

    # genuine results pass every check
    for r, t in ((fm_odd, odd), (var_even, even), (var_odd, odd)):
        case(f"genuine {r['algorithm']} on {t.n} cells", checks.check_row(t, names(t), r, MAX_PASSES), "")
    case("genuine oracle verdict", checks.check_oracle(odd, names(odd), verdict), "")

    # one flipped cell in final_side
    side = list(var_even["final_side"])
    gains = even.gains(side)
    side[next(c for c in range(even.n) if gains[c])] ^= 1
    case("flipped cell in a variant side", checks.check_row(even, names(even), dict(var_even, final_side=side), MAX_PASSES), "recount")
    case("flipped cell unbalances a variant side", checks.check_row(even, names(even), dict(var_even, final_side=side), MAX_PASSES), "block sizes")

    # a reported cut that does not match the sides
    case("cut off by one", checks.check_row(odd, names(odd), dict(fm_odd, optimal_cut=fm_odd["optimal_cut"] + 1), MAX_PASSES), "recount")

    # a final cut above the initial one
    case("final above initial", checks.check_row(odd, names(odd), dict(fm_odd, initial_cut=fm_odd["optimal_cut"] - 1), MAX_PASSES), "above initial")

    # a parser that mixes up two cells' names
    swapped = names(odd)
    a = next(c for c in range(odd.n) if fm_odd["final_side"][c] == 0)
    b = next(c for c in range(odd.n) if fm_odd["final_side"][c] == 1)
    swapped[a], swapped[b] = swapped[b], swapped[a]
    problems = []
    for seed in range(1, 6):
        problems += checks.check_row(odd, swapped, row(odd, "fm", seed), MAX_PASSES)
    case("two cell names swapped", problems, "recount")

    # an improving swap planted into a final variant partition
    side = list(var_even["final_side"])
    u = worsening_cell(even, side, 0)
    side[u] = 1
    v = worsening_cell(even, side, 1)
    side[v] = 0
    planted = dict(var_even, final_side=side, optimal_cut=even.cut(side))
    planted["initial_cut"] = max(planted["initial_cut"], planted["optimal_cut"])
    case("improving swap planted", checks.check_row(even, names(even), planted, MAX_PASSES), "gains")
    case("planted swap unchecked at the pass cap", checks.check_row(even, names(even), dict(planted, passes=MAX_PASSES), MAX_PASSES), "")

    # an improving single move planted into a final FM partition (odd count)
    side = list(fm_odd["final_side"])
    larger = 1 if 2 * sum(side) > odd.n else 0
    side[worsening_cell(odd, side, larger)] ^= 1
    planted = dict(fm_odd, final_side=side, optimal_cut=odd.cut(side))
    planted["initial_cut"] = max(planted["initial_cut"], planted["optimal_cut"])
    case("improving move planted", checks.check_row(odd, names(odd), planted, MAX_PASSES), "larger block")

    # an oracle optimum off by one
    case("oracle optimum off by one", checks.check_oracle(odd, names(odd), dict(verdict, optimum=oracle.optimum_cut - 1)), "enumeration finds")
    case("oracle witness does not recount", checks.check_oracle(odd, names(odd), dict(verdict, optimum=oracle.optimum_cut + 1)), "recounts")

    # an oracle that returns a worse balanced witness with its true cut
    worse = list(oracle.witness.side)
    pairs = [(p, q) for p in range(odd.n) for q in range(odd.n) if worse[p] == 0 and worse[q] == 1]
    p, q = min(pairs, key=lambda pq: odd.swap_delta(worse, *pq))
    worse[p], worse[q] = 1, 0
    bad = dict(verdict, witness=worse, optimum=odd.cut(worse))
    case("oracle above an algorithm's cut", checks.check_oracle(odd, names(odd), bad), "below optimum")
    case("oracle above enumeration", checks.check_oracle(odd, names(odd), bad), "enumeration finds")

    # an unbalanced oracle witness
    lopsided = [0] * odd.n
    case("unbalanced witness", checks.check_oracle(odd, names(odd), dict(verdict, witness=lopsided, optimum=0)), "unbalanced")

    # a round counts each task that raised or failed a check once
    rec = {"names": [names(odd)], "max_passes": MAX_PASSES, "tasks": [
        {"task_s": 0.0, "rows": [fm_odd]},
        {"task_s": 0.0, "rows": [dict(fm_odd, optimal_cut=fm_odd["optimal_cut"] + 1), var_odd]},
        {"error": "raised on purpose"},
    ]}
    attempted, failed, raised, wrong = run.check_round([odd], rec)
    ok = (attempted, failed, raised, len(wrong)) == (3, 2, ["raised on purpose"], 1)
    cases.append(ok)
    print(f"{'ok  ' if ok else 'FAIL'} round tally: attempted={attempted} failed={failed} raised={len(raised)} wrong={len(wrong)}")

    failed = cases.count(False)
    print(f"{len(cases) - failed}/{len(cases)} cases behaved")
    return 1 if failed else 0


if __name__ == "__main__":
    raise SystemExit(main())
