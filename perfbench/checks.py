"""Correctness checks on the program's results, computed apart from it.

Every check reads the generator's own net lists (`gen.Instance.nets`) and
recounts from a side vector; none uses fmpart's parsers, cut bookkeeping or
stored copies of earlier output. Each function returns a list of problems,
empty when the result is correct.
"""

from __future__ import annotations

import itertools

from gen import Instance

# instances up to this size also get their optimum from plain enumeration
BRUTE_MAX_CELLS = 16


class Truth:
    """Per-instance lookups the checks share: pins by cell and name to id."""

    def __init__(self, inst: Instance):
        self.inst = inst
        self.n = inst.cell_count
        self.cell_nets: list[list[int]] = [[] for _ in range(self.n)]
        for k, net in enumerate(inst.nets):
            for c in net:
                self.cell_nets[c].append(k)
        self.id_of = {name: c for c, name in enumerate(inst.names)}
        self._brute: int | None = None

    def to_generator_sides(self, cell_names: list[str], side: list[int]) -> list[int]:
        """Side vector in generator ids, from the program's cell-name table."""
        if len(side) != self.n or len(cell_names) != self.n:
            raise ValueError(f"expected {self.n} cells, got {len(side)} sides and {len(cell_names)} names")
        out = [-1] * self.n
        for name, s in zip(cell_names, side):
            c = self.id_of.get(name)
            if c is None or out[c] != -1:
                raise ValueError(f"cell name {name!r} unknown or repeated")
            if s not in (0, 1):
                raise ValueError(f"side {s!r} of {name!r} is not 0 or 1")
            out[c] = s
        return out

    def cut(self, side: list[int]) -> int:
        return sum(1 for net in self.inst.nets if len({side[c] for c in net}) > 1)

    def gains(self, side: list[int]) -> list[int]:
        """Cut reduction of moving each cell alone to the other block."""
        ones = [sum(side[c] for c in net) for net in self.inst.nets]
        out = []
        for c in range(self.n):
            g = 0
            for k in self.cell_nets[c]:
                size = len(self.inst.nets[k])
                own = ones[k] if side[c] else size - ones[k]
                g += (own == 1) - (own == size)
            out.append(g)
        return out

    def swap_delta(self, side: list[int], u: int, v: int) -> int:
        """Cut reduction of swapping u and v, by recounting their nets."""
        nets = set(self.cell_nets[u]) | set(self.cell_nets[v])
        before = sum(1 for k in nets if len({side[c] for c in self.inst.nets[k]}) > 1)
        moved = list(side)
        moved[u] ^= 1
        moved[v] ^= 1
        after = sum(1 for k in nets if len({moved[c] for c in self.inst.nets[k]}) > 1)
        return before - after

    def brute_optimum(self) -> int:
        """Balanced min cut by plain enumeration; cell 0 stays in block 0."""
        if self._brute is None:
            best = None
            for size0 in sorted({self.n // 2, (self.n + 1) // 2}):
                for rest in itertools.combinations(range(1, self.n), size0 - 1):
                    side = [1] * self.n
                    side[0] = 0
                    for c in rest:
                        side[c] = 0
                    cut = self.cut(side)
                    if best is None or cut < best:
                        best = cut
            self._brute = best
        return self._brute


def fm_stop_violation(truth: Truth, side: list[int]) -> str | None:
    """With an odd cell count the first FM move of a pass always leaves the
    larger block and lands on a balanced prefix, so a run that stopped on its
    own has no positive-gain cell there."""
    ones = sum(side)
    larger = 1 if 2 * ones > truth.n else 0
    for c, g in enumerate(truth.gains(side)):
        if side[c] == larger and g > 0:
            return f"moving cell {c} out of the larger block gains {g}"
    return None


def swap_stop_violation(truth: Truth, side: list[int]) -> str | None:
    """The first swap of a pass is the best cross pair, so a run that stopped
    on its own has no improving swap. On an odd count the filler cell sits in
    the smaller block; swapping with it is a single move out of the larger.

    A swap gains at most g(u) + g(v), since a net holding both cells stays
    cut; so only pairs with g(u) + g(v) > 0 need an exact recount, and for
    pairs that share no net the sum is exact.
    """
    gains = truth.gains(side)
    blocks = ([c for c in range(truth.n) if side[c] == 0], [c for c in range(truth.n) if side[c] == 1])
    if truth.n % 2:
        larger = blocks[0] if len(blocks[0]) > len(blocks[1]) else blocks[1]
        for c in larger:
            if gains[c] > 0:
                return f"swapping cell {c} with the filler gains {gains[c]}"
    a = sorted(blocks[0], key=gains.__getitem__, reverse=True)
    b = sorted(blocks[1], key=gains.__getitem__, reverse=True)
    for u in a:
        if gains[u] + gains[b[0]] <= 0:
            break
        near = {x for k in truth.cell_nets[u] for x in truth.inst.nets[k]}
        for v in b:
            bound = gains[u] + gains[v]
            if bound <= 0:
                break
            g = truth.swap_delta(side, u, v) if v in near else bound
            if g > 0:
                return f"swapping cells {u} and {v} gains {g}"
    return None


def check_row(truth: Truth, cell_names: list[str], row: dict, max_passes: int) -> list[str]:
    """One algorithm result: cut recount, balance, improvement, stopping rule."""
    where = f"{row['file']} {row['algorithm']} seed {row['seed']}"
    try:
        side = truth.to_generator_sides(cell_names, row["final_side"])
    except ValueError as exc:
        return [f"{where}: {exc}"]
    problems = []
    cut = truth.cut(side)
    if cut != row["optimal_cut"]:
        problems.append(f"{where}: reported cut {row['optimal_cut']}, recount {cut}")
    diff = abs(truth.n - 2 * sum(side))
    allowed = truth.n % 2 if row["algorithm"] == "fm_variant" else 1
    if diff > allowed:
        problems.append(f"{where}: block sizes differ by {diff}")
    if row["optimal_cut"] > row["initial_cut"]:
        problems.append(f"{where}: final cut {row['optimal_cut']} above initial {row['initial_cut']}")
    if row["passes"] < max_passes and not problems:
        if row["algorithm"] == "fm_variant":
            bad = swap_stop_violation(truth, side)
        else:
            bad = fm_stop_violation(truth, side) if truth.n % 2 else None
        if bad:
            problems.append(f"{where}: stopped after {row['passes']} passes but {bad}")
    return problems


def check_oracle(truth: Truth, cell_names: list[str], verdict: dict) -> list[str]:
    """The oracle's optimum: witness balanced and recounting to it, no
    algorithm below it, and on small instances equal to plain enumeration."""
    where = f"{verdict['file']} oracle"
    optimum = verdict["optimum"]
    try:
        side = truth.to_generator_sides(cell_names, verdict["witness"])
    except ValueError as exc:
        return [f"{where}: {exc}"]
    problems = []
    if abs(truth.n - 2 * sum(side)) > 1:
        problems.append(f"{where}: witness is unbalanced")
    cut = truth.cut(side)
    if cut != optimum:
        problems.append(f"{where}: optimum {optimum}, witness recounts to {cut}")
    for row in verdict["runs"]:
        if row["optimal_cut"] < optimum:
            problems.append(f"{where}: {row['algorithm']} seed {row['seed']} cut {row['optimal_cut']} below optimum {optimum}")
    if truth.n <= BRUTE_MAX_CELLS and truth.brute_optimum() != optimum:
        problems.append(f"{where}: optimum {optimum}, enumeration finds {truth.brute_optimum()}")
    return problems
