"""The benchmark's workloads, each a list of problems generated from a seed.

A problem's ``solve`` is the one timed call into rankgrowth (an
``analyze_*`` call or ``cli.run`` plus serialisation of its document).
Its ``judge`` checks the outcome against ``reference`` and says whether it
was a certified growth result.  Each workload is a fixed list of cells;
the seed draws the values inside a cell (antichains, summands, seed sets,
coefficient signs, config contents), so different seeds give different
inputs of the same size and shape and their timings stay comparable.
"""

from __future__ import annotations

import functools
import itertools
import json
import os
import random
from dataclasses import dataclass
from fractions import Fraction
from typing import Callable, List, Optional, Tuple

import reference as ref

CERTIFIED = "certified"
TRUNCATED = "box-truncated"


@dataclass
class Problem:
    name: str
    solve: Callable[[], object]
    # returns (certified, error); certified is None when no growth result is made
    judge: Callable[[object], Tuple[Optional[bool], Optional[str]]]
    reference: bool = False


def _poly_mismatch(coeffs, threshold, truth, memo) -> Optional[str]:
    for s in ref.check_points(threshold):
        if s not in memo:
            memo[s] = truth(s)
        got = ref.evaluate(coeffs, s)
        if got != memo[s]:
            return f"polynomial gives {got} at {s}, brute force gives {memo[s]}"
    return None


def _pipeline_judge(truth):
    """Judge for a PipelineResult: certified results must match ``truth``."""
    memo = {}

    def judge(result):
        if result.status == TRUNCATED:
            return False, None
        if result.status != CERTIFIED:
            return None, f"unexpected status {result.status!r}"
        P = result.polynomial
        return True, _poly_mismatch(P.coeffs, P.threshold, truth, memo)

    return judge


def _antichain(points):
    pts = set(points)
    return sorted(p for p in pts if not any(q != p and ref.leq(q, p) for q in pts))


# ---------------------------------------------------------------------------
# count-sweep: default boxes, set-insert builders, the biggest tables
# ---------------------------------------------------------------------------

# ROADMAP's three reference problems (fixed, whatever the seed)
REF_IDEAL_ANTICHAIN = [(0, 0, 3), (1, 2, 0), (2, 0, 1)]
REF_SUMMANDS = [[(0,), (1,), (4,)], [(0,), (3,)]]

# (partition, cumulative, count) of random lattice-ideal systems
IDEAL_CELLS = [
    ([1], False, 4), ([1], True, 4),
    ([2], False, 6), ([2], True, 6),
    ([1, 1], False, 6), ([1, 1], True, 6),
    ([3], False, 6), ([3], True, 3),
    ([1, 2], False, 8),
]
# (summand sizes, |A| per problem) of random sumsets
SUMSET_CELLS = [
    ((1,), (1, 2, 3, 4, 5)),
    ((2,), (1, 2, 3, 4, 5) * 2),
    ((3,), (1, 2, 3, 4, 5) * 2),
    ((1, 1), (1, 2, 3, 4, 5) * 2),
    ((1, 2), (1, 2, 3, 4, 5)),
    ((2, 1), (1, 2, 3, 4, 5)),
]
# graded [2] ideals whose staircase plus window cannot fit the default box
TRUNCATED_IDEALS = 4


def count_sweep(seed: int, workdir: str) -> List[Problem]:
    from rankgrowth import (
        analyze_cumulative,
        analyze_graded,
        make_ideal_system,
        make_polynomial_ring_system,
        make_sumset_system,
    )

    rng = random.Random(seed)
    problems = []

    def ideal(name, antichain, parts, cumulative, is_ref=False):
        system, A = make_ideal_system(antichain, parts)
        analyze = analyze_cumulative if cumulative else analyze_graded
        truth = lambda s: ref.ideal_count(antichain, parts, s, cumulative)  # noqa: E731
        solve = lambda: analyze(system, A, [])  # noqa: E731
        problems.append(Problem(name, solve, _pipeline_judge(truth), is_ref))

    def sumset(name, summands, A, is_ref=False):
        system = make_sumset_system(*summands)
        truth = lambda s: len(ref.sumset(A, summands, s))  # noqa: E731
        solve = lambda: analyze_graded(system, A, [])  # noqa: E731
        problems.append(Problem(name, solve, _pipeline_judge(truth), is_ref))

    ideal("ref ideal [1,2] cumulative", REF_IDEAL_ANTICHAIN, [1, 2], True, True)
    sumset("ref sumset {0,1,4}+{0,3} graded", REF_SUMMANDS, [(0,)], True)
    ring, ring_seed = make_polynomial_ring_system(3)
    problems.append(
        Problem(
            "ref ring3 cumulative",
            lambda: analyze_cumulative(ring, ring_seed, []),
            _pipeline_judge(
                lambda s: ref.word_image_count([(0, 0, 0)], [3], s, cumulative=True)
            ),
            True,
        )
    )

    for parts, cumulative, count in IDEAL_CELLS:
        m = sum(parts)
        for i in range(count):
            pts = [
                tuple(rng.randint(0, 3) for _ in range(m))
                for _ in range(rng.randint(1, 3))
            ]
            mode = "cumulative" if cumulative else "graded"
            ideal(f"ideal {parts} {mode} #{i}", _antichain(pts), parts, cumulative)
    for i in range(TRUNCATED_IDEALS):
        a = rng.randint(5, 8)
        far = [(a, rng.randint(13 - a, 16 - a))]
        ideal(f"ideal [2] graded far #{i}", far, [2], False)
    for sizes, seed_counts in SUMSET_CELLS:
        for n_seeds in seed_counts:
            summands = [[(b,) for b in sorted(rng.sample(range(5), d))] for d in sizes]
            A = [(a,) for a in sorted(rng.sample(range(8), n_seeds))]
            sumset(f"sumset {list(sizes)} |A|={n_seeds}", summands, A)
    return problems


# ---------------------------------------------------------------------------
# dense-linear: products of linear forms, dense Fraction elimination
# ---------------------------------------------------------------------------

# (partition, box, seeds per problem, problems); problem i of a cell takes
# its seed exponents from DENSE_SEEDS and its linear forms from DENSE_FORMS
# (up to signs), cycling through both
DENSE_CELLS = [
    ([1, 2], 3, 1, 68),
    ([1, 2], 3, 2, 16),
    ([1, 2], 4, 1, 8),
    ([3], 3, 1, 6),
    ([3], 3, 2, 2),
]
DENSE_SEEDS = {
    1: [
        [(0, 0, 0)], [(1, 0, 0)], [(0, 1, 0)], [(0, 0, 1)],
        [(1, 1, 0)], [(0, 1, 1)], [(1, 0, 1)],
    ],
    # seeds a part degree apart never meet; the others' orbits overlap
    2: [
        [(0, 1, 0), (0, 0, 1)],
        [(0, 0, 0), (1, 0, 0)],
        [(1, 1, 0), (1, 0, 1)],
        [(0, 1, 0), (1, 1, 0)],
        [(1, 0, 0), (0, 1, 0)],
        [(0, 0, 1), (0, 1, 1)],
    ],
}
# integer coefficient rows of three linearly independent forms in x, y, z
DENSE_FORMS = [
    [[1, 1, 0], [0, 1, -1], [1, 0, 2]],
    [[1, 0, 2], [1, 1, 0], [0, -1, 1]],
    [[2, 1, 0], [0, 1, 1], [1, 0, -1]],
    [[1, -1, 1], [0, 1, 0], [1, 0, 2]],
]


def _polymul(p, q):
    out = {}
    for k1, c1 in p.items():
        for k2, c2 in q.items():
            k = ref.add(k1, k2)
            out[k] = out.get(k, 0) + c1 * c2
    return {k: c for k, c in out.items() if c}


def dense_linear(seed: int, workdir: str) -> List[Problem]:
    from rankgrowth import LinearBackend, OperatorSystem, Partition, StabilizationConfig
    from rankgrowth import analyze_graded
    from rankgrowth.backends import linear_operator

    rng = random.Random(seed)
    units = [(1, 0, 0), (0, 1, 0), (0, 0, 1)]
    problems = []
    cells = [
        (parts, box, DENSE_SEEDS[n][i % len(DENSE_SEEDS[n])], i)
        for parts, box, n, count in DENSE_CELLS
        for i in range(count)
    ]
    for parts, box, exponents, i in cells:
        # signs of variables and of forms change the problem without changing
        # the size of any intermediate coefficient
        col = [rng.choice((1, -1)) for _ in range(3)]
        row = [rng.choice((1, -1)) for _ in range(3)]
        M = [
            [row[r] * col[c] * x for c, x in enumerate(coeffs)]
            for r, coeffs in enumerate(DENSE_FORMS[i % len(DENSE_FORMS)])
        ]
        forms = [{units[c]: x for c, x in enumerate(r) if x} for r in M]
        backend = LinearBackend()

        def multiply_by(form):
            return linear_operator(
                backend, lambda key: [(ref.add(key, u), c) for u, c in form.items()]
            )

        maps = [multiply_by(f) for f in forms]
        system = OperatorSystem(maps, Partition(parts), backend)
        seeds = []
        for a in exponents:
            p = {(0, 0, 0): 1}
            for form, times in zip(forms, a):
                for _ in range(times):
                    p = _polymul(p, form)
            seeds.append(backend.vector(p.items()))
        cfg = StabilizationConfig(box=(box,) * 3)
        problems.append(
            Problem(
                f"forms {parts} box {box} seeds {exponents}",
                functools.partial(analyze_graded, system, seeds, [], cfg),
                _pipeline_judge(
                    functools.partial(ref.word_image_count, exponents, parts)
                ),
            )
        )
    rng.shuffle(problems)
    return problems


# ---------------------------------------------------------------------------
# cli-mix: JSON configs through rankgrowth.cli.run, every mode and backend
# ---------------------------------------------------------------------------

# each copy of the config catalogue draws its own values
CLI_COPIES = 3
EXPECTED_STATUS = {
    0: CERTIFIED, 1: "input-error", 2: TRUNCATED, 3: "hypothesis-failure"
}


def _cycle_rotation(n: int, step: int) -> dict:
    return {str(i): str((i + step) % n) for i in range(n)}


def _cli_configs(rng: random.Random):
    """(name, config or None for a missing file, exit code, status, truth, extra)."""
    out = []

    def add(name, config, code, truth=None, status=None, extra=None):
        out.append((name, config, code, status or EXPECTED_STATUS[code], truth, extra))

    for i, sizes in enumerate([(3,), (2, 1), (1, 2)]):
        summands = [sorted(rng.sample(range(5), d)) for d in sizes]
        A = sorted(rng.sample(range(6), rng.randint(1, 2)))
        vecs = [[(b,) for b in S] for S in summands]
        add(
            f"sumset #{i}",
            {"mode": "sumset", "backend_data": {"summands": summands},
             "A": [[a] for a in A], "box": 6},
            0,
            lambda s, vecs=vecs, A=A: len(ref.sumset([(a,) for a in A], vecs, s)),
        )
    for i in range(3):
        ops = [[rng.randint(0, 2), rng.randint(0, 2)] for _ in range(2)]
        parts = [[2], [1, 1]][i % 2]
        A = [[0, 0], [rng.randint(1, 3), rng.randint(0, 3)]][: 1 + i % 2]
        groups = [ops] if parts == [2] else [[ops[0]], [ops[1]]]
        add(
            f"dimension trivial #{i}",
            {"mode": "dimension", "backend": "trivial",
             "backend_data": {"dimension": 2}, "operators": ops,
             "partition": parts, "A": A, "box": 5},
            0,
            lambda s, g=groups, A=A: len(
                ref.sumset([tuple(a) for a in A], [[tuple(v) for v in G] for G in g], s)
            ),
        )
    for i in range(3):
        parts = [[2], [1, 1]][i % 2]
        antichain = _antichain(
            [(rng.randint(0, 2), rng.randint(0, 2)) for _ in range(rng.randint(1, 2))]
        )
        add(
            f"cumulative ideal #{i}",
            {"mode": "cumulative", "backend": "ideal-count",
             "backend_data": {"complement_antichain": [list(p) for p in antichain]},
             "partition": parts, "box": 5},
            0,
            lambda s, ac=antichain, parts=parts: ref.ideal_count(ac, parts, s, True),
        )
    for i in range(3):
        cumulative = i == 2
        antichain = _antichain(
            [(rng.randint(0, 3), rng.randint(0, 3)) for _ in range(rng.randint(1, 3))]
        )
        add(
            f"ideal-count #{i}",
            {"mode": "ideal-count", "backend": "ideal-count",
             "backend_data": {"complement_antichain": [list(p) for p in antichain]},
             "partition": [2], "cumulative": cumulative, "box": 6},
            0,
            lambda s, ac=antichain, c=cumulative: ref.ideal_count(ac, [2], s, c),
        )
    for i in range(2):
        b1, b2 = rng.sample(range(1, 5), 2)
        A = sorted(rng.sample(range(4), 2))
        B = [rng.randint(0, 3)]
        add(
            f"context #{i}",
            {"mode": "context", "backend": "trivial", "backend_data": {"dimension": 1},
             "operators": [[b1]], "partition": [1], "context_operators": [[[b1], [b2]]],
             "A": [[a] for a in A], "B": [[b] for b in B], "box": 8},
            0,
            lambda s, A=A, B=B, b1=b1, b2=b2: len(
                ref.sumset([(a,) for a in A], [[(b1,)]], s)
                - ref.sumset([(b,) for b in B], [[(b1,), (b2,)]], s)
            ),
        )
    for i in range(3):
        d = i + 1
        ops = [[rng.randint(0, 3), rng.randint(0, 3)] for _ in range(d)]
        A = [[0, 0]] + [[rng.randint(1, 3), rng.randint(4, 6)]][: i % 2]

        def truth(s, ops=ops, A=A):
            return len(ref.sumset([tuple(a) for a in A], [[tuple(v) for v in ops]], s))

        def phi(doc, truth=truth, d=d):
            t = doc["polynomial"]["threshold"][0] + 3
            want = ref.leading_difference([truth((t + j,)) for j in range(d)])
            if doc.get("phi_rank") != str(want):
                return f"phi_rank {doc.get('phi_rank')!r}, brute force gives {want}"
            return None

        add(
            f"phi-rank #{i}",
            {"mode": "phi-rank", "backend": "trivial", "backend_data": {"dimension": 2},
             "operators": ops, "partition": [d], "A": A, "box": 6},
            0, truth, extra=phi,
        )
    for i in range(2):
        n = rng.randint(4, 6)
        start = rng.randrange(n)
        if i == 0:
            simplices = [[str(j), str((j + 1) % n)] for j in range(n)]
            A = [[str(start), str((start + 1) % n)]]
            dim, cumulative = 1, True
        else:
            simplices = [["c", str(j), str((j + 1) % n)] for j in range(n)]
            A = [["c", str(start), str((start + 1) % n)]]
            dim, cumulative = rng.randint(0, 1), True
        vmap = _cycle_rotation(n, 1)
        vmap.update({"c": "c"} if i else {})
        seed_faces = sorted(
            {tuple(sorted(f)) for s in A for r in range(1, len(s) + 1)
             for f in itertools.combinations(s, r)}
        )
        add(
            f"betti #{i}",
            {"mode": "betti", "backend": "chain",
             "backend_data": {"simplices": simplices},
             "operators": [{"vertex_map": vmap}], "partition": [1], "A": A,
             "dimension": dim, "cumulative": cumulative, "box": 8},
            0,
            lambda s, f=seed_faces, v=vmap, dim=dim: ref.orbit_betti(
                f, [v], [1], s, dim, True
            ),
        )
    for i in range(2):
        n = rng.randint(5, 7)
        edges = [[str(j), str((j + 1) % n)] for j in range(n)]
        seed_edges = rng.sample(edges, rng.randint(1, 2))
        steps = [1] if i == 0 else [1, 2]
        vmaps = [_cycle_rotation(n, k) for k in steps]
        mode = "cumulative" if i == 0 else "dimension"

        def truth(s, seed_edges=seed_edges, vmaps=vmaps, cum=(i == 0)):
            out = []
            for r in ref.words([len(vmaps)], s, cum):
                for u, v in seed_edges:
                    for vm, times in zip(vmaps, r):
                        for _ in range(times):
                            u, v = vm[u], vm[v]
                    out.append((u, v))
            return ref.forest_rank(out)

        add(
            f"graphic {mode} #{i}",
            {"mode": mode, "backend": "graphic", "backend_data": {"edges": edges},
             "operators": [{"vertex_map": vm} for vm in vmaps],
             "partition": [len(vmaps)], "A": seed_edges, "box": n + 2},
            0, truth,
        )
    add(
        "counterexample cumulative",
        {"mode": "cumulative", "backend": "graphic", "backend_data": "counterexample",
         "box": 6},
        0, lambda s: ref.gadget_cumulative_rank(s[0]),
    )
    for i in range(2):
        letters = "abcde"[: rng.randint(3, 5)]
        r = rng.randint(1, len(letters) - 1)
        top = 16
        circuits = {
            (t,): [frozenset(f"{g}{t}" for g in c)
                   for c in itertools.combinations(letters, r + 1)]
            for t in range(top)
        }
        seeds = sorted(rng.sample(letters, rng.randint(1, len(letters))))
        pmap = {f"{g}{t}": f"{g}{t + 1}" for g in letters for t in range(top)}

        def truth(s, seeds=seeds, circuits=circuits):
            return ref.circuit_rank([((s[0],), f"{g}{s[0]}") for g in seeds], circuits)

        add(
            f"circuit #{i}",
            {"mode": "dimension", "backend": "circuit",
             "backend_data": {"circuits": [
                 {"degree": [t], "sets": [sorted(c) for c in circuits[(t,)]]}
                 for t in range(top)
             ]},
             "operators": [{"map": pmap}], "partition": [1],
             "A": [[[0], f"{g}0"] for g in seeds], "box": 5},
            0, truth,
        )
    for i in range(2):
        relations = [[rng.randint(1, 3), rng.randint(1, 3)]]
        gens = [[0, 0], [rng.randint(0, 1), rng.randint(0, 1)]][: 1 + i]
        parts = [[2], [1, 1]][i]
        add(
            f"linear quotient #{i}",
            {"mode": "dimension", "backend": "linear",
             "backend_data": {"num_vars": 2, "relations": relations},
             "partition": parts, "A": gens, "box": 6},
            0,
            lambda s, g=gens, rel=relations, parts=parts: ref.word_image_count(
                [tuple(x) for x in g], parts, s, killed=[tuple(x) for x in rel]
            ),
        )
    add(
        "check supported",
        {"mode": "check", "backend": "trivial", "backend_data": {"dimension": 1},
         "operators": [[rng.randint(1, 3)], [rng.randint(1, 3)]], "partition": [2],
         "A": [[0]]},
        0, status="supported",
    )
    add(
        "check forced triangular",
        {"mode": "check", "backend": "graphic", "backend_data": "counterexample",
         "part_flags": ["triangular"]},
        3,
    )
    add(
        "counterexample dimension",
        {"mode": "dimension", "backend": "graphic", "backend_data": "counterexample",
         "box": 6},
        3,
    )
    add(
        "counterexample declared triangular",
        {"mode": "dimension", "backend": "graphic", "backend_data": "counterexample",
         "part_flags": ["triangular"], "box": 6},
        3,
    )
    add(
        "truncated sumset",
        {"mode": "sumset",
         "backend_data": {"summands": [sorted(rng.sample(range(5), 2))]},
         "A": [[0]], "box": 1},
        2,
    )
    far = rng.randint(3, 5)
    add(
        "truncated ideal",
        {"mode": "ideal-count", "backend": "ideal-count",
         "backend_data": {"complement_antichain": [[far, 8 - far]]},
         "partition": [2], "box": 4},
        2,
    )
    add("unknown mode", {"mode": rng.choice(["volume", "rank", "growth"])}, 1)
    add("linear without num_vars",
        {"mode": "dimension", "backend": "linear", "backend_data": {}}, 1)
    add(
        "comparable antichain",
        {"mode": "ideal-count", "backend": "ideal-count",
         "backend_data": {"complement_antichain": [[1, 1], [1 + rng.randint(0, 2), 2]]},
         "partition": [2], "box": 4},
        1,
    )
    add("missing config file", None, 1)
    return out


def cli_mix(seed: int, workdir: str) -> List[Problem]:
    from rankgrowth import cli

    rng = random.Random(seed)
    configs = [c for _ in range(CLI_COPIES) for c in _cli_configs(rng)]
    problems = []
    for i, (name, config, code, status, truth, extra) in enumerate(configs):
        path = os.path.join(workdir, f"{i:03d}.json")
        if config is not None:
            with open(path, "w", encoding="utf-8") as fh:
                json.dump(config, fh)

        def solve(path=path):
            got_code, doc = cli.run(path)
            # serialised as `rankgrowth run` writes it
            return got_code, doc, json.dumps(doc, sort_keys=True, indent=2) + "\n"

        problems.append(Problem(name, solve, _cli_judge(code, status, truth, extra)))
    rng.shuffle(problems)
    return problems


def _cli_judge(code, status, truth, extra):
    memo = {}

    def judge(outcome):
        got_code, doc, _ = outcome
        if (got_code, doc.get("status")) != (code, status):
            return None, (
                f"exit {got_code} status {doc.get('status')!r}, "
                f"expected exit {code} status {status!r}"
            )
        if status not in (CERTIFIED, TRUNCATED):
            return None, None
        if status == TRUNCATED:
            return False, None
        poly = (doc.get("betti") or doc)["polynomial"]
        coeffs = {
            tuple(t["exponents"]): Fraction(t["coefficient"]) for t in poly["terms"]
        }
        error = _poly_mismatch(coeffs, tuple(poly["threshold"]), truth, memo)
        if error is None and extra is not None:
            error = extra(doc)
        return True, error

    return judge


WORKLOADS = {
    "count-sweep": count_sweep,
    "dense-linear": dense_linear,
    "cli-mix": cli_mix,
}
