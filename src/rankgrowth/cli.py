"""Batch front door: JSON problem configs in, certified results out.

Exit codes partition the outcomes: 0 for a certified result, 2 for a
box-truncated or inconclusive result (the document is still written),
1 for an input or usage error, 3 for a hypothesis failure (a concrete
witness against a declared triangular/quasi-triangular part or
commutation).
"""

from __future__ import annotations

import argparse
import hashlib
import json
import sys as _sys
import time
from dataclasses import replace
from fractions import Fraction
from typing import Dict, List, Optional, Tuple

from . import __version__
from .engine import (
    BOX_TRUNCATED,
    CERTIFIED,
    GrowthPolynomial,
    PipelineResult,
    StabilizationConfig,
    analyze_cumulative,
    analyze_graded,
    dominant_terms,
    is_int,
)
from .errors import HypothesisError, InputError, RankGrowthError
from .operators import OperatorSystem, Partition, check_system
from .backends import (
    SimplicialComplex,
    TrivialBackend,
    as_vector,
    betti_polynomials,
    make_circuit_backend,
    make_counterexample_graph,
    make_graphic_system,
    make_ideal_system,
    make_monomial_module_system,
    make_sumset_system,
    translation,
)

MODES = (
    "dimension",
    "cumulative",
    "context",
    "phi-rank",
    "betti",
    "ideal-count",
    "sumset",
    "check",
)

EXIT_CERTIFIED = 0
EXIT_INPUT_ERROR = 1
EXIT_TRUNCATED = 2
EXIT_HYPOTHESIS = 3


def _digest(config: dict) -> str:
    payload = json.dumps(config, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(payload.encode("utf-8")).hexdigest()


def _frac(x: Fraction) -> str:
    return str(Fraction(x))


def _poly_doc(P: GrowthPolynomial) -> dict:
    return {
        "variables": P.k,
        "terms": [
            {"exponents": list(e), "coefficient": _frac(c)}
            for e, c in P.terms_sorted()
        ],
        "pretty": P.pretty(),
        "threshold": list(P.threshold),
        "degree_bound": list(P.degree_bound),
    }


def _verify_doc(result: PipelineResult) -> dict:
    rep = result.verification
    return {
        "window": [list(rep.window[0]), list(rep.window[1])],
        "points": [
            {"degree": list(s), "rank": r, "value": _frac(v)}
            for s, r, v in rep.points
        ],
        "mismatches": [
            {"degree": list(s), "rank": r, "value": _frac(v)}
            for s, r, v in rep.mismatches
        ],
    }


def _result_doc(result: PipelineResult, want_rank: bool = False) -> dict:
    doc = {
        "status": result.status,
        "polynomial": _poly_doc(result.polynomial),
        "threshold": list(result.polynomial.threshold),
        "dominant_terms": [
            {"exponents": list(e), "coefficient": _frac(c)}
            for e, c in sorted(dominant_terms(result.polynomial))
        ],
        "staircase": {
            "bound": list(result.certificate.m_bar),
            "status": result.certificate.status,
        },
        "verification": _verify_doc(result),
        "warnings": list(result.warnings),
    }
    if want_rank:
        doc["phi_rank"] = _frac(result.phi_rank_value)
    return doc


# ---------------------------------------------------------------------------
# config -> system
# ---------------------------------------------------------------------------

def _vectors(items, dimension=None) -> List[Tuple[int, ...]]:
    return [as_vector(x, dimension) for x in items]


def _build_trivial(config: dict):
    data = config.get("backend_data") or {}
    dim = int(data.get("dimension", 1))
    ops = config.get("operators")
    if not ops:
        raise InputError("trivial backend requires translation vectors in 'operators'")
    vecs = _vectors(ops, dim)
    partition = Partition(config.get("partition") or [len(vecs)])
    sys = OperatorSystem(
        [translation(v) for v in vecs],
        partition,
        TrivialBackend(dim),
        config.get("part_flags"),
    )
    A = _vectors(config.get("A", []), dim)
    B = _vectors(config.get("B", []), dim)
    return sys, A, B


def _build_sumset(config: dict):
    data = config.get("backend_data") or {}
    summands = data.get("summands") or config.get("operators")
    if not summands:
        raise InputError("sumset mode requires 'backend_data.summands'")
    sys = make_sumset_system(*summands)
    dim = sys.backend.dimension
    A = _vectors(config.get("A", []), dim)
    B = _vectors(config.get("B", []), dim)
    if not A:
        raise InputError("sumset mode requires a nonempty seed set A")
    return sys, A, B


def _build_ideal(config: dict):
    data = config.get("backend_data") or {}
    partition = config.get("partition")
    if not partition:
        raise InputError("ideal-count requires 'partition'")
    antichain = data.get("complement_antichain", [])
    sys, origin = make_ideal_system(antichain, partition)
    A = _vectors(config.get("A", []), sys.m) or origin
    B = _vectors(config.get("B", []), sys.m)
    return sys, A, B


def _build_linear(config: dict):
    data = config.get("backend_data") or {}
    num_vars = int(data.get("num_vars", 0))
    if num_vars < 1:
        raise InputError("linear backend requires 'backend_data.num_vars'")
    partition = config.get("partition") or [num_vars]
    gens = config.get("A") or [[0] * num_vars]
    relations = data.get("relations", [])
    # base monomials are module elements too: inside the ideal they are zero
    sys, elems = make_monomial_module_system(
        num_vars, partition, list(gens) + list(config.get("B", [])), relations
    )
    seeds, B = elems[: len(gens)], elems[len(gens):]
    return sys, seeds, B


def _edge(e) -> tuple:
    e = tuple(str(x) for x in e)
    if len(e) not in (2, 3):
        raise InputError(f"not an edge: {e!r}")
    return e


def _build_graphic(config: dict):
    data = config.get("backend_data")
    if data == "counterexample":
        depth = int(config.get("depth", 64))
        sys, seed = make_counterexample_graph(depth)
        if config.get("part_flags"):
            sys = sys.with_flags(config["part_flags"])
        A = [tuple([str(k), int(i)]) for k, i in config.get("A", [])] or seed
        B = [tuple([str(k), int(i)]) for k, i in config.get("B", [])]
        return sys, A, B
    data = data or {}
    edges = [_edge(e) for e in data.get("edges", [])]
    ops = config.get("operators") or []
    vmaps = []
    for op in ops:
        if "vertex_map" not in op:
            raise InputError("graphic operators must carry a 'vertex_map'")
        vmaps.append({str(k): str(v) for k, v in op["vertex_map"].items()})
    partition = config.get("partition") or [len(vmaps)]
    sys, _ = make_graphic_system(edges, vmaps, partition, config.get("part_flags"))

    def canon(e):
        e = _edge(e)
        u, v = e[0], e[1]
        lo, hi = (u, v) if not v < u else (v, u)
        return (lo, hi) + tuple(e[2:])

    A = [canon(e) for e in config.get("A", [])]
    B = [canon(e) for e in config.get("B", [])]
    return sys, A, B


def _build_chain(config: dict):
    data = config.get("backend_data") or {}
    simplices = [tuple(str(v) for v in s) for s in data.get("simplices", [])]
    if not simplices:
        raise InputError("chain backend requires 'backend_data.simplices'")
    complex_ = SimplicialComplex(simplices)
    ops = config.get("operators") or []
    vmaps = []
    for op in ops:
        if "vertex_map" not in op:
            raise InputError("chain operators must carry a 'vertex_map'")
        vmaps.append({str(k): str(v) for k, v in op["vertex_map"].items()})
    partition = config.get("partition") or [len(vmaps)]
    A = [tuple(str(v) for v in s) for s in config.get("A", [])]
    return complex_, vmaps, partition, A


def _build_circuit(config: dict):
    data = config.get("backend_data") or {}
    circuits = {}
    for entry in data.get("circuits", []):
        deg = tuple(int(x) for x in entry["degree"])
        circuits[deg] = [frozenset(str(p) for p in c) for c in entry.get("sets", [])]
    partition = config.get("partition")
    if not partition:
        raise InputError("circuit backend requires 'partition'")
    part = Partition(partition)
    payload_maps = []
    for op in config.get("operators") or []:
        if "map" not in op:
            raise InputError("circuit operators must carry a payload 'map'")
        payload_maps.append({str(k): str(v) for k, v in op["map"].items()})

    def elem(x):
        deg, payload = x
        return (tuple(int(d) for d in deg), str(payload))

    A = [elem(x) for x in config.get("A", [])]
    B = [elem(x) for x in config.get("B", [])]

    def make_op(pm, part_index):
        def op(e):
            deg, payload = e
            shifted = tuple(
                d + (1 if i == part_index else 0) for i, d in enumerate(deg)
            )
            return (shifted, pm.get(payload, payload))

        return op

    maps = [make_op(pm, part.part_of(idx)) for idx, pm in enumerate(payload_maps)]
    sys = make_circuit_backend(
        partition, circuits, maps, A + B, config.get("part_flags")
    )
    return sys, A, B


_BUILDERS = {
    "trivial": _build_trivial,
    "ideal-count": _build_ideal,
    "linear": _build_linear,
    "graphic": _build_graphic,
    "circuit": _build_circuit,
}


def _build_context(config: dict, sys: OperatorSystem):
    """Context system from vector groups; primary map objects are re-used.

    The subtuple requirement is object identity, so each part's primary
    translation vectors must literally appear in the context group.
    """
    groups = config.get("context_operators")
    if groups is None:
        raise InputError("context mode requires 'context_operators'")
    if not isinstance(sys.backend, TrivialBackend):
        raise InputError("context mode is configured for the trivial backend only")
    dim = sys.backend.dimension
    if len(groups) != sys.k:
        raise InputError("context operators must have one group per part")
    primary_vecs = _vectors(config.get("operators", []), dim)
    flat, sizes = [], []
    for i, group in enumerate(groups):
        part_maps = list(sys.part_maps(i))
        part_vecs = primary_vecs[sys.partition.part_slice(i)]
        used = [False] * len(part_maps)
        built = []
        for v in _vectors(group, dim):
            reused = None
            for j, bv in enumerate(part_vecs):
                if not used[j] and bv == v:
                    reused = part_maps[j]
                    used[j] = True
                    break
            built.append(reused if reused is not None else translation(v))
        if not all(used):
            raise InputError(
                f"part {i + 1}: context operators must contain the primary ones"
            )
        flat.extend(built)
        sizes.append(len(built))
    return OperatorSystem(flat, Partition(sizes), sys.backend)


# ---------------------------------------------------------------------------
# execution
# ---------------------------------------------------------------------------

def _stab_config(config: dict) -> Tuple[StabilizationConfig, Optional[int]]:
    """The validated config, and the box when it is one integer, which is
    broadcast to every coordinate once m is known."""
    box = config.get("box")
    scalar = box if is_int(box) else None
    cfg = StabilizationConfig(
        box=(box,) if scalar is not None else box,
        window=config.get("window", 2),
    )
    return cfg, scalar


def execute(config: dict) -> Tuple[int, dict]:
    """Run one problem config; returns (exit code, result document)."""
    started = time.perf_counter()
    doc = {
        "tool": "rankgrowth",
        "version": __version__,
        "input_digest": _digest(config),
        "mode": config.get("mode"),
        "status": None,
        "warnings": [],
    }

    def finish(code: int) -> Tuple[int, dict]:
        doc["timing_ms"] = round((time.perf_counter() - started) * 1000.0, 3)
        return code, doc

    try:
        mode = config.get("mode")
        if mode not in MODES:
            raise InputError(f"unknown mode {mode!r}; expected one of {MODES}")
        cfg, box_scalar = _stab_config(config)

        if mode == "betti":
            complex_, vmaps, partition, A = _build_chain(config)
            n = int(config.get("dimension", 0))
            if box_scalar is not None:
                cfg = replace(cfg, box=(box_scalar,) * len(vmaps))
            closure = SimplicialComplex(A).simplices if A else set()
            br = betti_polynomials(
                complex_,
                vmaps,
                partition,
                sorted(closure),
                n,
                cfg,
                cumulative=bool(config.get("cumulative", False)),
            )
            statuses = [br.free.status, br.boundary.status, br.boundary_up.status]
            status = CERTIFIED if all(s == CERTIFIED for s in statuses) else BOX_TRUNCATED
            doc.update(
                {
                    "status": status,
                    "betti": {
                        "dimension": n,
                        "polynomial": _poly_doc(br.betti),
                        "chain_rank": _result_doc(br.free),
                        "boundary_rank": _result_doc(br.boundary),
                        "boundary_rank_above": _result_doc(br.boundary_up),
                    },
                }
            )
            return finish(EXIT_CERTIFIED if status == CERTIFIED else EXIT_TRUNCATED)

        backend_tag = config.get("backend") or (
            "trivial" if mode in ("sumset", "context") else None
        )
        if mode == "sumset":
            sys, A, B = _build_sumset(config)
        else:
            if backend_tag not in _BUILDERS:
                raise InputError(f"unknown backend {backend_tag!r}")
            sys, A, B = _BUILDERS[backend_tag](config)

        if box_scalar is not None:
            # length-m boxes are expanded per part by the cumulative pipeline
            cfg = replace(cfg, box=(box_scalar,) * sys.m)

        if mode == "check":
            depth = int(config.get("depth", 3))
            pair_count = int(config.get("seed_sample", 40))
            report = check_system(sys, A + B, depth, pair_count)
            ok = report.supports_declaration(sys)
            doc.update(
                {
                    "status": "supported" if ok else "hypothesis-failure",
                    "check": {
                        "commutation_ok": report.commutation_ok,
                        "commutation_failures": report.commutation_failures[:5],
                        "parts_triangular": list(report.parts_triangular),
                        "parts_quasi_triangular": list(
                            report.parts_quasi_triangular
                        ),
                        "triangular_failures": report.triangular_failures[:5],
                        "quasi_failures": report.quasi_failures[:5],
                        "declared_flags": list(sys.part_flags),
                    },
                }
            )
            return finish(EXIT_CERTIFIED if ok else EXIT_HYPOTHESIS)

        want_rank = mode == "phi-rank"
        cumulative = mode == "cumulative" or (
            bool(config.get("cumulative", False))
            and mode in ("phi-rank", "ideal-count")
        )
        if mode == "context":
            context_sys = _build_context(config, sys)
            result = analyze_graded(sys, A, B, cfg, context_sys=context_sys)
        elif cumulative:
            result = analyze_cumulative(sys, A, B, cfg)
        else:
            result = analyze_graded(sys, A, B, cfg)
        doc.update(_result_doc(result, want_rank))
        doc["status"] = result.status
        return finish(
            EXIT_CERTIFIED if result.status == CERTIFIED else EXIT_TRUNCATED
        )

    except HypothesisError as exc:
        doc["status"] = "hypothesis-failure"
        doc["error"] = str(exc)
        if exc.witness is not None:
            doc["witness"] = repr(exc.witness)
        return finish(EXIT_HYPOTHESIS)
    except (InputError, KeyError, TypeError, ValueError) as exc:
        doc["status"] = "input-error"
        doc["error"] = f"{type(exc).__name__}: {exc}"
        return finish(EXIT_INPUT_ERROR)
    except RankGrowthError as exc:
        doc["status"] = "input-error"
        doc["error"] = str(exc)
        return finish(EXIT_INPUT_ERROR)


def run(config_path: str, overrides: Optional[dict] = None) -> Tuple[int, dict]:
    """Load a JSON config, apply flag overrides, execute."""
    try:
        with open(config_path, "r", encoding="utf-8") as fh:
            config = json.load(fh)
    except (OSError, json.JSONDecodeError) as exc:
        return EXIT_INPUT_ERROR, {
            "tool": "rankgrowth",
            "version": __version__,
            "status": "input-error",
            "error": f"cannot read config: {exc}",
        }
    if overrides:
        config.update({k: v for k, v in overrides.items() if v is not None})
    return execute(config)


def _emit(doc: dict, out_path: Optional[str]) -> None:
    text = json.dumps(doc, sort_keys=True, indent=2) + "\n"
    if out_path:
        with open(out_path, "w", encoding="utf-8") as fh:
            fh.write(text)
    else:
        _sys.stdout.write(text)


class _Parser(argparse.ArgumentParser):
    """Argument parser that raises usage errors as InputError.

    argparse itself would exit with status 2, which the exit-code
    contract reserves for box-truncated results.
    """

    def error(self, message):
        raise InputError(message)


def _box_arg(text: str):
    try:
        parts = [int(x) for x in text.split(",")]
    except ValueError:
        raise argparse.ArgumentTypeError(
            f"expected integers separated by commas, got {text!r}"
        ) from None
    return parts[0] if len(parts) == 1 else parts


def main(argv: Optional[List[str]] = None) -> int:
    parser = _Parser(
        prog="rankgrowth",
        description="Growth polynomials of matroid ranks under commuting operators",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    runp = sub.add_parser("run", help="execute a JSON problem config")
    runp.add_argument("config", help="path to the JSON problem description")
    runp.add_argument(
        "--box", type=_box_arg, help="per-coordinate bound, e.g. 8 or 8,8,8"
    )
    runp.add_argument("--window", type=int, help="certification window width")
    runp.add_argument("--mode", choices=MODES, help="override the config mode")
    runp.add_argument("--out", help="write the result document to this path")
    runp.add_argument(
        "--seed-sample", type=int, dest="seed_sample",
        help="number of sampled subset pairs in check mode",
    )

    sub.add_parser("selfcheck", help="run the built-in golden corpus")

    try:
        args = parser.parse_args(argv)
    except InputError as exc:
        print(f"error: {exc}", file=_sys.stderr)
        return EXIT_INPUT_ERROR
    if args.command == "selfcheck":
        from .selfcheck import selfcheck

        report = selfcheck()
        return 0 if report.ok else 1

    overrides: Dict[str, object] = {}
    if args.box is not None:
        overrides["box"] = args.box
    if args.window is not None:
        overrides["window"] = args.window
    if args.mode:
        overrides["mode"] = args.mode
    if args.seed_sample is not None:
        overrides["seed_sample"] = args.seed_sample

    code, doc = run(args.config, overrides)
    _emit(doc, args.out)
    if doc.get("error"):
        print(f"error: {doc['error']}", file=_sys.stderr)
    return code


if __name__ == "__main__":
    raise SystemExit(main())
