"""Batch front door: JSON problem configs in, certified results out.

Exit codes partition the outcomes: 0 for a certified result, 2 for a
box-truncated or inconclusive result (the document is still written),
1 for an input or usage error, 3 for a hypothesis failure (a concrete
witness against a declared triangular/quasi-triangular part or
commutation), 4 for an internal error: a ``ContractError`` or an
exception that is no package error is a bug in rankgrowth, not in the
config.  Every config field is read through ``_get``, so a value of the
wrong JSON type is an input error naming its key.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import sys as _sys
import time
import traceback
from fractions import Fraction
from functools import partial
from typing import Callable, Dict, List, Optional, Tuple

from . import __version__
from .engine import (
    CERTIFIED,
    GrowthPolynomial,
    PipelineResult,
    StabilizationConfig,
    analyze_cumulative,
    analyze_graded,
    dominant_terms,
)
from .errors import ContractError, HypothesisError, InputError, RankGrowthError
from .operators import OperatorSystem, Partition, check_system, is_int
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
EXIT_INTERNAL_ERROR = 4


def _digest(config) -> str:
    try:
        payload = json.dumps(config, sort_keys=True, separators=(",", ":"))
    except (TypeError, ValueError) as exc:
        raise InputError(f"config is not JSON: {exc}") from None
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
            "evidence": result.evidence,
            "box": list(result.table.box),
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

_KINDS = {
    int: "an integer",
    bool: "a boolean",
    str: "a string",
    list: "a list",
    dict: "an object",
}
_DATA = "backend_data."


def _check(value, kind: type, name: str):
    """``value`` when it has JSON type ``kind`` (a bool is no integer);
    else an ``InputError`` naming it."""
    if not (is_int(value) if kind is int else isinstance(value, kind)):
        raise InputError(f"{name} must be {_KINDS[kind]}, got {value!r}")
    return value


def _get(obj: dict, key: str, kind: type, default=None, where: str = ""):
    """Field ``key`` of ``obj`` checked by ``_check``, or ``default`` when it
    is absent or null; ``where`` is the key's path in messages."""
    value = obj.get(key)
    return default if value is None else _check(value, kind, where + key)


def _get_items(obj: dict, key: str, kind: type, where: str = "") -> list:
    """A list field whose every item has JSON type ``kind``; ``[]`` when absent."""
    name = where + key
    return [
        _check(x, kind, f"{name}[{i}]")
        for i, x in enumerate(_get(obj, key, list, [], where))
    ]


def _data(config: dict) -> dict:
    return _get(config, "backend_data", dict, {})


def _seeds(config: dict, parse: Callable) -> Tuple[list, list]:
    """The ``A`` and ``B`` lists with ``parse`` applied to every item."""
    return tuple([parse(x) for x in _get(config, key, list, [])] for key in "AB")


def _pair(x, what: str) -> list:
    if not isinstance(x, list) or len(x) != 2:
        raise InputError(f"{what} must be a pair, got {x!r}")
    return x


def _edge(e) -> tuple:
    """``[u, v]`` or ``[u, v, label]`` as strings, the endpoints in order."""
    if not isinstance(e, list) or len(e) not in (2, 3):
        raise InputError(f"not an edge: {e!r}")
    u, v, *label = map(str, e)
    return (min(u, v), max(u, v), *label)


def _gadget_edge(x) -> tuple:
    kind, index = _pair(x, "a gadget edge")
    return str(kind), _check(index, int, "gadget edge index")


def _operator_maps(config: dict, backend: str, field: str) -> List[Dict[str, str]]:
    """Each operator's ``field`` object (a vertex or payload map) as strings."""
    ops = _get_items(config, "operators", dict)
    if not ops:
        raise InputError(f"{backend} backend requires 'operators'")
    maps = []
    for i, op in enumerate(ops):
        m = _get(op, field, dict, where=f"operators[{i}].")
        if m is None:
            raise InputError(f"{backend} operators must carry a {field!r}")
        maps.append({str(k): str(v) for k, v in m.items()})
    return maps


def _build_trivial(config: dict):
    dim = _get(_data(config), "dimension", int, 1, _DATA)
    ops = _get(config, "operators", list)
    if not ops:
        raise InputError("trivial backend requires translation vectors in 'operators'")
    vecs = [as_vector(v, dim) for v in ops]
    partition = Partition(_get(config, "partition", list) or [len(vecs)])
    sys = OperatorSystem(
        [translation(v) for v in vecs],
        partition,
        TrivialBackend(dim),
        _get(config, "part_flags", list),
        translations=[vecs[partition.part_slice(i)] for i in range(partition.k)],
    )
    return (sys, *_seeds(config, partial(as_vector, dimension=dim)))


def _build_sumset(config: dict):
    summands = _get_items(_data(config), "summands", list, _DATA)
    if not summands:
        raise InputError("sumset mode requires 'backend_data.summands'")
    sys = make_sumset_system(*summands)
    A, B = _seeds(config, partial(as_vector, dimension=sys.backend.dimension))
    if not A:
        raise InputError("sumset mode requires a nonempty seed set A")
    return sys, A, B


def _build_ideal(config: dict):
    partition = _get(config, "partition", list)
    if not partition:
        raise InputError("ideal-count requires 'partition'")
    antichain = _get(_data(config), "complement_antichain", list, [], _DATA)
    sys, origin = make_ideal_system(antichain, partition)
    A, B = _seeds(config, partial(as_vector, dimension=sys.m))
    return sys, A or origin, B


def _build_linear(config: dict):
    data = _data(config)
    num_vars = _get(data, "num_vars", int, 0, _DATA)
    if num_vars < 1:
        raise InputError("linear backend requires 'backend_data.num_vars'")
    partition = _get(config, "partition", list) or [num_vars]
    gens = _get(config, "A", list) or [[0] * num_vars]
    relations = _get(data, "relations", list, [], _DATA)
    # base monomials are module elements too: inside the ideal they are zero
    sys, elems = make_monomial_module_system(
        num_vars, partition, gens + _get(config, "B", list, []), relations
    )
    return sys, elems[: len(gens)], elems[len(gens):]


def _build_graphic(config: dict):
    if config.get("backend_data") == "counterexample":
        sys, seed = make_counterexample_graph(_get(config, "depth", int, 64))
        flags = _get(config, "part_flags", list)
        if flags:
            sys = sys.with_flags(flags)
        A, B = _seeds(config, _gadget_edge)
        return sys, A or seed, B
    vmaps = _operator_maps(config, "graphic", "vertex_map")
    partition = _get(config, "partition", list) or [len(vmaps)]
    sys = make_graphic_system(vmaps, partition, _get(config, "part_flags", list))
    return (sys, *_seeds(config, _edge))


def _build_chain(config: dict):
    simplices = [
        tuple(map(str, s)) for s in _get_items(_data(config), "simplices", list, _DATA)
    ]
    if not simplices:
        raise InputError("chain backend requires 'backend_data.simplices'")
    complex_ = SimplicialComplex(simplices)
    vmaps = _operator_maps(config, "chain", "vertex_map")
    partition = _get(config, "partition", list) or [len(vmaps)]
    A = [tuple(map(str, s)) for s in _get_items(config, "A", list)]
    return complex_, vmaps, partition, A


def _build_circuit(config: dict):
    partition = _get(config, "partition", list)
    if not partition:
        raise InputError("circuit backend requires 'partition'")
    part = Partition(partition)
    circuits = {}
    for i, entry in enumerate(_get_items(_data(config), "circuits", dict, _DATA)):
        where = f"{_DATA}circuits[{i}]."
        deg = as_vector(_get(entry, "degree", list, [], where), part.k)
        sets = _get_items(entry, "sets", list, where)
        circuits[deg] = [frozenset(map(str, c)) for c in sets]

    def elem(x):
        deg, payload = _pair(x, "a circuit element")
        return (as_vector(deg, part.k), str(payload))

    A, B = _seeds(config, elem)

    def make_op(pm, part_index):
        def op(e):
            deg, payload = e
            shifted = tuple(
                d + (1 if i == part_index else 0) for i, d in enumerate(deg)
            )
            return (shifted, pm.get(payload, payload))

        return op

    payload_maps = _operator_maps(config, "circuit", "map")
    maps = [make_op(pm, part.part_of(idx)) for idx, pm in enumerate(payload_maps)]
    sys = make_circuit_backend(
        partition, circuits, maps, A + B, _get(config, "part_flags", list)
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
    groups = _get_items(config, "context_operators", list)
    if not groups:
        raise InputError("context mode requires 'context_operators'")
    if not isinstance(sys.backend, TrivialBackend):
        raise InputError("context mode is configured for the trivial backend only")
    if len(groups) != sys.k:
        raise InputError("context operators must have one group per part")
    flat, sizes = [], []
    for i, group in enumerate(groups):
        unused = list(zip(sys.translations[i], sys.part_maps(i)))
        for v in (as_vector(x, sys.backend.dimension) for x in group):
            j = next((j for j, (u, _) in enumerate(unused) if u == v), None)
            flat.append(translation(v) if j is None else unused.pop(j)[1])
        if unused:
            raise InputError(
                f"part {i + 1}: context operators must contain the primary ones"
            )
        sizes.append(len(group))
    return OperatorSystem(flat, Partition(sizes), sys.backend)


# ---------------------------------------------------------------------------
# execution
# ---------------------------------------------------------------------------

def _stab_config(config: dict, m: int) -> StabilizationConfig:
    """The config's box and window; an integer box is broadcast to all m
    coordinates (the cumulative pipeline expands a length-m box per part)."""
    box = config.get("box")
    return StabilizationConfig(
        box=(box,) * m if is_int(box) else box,
        window=_get(config, "window", int, 2),
    )


def _solve(config, doc: dict) -> int:
    """Build and solve the problem ``config`` describes into ``doc``;
    returns the exit code."""
    doc["input_digest"] = _digest(config)
    _check(config, dict, "a config")
    doc["mode"] = mode = config.get("mode")
    if mode not in MODES:
        raise InputError(f"unknown mode {mode!r}; expected one of {MODES}")

    if mode == "betti":
        complex_, vmaps, partition, A = _build_chain(config)
        n = _get(config, "dimension", int, 0)
        closure = SimplicialComplex(A).simplices if A else set()
        br = betti_polynomials(
            complex_,
            vmaps,
            partition,
            sorted(closure),
            n,
            _stab_config(config, len(vmaps)),
            cumulative=_get(config, "cumulative", bool, False),
        )
        doc.update(
            {
                "status": br.status,
                "betti": {
                    "dimension": n,
                    "polynomial": _poly_doc(br.betti),
                    "chain_rank": _result_doc(br.free),
                    "boundary_rank": _result_doc(br.boundary),
                    "boundary_rank_above": _result_doc(br.boundary_up),
                },
            }
        )
        return EXIT_CERTIFIED if br.status == CERTIFIED else EXIT_TRUNCATED

    if mode == "sumset":
        sys, A, B = _build_sumset(config)
    else:
        backend = _get(config, "backend", str, "trivial" if mode == "context" else None)
        if backend not in _BUILDERS:
            raise InputError(f"unknown backend {backend!r}")
        sys, A, B = _BUILDERS[backend](config)
    cfg = _stab_config(config, sys.m)

    if mode == "check":
        depth = _get(config, "depth", int, 3)
        pair_count = _get(config, "seed_sample", int, 40)
        report = check_system(sys, A + B, depth, pair_count)
        ok = report.supports_declaration(sys)
        doc.update(
            {
                "status": "supported" if ok else "hypothesis-failure",
                "check": {
                    "commutation_ok": report.commutation_ok,
                    "commutation_failures": report.commutation_failures[:5],
                    "parts_triangular": list(report.parts_triangular),
                    "parts_quasi_triangular": list(report.parts_quasi_triangular),
                    "triangular_failures": report.triangular_failures[:5],
                    "quasi_failures": report.quasi_failures[:5],
                    "declared_flags": list(sys.part_flags),
                },
            }
        )
        return EXIT_CERTIFIED if ok else EXIT_HYPOTHESIS

    cumulative = _get(config, "cumulative", bool, False)
    if mode == "context":
        if cumulative:
            raise InputError("context mode has no cumulative pipeline")
        result = analyze_graded(sys, A, B, cfg, context_sys=_build_context(config, sys))
    elif mode == "cumulative" or cumulative:
        result = analyze_cumulative(sys, A, B, cfg)
    else:
        result = analyze_graded(sys, A, B, cfg)
    doc.update(_result_doc(result, want_rank=mode == "phi-rank"))
    return EXIT_CERTIFIED if result.status == CERTIFIED else EXIT_TRUNCATED


def _document(solve: Callable[[dict], int]) -> Tuple[int, dict]:
    """Run ``solve`` on a fresh result document; map what it raises to an
    exit code and an error.  Returns (exit code, result document)."""
    started = time.perf_counter()
    doc = {
        "tool": "rankgrowth",
        "version": __version__,
        "input_digest": None,
        "mode": None,
        "status": None,
        "warnings": [],
    }
    try:
        code = solve(doc)
    except HypothesisError as exc:
        code = EXIT_HYPOTHESIS
        doc["status"] = "hypothesis-failure"
        doc["error"] = str(exc)
        if exc.witness is not None:
            doc["witness"] = repr(exc.witness)
    except Exception as exc:  # noqa: BLE001 - classified below
        # no config can break an internal contract, so a ContractError is a
        # bug in rankgrowth, as is any exception that is no package error
        if isinstance(exc, RankGrowthError) and not isinstance(exc, ContractError):
            code, status = EXIT_INPUT_ERROR, "input-error"
        else:
            traceback.print_exc(file=_sys.stderr)
            code, status = EXIT_INTERNAL_ERROR, "internal-error"
        doc.update(status=status, error=f"{type(exc).__name__}: {exc}")
    doc["timing_ms"] = round((time.perf_counter() - started) * 1000.0, 3)
    return code, doc


def execute(config: dict) -> Tuple[int, dict]:
    """Run one problem config; returns (exit code, result document)."""
    return _document(partial(_solve, config))


def _unreadable(exc: Exception, doc: dict) -> int:
    """The solve of a config file that could not be read or parsed."""
    raise InputError(f"cannot read config: {exc}")


def run(config_path: str, overrides: Optional[dict] = None) -> Tuple[int, dict]:
    """Load a JSON config, apply flag overrides, execute."""
    try:
        with open(config_path, "r", encoding="utf-8") as fh:
            config = json.load(fh)
    except (OSError, json.JSONDecodeError) as exc:
        return _document(partial(_unreadable, exc))
    if overrides and isinstance(config, dict):
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

    overrides = {k: getattr(args, k) for k in ("box", "window", "mode", "seed_sample")}
    code, doc = run(args.config, overrides)
    _emit(doc, args.out)
    if doc.get("error"):
        print(f"error: {doc['error']}", file=_sys.stderr)
    return code


if __name__ == "__main__":
    raise SystemExit(main())
