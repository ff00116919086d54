"""Command-line interface over JSON instance documents.

An instance document supplies a group (named family or explicit generators),
a subgroup, and a voltage graph::

    {
      "group": {"kind": "generators", "degree": 3, "generators": ["(2 3)", "(1 2)"]},
      "subgroup": {"kind": "stabilizer", "point": 1},
      "graph": {
        "directed": false,
        "vertices": ["u", "v"],
        "edges": [
          {"from": "u", "to": "u", "voltage": "(2 3)"},
          {"from": "u", "to": "v", "voltage": "()"},
          {"from": "v", "to": "v", "voltage": "(1 2)"}
        ]
      },
      "options": {"seed": 0}
    }

Exit codes: 0 success, 1 failed verification, 2 parse errors, 3 structural
inconsistencies (voltages outside the group, directed input where it is not
supported, a lift too large to build densely, and the like), 4 numerical
failures.  All output is JSON or plain
text on stdout and is byte-identical across runs for a fixed file and seed.
"""

from __future__ import annotations

import argparse
import gc
import itertools
import json
import math
import sys
from dataclasses import dataclass, fields, replace
from functools import cached_property

import numpy as np

from .errors import ConsistencyError, NumericalError, ParseError
from .irreps import MAX_COMPUTED_ORDER, IrrepSet, builtin_irreps, compute_irreps
from .permgroup import (
    DEFAULT_ORDER_CAP,
    FiniteGroup,
    SubgroupContext,
    generate_group,
    parse_permutation,
    right_cosets,
    stabilizer,
    subgroup_closure,
)
from .voltage import VoltageGraph, build_base_matrix, build_lift, randomize_voltages

# ``spectral`` and ``characters`` are imported by the commands that run them,
# after their refusals, so no other call pays for loading them.

NAMED_FAMILIES = ("cyclic", "dihedral", "sym3")
# The largest ``group.degree`` of a generator document.  Every group of
# order up to MAX_COMPUTED_ORDER acts faithfully on that many points (on
# itself), so the cap refuses a presentation, never a group.
MAX_DEGREE = MAX_COMPUTED_ORDER


@dataclass(frozen=True)
class Options:
    seed: int = 0
    tol_residual: float = 1e-8
    tol_match: float = 1e-7
    order_cap: int = DEFAULT_ORDER_CAP


# Each option's type is the type of its default.
OPTION_TYPES = {f.name: type(f.default) for f in fields(Options)}
# The options a command-line flag ``--name-with-dashes`` can override.
FLAG_OPTIONS = ("seed", "tol_residual", "tol_match")


@dataclass(frozen=True, eq=False)
class InstanceDocument:
    group: FiniteGroup
    ctx: SubgroupContext
    graph: VoltageGraph
    options: Options
    # A named family's catalog, built with its group; None for a generated group.
    catalog: IrrepSet | None = None

    @cached_property
    def irrep_set(self) -> IrrepSet:
        """The group's irrep catalog; a generated group's is computed on first read."""
        if self.catalog is not None:
            return self.catalog
        return compute_irreps(self.group, seed=self.options.seed)


def _expect(mapping, key, kinds, where):
    if not isinstance(mapping, dict):
        raise ParseError(f"{where} must be a JSON object")
    if key not in mapping:
        raise ParseError(f"{where} is missing required key {key!r}")
    value = mapping[key]
    if not isinstance(value, kinds):
        raise ParseError(f"{where}.{key} has the wrong type")
    return value


def _load_options(raw, overrides: dict) -> Options:
    options = Options()
    if raw is not None:
        if not isinstance(raw, dict):
            raise ParseError("options must be a JSON object")
        unknown = sorted(set(raw) - set(OPTION_TYPES))
        if unknown:
            raise ParseError(
                f"unknown options keys {unknown}; allowed keys are {sorted(OPTION_TYPES)}"
            )
        updates = {}
        for key, cast in OPTION_TYPES.items():
            if key in raw:
                value = raw[key]
                if isinstance(value, bool) or not isinstance(value, (int, float)):
                    raise ParseError(f"options.{key} must be a number")
                if cast is int and not isinstance(value, int):
                    raise ParseError(f"options.{key} must be an integer, got {value!r}")
                updates[key] = cast(value)
        options = replace(options, **updates)
    cleaned = {k: v for k, v in overrides.items() if v is not None}
    if cleaned:
        options = replace(options, **cleaned)
    # NaN compares false and an infinite tolerance accepts everything, so
    # either would switch its check off rather than set it.
    for key in ("tol_match", "tol_residual"):
        value = getattr(options, key)
        if not 0.0 < value < math.inf:
            raise ParseError(f"{key} must be finite and greater than 0, got {value!r}")
    if options.seed < 0:
        raise ParseError(f"seed must be a non-negative integer, got {options.seed}")
    if options.order_cap < 1:
        raise ParseError(f"order_cap must be a positive integer, got {options.order_cap}")
    return options


def _load_group(spec, options: Options) -> tuple[FiniteGroup, IrrepSet | None]:
    kind = _expect(spec, "kind", str, "group")
    if kind == "generators":
        degree = _expect(spec, "degree", int, "group")
        if isinstance(degree, bool) or degree < 1:
            raise ParseError("group.degree must be a positive integer")
        # Every permutation is parsed into a list of ``degree`` points.
        if degree > MAX_DEGREE:
            raise ConsistencyError(
                f"group.degree {degree} is above MAX_DEGREE = {MAX_DEGREE}; "
                "a group whose irreps are computed acts faithfully on that many points"
            )
        raw_gens = _expect(spec, "generators", list, "group")
        gens = []
        for text in raw_gens:
            if not isinstance(text, str):
                raise ParseError("group.generators must be cycle strings")
            gens.append(parse_permutation(text, degree))
        # compute_irreps refuses groups above MAX_COMPUTED_ORDER, so close no
        # further.  With every generator parsed at one degree, the cap is the
        # only ConsistencyError generate_group can raise here.
        cap = min(options.order_cap, MAX_COMPUTED_ORDER)
        try:
            group = generate_group(gens, order_cap=cap, degree=degree)
        except ConsistencyError:
            if cap == options.order_cap:
                raise
            raise ConsistencyError(
                f"group closure exceeded MAX_COMPUTED_ORDER = {MAX_COMPUTED_ORDER}, "
                "the largest order whose irreps are computed"
            ) from None
        return group, None
    if kind == "named":
        family = _expect(spec, "family", str, "group")
        if family not in NAMED_FAMILIES:
            raise ParseError(f"group.family must be one of {NAMED_FAMILIES}")
        param = spec.get("param", 1)
        if isinstance(param, bool) or not isinstance(param, int) or param < 1:
            raise ParseError("group.param must be a positive integer")
        # Checked before any table is built, as closure does for generated groups.
        order = {"cyclic": param, "dihedral": 2 * param, "sym3": 6}[family]
        if order > options.order_cap:
            raise ConsistencyError(
                f"named group {family} {param} has order {order}, "
                f"above order_cap={options.order_cap}"
            )
        irrep_set = builtin_irreps(family, param)
        return irrep_set.group, irrep_set
    raise ParseError(f"unknown group.kind {kind!r}")


def _load_subgroup(spec, group: FiniteGroup) -> frozenset[int]:
    kind = _expect(spec, "kind", str, "subgroup")
    if kind == "trivial":
        return frozenset({group.identity})
    if kind == "full":
        return frozenset(range(group.order))
    if kind == "stabilizer":
        point = _expect(spec, "point", int, "subgroup")
        if isinstance(point, bool):
            raise ParseError("subgroup.point must be an integer")
        return stabilizer(group, point)
    if kind == "generators":
        raw_gens = _expect(spec, "generators", list, "subgroup")
        indices = []
        for text in raw_gens:
            if not isinstance(text, str):
                raise ParseError("subgroup.generators must be cycle strings")
            indices.append(group.index_of(parse_permutation(text, group.degree)))
        return subgroup_closure(group, indices)
    raise ParseError(f"unknown subgroup.kind {kind!r}")


def _load_graph(spec, group: FiniteGroup) -> VoltageGraph:
    directed = spec.get("directed", False) if isinstance(spec, dict) else False
    if not isinstance(directed, bool):
        raise ParseError("graph.directed must be a boolean")
    vertices = _expect(spec, "vertices", list, "graph")
    if not all(isinstance(v, str) for v in vertices):
        raise ParseError("graph.vertices must be strings")
    raw_edges = _expect(spec, "edges", list, "graph")
    edges = []
    for edge in raw_edges:
        tail = _expect(edge, "from", str, "edge")
        head = _expect(edge, "to", str, "edge")
        voltage_text = _expect(edge, "voltage", str, "edge")
        voltage = group.index_of(parse_permutation(voltage_text, group.degree))
        edges.append((tail, head, voltage))
    return VoltageGraph.build(group, vertices, edges, directed=directed)


def load_instance(path: str, overrides: dict | None = None) -> InstanceDocument:
    """Parse and cross-check an instance document from a JSON file."""
    try:
        with open(path, "r", encoding="utf-8") as handle:
            raw = json.load(handle)
    except OSError as exc:
        raise ParseError(f"cannot read {path}: {exc}") from None
    except json.JSONDecodeError as exc:
        raise ParseError(f"malformed JSON in {path}: {exc}") from None
    if not isinstance(raw, dict):
        raise ParseError("instance document must be a JSON object")
    options = _load_options(raw.get("options"), overrides or {})
    group, catalog = _load_group(_expect(raw, "group", dict, "instance"), options)
    members = _load_subgroup(_expect(raw, "subgroup", dict, "instance"), group)
    ctx = right_cosets(group, members)
    graph = _load_graph(_expect(raw, "graph", dict, "instance"), group)
    return InstanceDocument(group=group, ctx=ctx, graph=graph, options=options, catalog=catalog)


def _require_undirected(doc: InstanceDocument, command: str) -> None:
    if doc.graph.directed:
        raise ConsistencyError(
            f"command {command!r} needs an undirected base graph; "
            "only 'characters' accepts directed input"
        )


# The Python reprs that ``json`` writes differently.
_JSON_TEXT = {
    "nan": "NaN",
    "inf": "Infinity",
    "-inf": "-Infinity",
    "True": "true",
    "False": "false",
    "None": "null",
}


def _texts(values: list) -> map:
    """The JSON text of each number in a list of Python numbers."""
    reprs = list(map(repr, values))
    return map(_JSON_TEXT.get, reprs, reprs)


def _list_text(items, indent: str) -> str:
    """A JSON list of already written items, laid out as ``indent=2`` lays it out."""
    inner = "\n" + indent + "  "
    body = ("," + inner).join(items)
    return "[" + inner + body + "\n" + indent + "]" if body else "[]"


def _array_text(array: np.ndarray, indent: str) -> str:
    """The JSON text of an array's listing, each complex entry as ``[re, im]``."""
    if array.ndim > 1:
        inner = indent + "  "
        return _list_text((_array_text(row, inner) for row in array), indent)
    if array.dtype.kind != "c":
        return _list_text(_texts(array.tolist()), indent)
    pair = _list_text(("%s", "%s"), indent + "  ")
    pairs = zip(_texts(array.real.tolist()), _texts(array.imag.tolist()))
    return _list_text(map(pair.__mod__, pairs), indent)


def _text(value, indent: str) -> str:
    """The JSON text of an array, a complex number or a scalar."""
    if isinstance(value, np.ndarray):
        return _array_text(value, indent)
    if isinstance(value, str):
        return json.encoder.encode_basestring_ascii(value)
    if isinstance(value, complex):
        value = complex(value)
        return _list_text(_texts([value.real, value.imag]), indent)
    if isinstance(value, float):
        value = float(value)  # a numpy float's repr is not the number's
    if value is None or isinstance(value, (int, float)):
        return next(_texts([value]))
    raise TypeError(f"Object of type {type(value).__name__} is not JSON serializable")


def _chunks(document, indent: str = ""):
    """``json.dumps(_json_value(document), indent=2)`` in pieces, written from the arrays.

    ``document`` is a result's description (``_document()``), a dict or list
    of JSON values, numpy arrays and complex numbers.  Each array and
    complex number is written straight from its values, within one piece,
    so neither its listing nor the whole text is ever held.  Floats are
    written by their repr, and NaN and the infinities as ``json`` spells them.
    """
    brackets = "{}" if isinstance(document, dict) else "[]"
    if not document:
        yield brackets
        return
    if isinstance(document, dict):
        keys = map(json.encoder.encode_basestring_ascii, document)
        items = zip(map("{}: ".format, keys), document.values())
    else:
        items = zip(itertools.repeat(""), document)
    inner = indent + "  "
    separator = brackets[0] + "\n" + inner
    for prefix, value in items:
        if isinstance(value, (dict, list, tuple)):
            yield separator + prefix
            yield from _chunks(value, inner)
        else:
            yield separator + prefix + _text(value, inner)
        separator = ",\n" + inner
    yield "\n" + indent + brackets[1]


def _emit(document) -> None:
    """Write a result's description to stdout as ``print(json.dumps(..., indent=2))`` would."""
    sys.stdout.writelines(_chunks(document))
    sys.stdout.write("\n")


def cmd_spectrum(doc: InstanceDocument, args: argparse.Namespace) -> int:
    _require_undirected(doc, "spectrum")
    from .spectral import lift_spectrum

    base = build_base_matrix(doc.graph)
    report = lift_spectrum(
        base, doc.irrep_set, doc.ctx, match_tol=doc.options.tol_match
    )
    _emit(report._document())
    return 0


def cmd_eigvecs(doc: InstanceDocument, args: argparse.Namespace) -> int:
    _require_undirected(doc, "eigvecs")
    from .spectral import lift_eigenvectors

    base = build_base_matrix(doc.graph)
    bundle = lift_eigenvectors(
        base, doc.irrep_set, doc.ctx, residual_tol=doc.options.tol_residual
    )
    _emit(bundle._document())
    return 0


def cmd_lift(doc: InstanceDocument, args: argparse.Namespace) -> int:
    _require_undirected(doc, "lift")
    lift = build_lift(doc.graph, doc.ctx)
    if args.emit_adjacency:
        _emit(lift._document())
    else:
        sys.stdout.writelines(f"{line}\n" for line in lift.edge_lines())
    return 0


def cmd_verify(doc: InstanceDocument, args: argparse.Namespace) -> int:
    _require_undirected(doc, "verify")
    from .spectral import verify_against_oracle

    labelled = [("instance", doc.graph)]
    for i in range(args.trials):
        rng = np.random.default_rng(
            np.random.SeedSequence(entropy=doc.options.seed, spawn_key=(7, i))
        )
        labelled.append((f"random-{i}", randomize_voltages(doc.graph, rng)))
    results = []
    for label, graph in labelled:
        report = verify_against_oracle(
            graph,
            doc.irrep_set,
            doc.ctx,
            match_tol=doc.options.tol_match,
            residual_tol=doc.options.tol_residual,
        )
        results.append({"label": label, **report._document()})
    passed = all(r["passed"] for r in results)
    _emit({"passed": passed, "trials": results})
    return 0 if passed else 1


def cmd_characters(doc: InstanceDocument, args: argparse.Namespace) -> int:
    if doc.ctx.sorted_members.size != 1:
        raise ConsistencyError(
            "the character route computes regular-lift spectra; "
            "the subgroup must be trivial"
        )
    from .characters import regular_spectrum_via_characters

    base = build_base_matrix(doc.graph)
    result = regular_spectrum_via_characters(base, doc.irrep_set)
    _emit(result._document())
    return 0


def cmd_irreps(doc: InstanceDocument, args: argparse.Namespace) -> int:
    group = doc.group
    document: dict = {"group_order": group.order}
    if args.dump:
        names = [element.cycle_string() for element in group.elements]
        document["irreps"] = [
            {"dim": r.dim, "matrices": dict(zip(names, np.asarray(r.matrices, dtype=complex)))}
            for r in doc.irrep_set
        ]
    else:
        document["dims"] = list(doc.irrep_set.dims)
    _emit(document)
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="liftspectra",
        description="Spectra and eigenvector bases of voltage-graph lifts.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    # The ``cmd_*`` names are read each time the parser is built, so a
    # rebound name is the one that runs.
    def add(name: str, handler, help_text: str) -> argparse.ArgumentParser:
        p = sub.add_parser(name, help=help_text)
        p.set_defaults(handler=handler)
        p.add_argument("file", help="instance JSON document")
        for name in FLAG_OPTIONS:
            flag = "--" + name.replace("_", "-")
            p.add_argument(flag, dest=name, type=OPTION_TYPES[name], default=None)
        return p

    add("spectrum", cmd_spectrum, "full lift spectrum with multiplicities and provenance")
    add("eigvecs", cmd_eigvecs, "tagged eigenvector columns and a selected basis")
    lift_p = add("lift", cmd_lift, "explicit lift as an edge list (or adjacency JSON)")
    lift_p.add_argument("--emit-adjacency", action="store_true")
    verify_p = add("verify", cmd_verify, "cross-check against explicitly built lifts")
    verify_p.add_argument("--trials", type=int, default=1)
    add("characters", cmd_characters, "regular-lift spectrum via characters and traces")
    irreps_p = add("irreps", cmd_irreps, "irrep dimensions (optionally full matrices)")
    irreps_p.add_argument("--dump", action="store_true")
    return parser


EXIT_CODES = {ParseError: 2, ConsistencyError: 3, NumericalError: 4}


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    overrides = {name: getattr(args, name) for name in FLAG_OPTIONS}
    try:
        # Refused before the document is loaded, which can take seconds.
        if getattr(args, "trials", 0) < 0:
            raise ParseError("--trials must be non-negative")
        return args.handler(load_instance(args.file, overrides), args)
    except tuple(EXIT_CODES) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_CODES[type(exc)]


def entry() -> None:
    # Everything alive now lives until the process exits, so no collection,
    # the one at shutdown included, needs to walk it.
    gc.freeze()
    sys.exit(main())


if __name__ == "__main__":
    entry()
