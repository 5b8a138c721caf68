"""Command-line front end.

    rootforge build --family E --rank 6 [--json]
    rootforge pisystem {check,generate,rebase,name,equiv} ...
    rootforge wdd {weights,dominate,admissible,push} ...
    rootforge catalog {list,chains} ...
    rootforge verify-paper [--only GROUP] [--json]

Exit codes: 0 success, 1 verification failure, 2 usage or input error.
Coefficient vectors on the command line are semicolon-separated bracketed
integer lists, e.g. "[0,1,2,2,1,1];[1,0,0,0,0,0]"; files use the JSON
schemas described in the README.  Identical inputs produce byte-identical
--json output.
"""

from __future__ import annotations

import argparse
import json
import sys
from fractions import Fraction

from . import catalog as catalog_mod
from . import verify as verify_mod
from . import wdd as wdd_mod
from .errors import RootForgeError
from .hermitian import HermitianMarking, name_real_form
from .pisys import (
    check_pi_system,
    rebase_hermitian,
    span_subsystem,
    weyl_equivalent,
)
from .rootsys import RootSystem, build_root_system, strict_int, system_from_json


class UsageError(Exception):
    pass


def _parse_vectors(text: str) -> list[tuple[int, ...]]:
    out = []
    for chunk in text.split(";"):
        chunk = chunk.strip()
        if not chunk:
            continue
        try:
            vec = json.loads(chunk)
            out.append(tuple(strict_int(x) for x in vec))
        except (ValueError, TypeError) as e:
            raise UsageError(f"cannot parse vector {chunk!r}: {e}") from None
    if not out:
        raise UsageError("no vectors given")
    return out


def _parse_weights(text: str) -> tuple[Fraction, ...]:
    try:
        return tuple(Fraction(x.strip()) for x in text.replace(";", ",").split(","))
    except (ValueError, ZeroDivisionError) as e:
        raise UsageError(f"cannot parse weights {text!r}: {e}") from None


def _read_json(path: str, convert=lambda data: data):
    """Load a JSON input file and convert it to typed values.

    An unreadable file, bad JSON, a missing key or a wrong shape is a
    UsageError, never a traceback.
    """
    try:
        with open(path, "r", encoding="utf-8") as fh:
            return convert(json.load(fh))
    except (OSError, ValueError, KeyError, TypeError, ZeroDivisionError, OverflowError) as e:
        raise UsageError(f"cannot read {path}: {type(e).__name__}: {e}") from None


def _system_descriptor(args) -> dict:
    if getattr(args, "system_file", None):
        return _read_json(args.system_file)
    if not getattr(args, "family", None) or getattr(args, "rank", None) is None:
        raise UsageError("provide --family and --rank (or --system-file)")
    return {"family": str(args.family).upper(), "rank": int(args.rank)}


def _load_system(args) -> RootSystem:
    return build_root_system(system_from_json(_system_descriptor(args)))


def _marking(args, system: RootSystem) -> HermitianMarking:
    mark = getattr(args, "mark", None)
    if mark is None:
        raise UsageError("provide --mark (1-based noncompact node index)")
    return HermitianMarking(system=system, nc_index=int(mark) - 1)


def _emit(args, payload: dict, human: str) -> None:
    if getattr(args, "json", False):
        sys.stdout.write(json.dumps(payload, sort_keys=True) + "\n")
    else:
        sys.stdout.write(human + "\n")


def _cmd_build(args) -> int:
    system = _load_system(args)
    payload = {
        "rank": system.rank,
        "roots": len(system.roots),
        "positive_roots": len(system.positive_roots),
    }
    human = (
        f"rank {system.rank}: {len(system.roots)} roots, "
        f"{len(system.positive_roots)} positive"
    )
    _emit(args, payload, human)
    return 0


def _gens_of(data) -> list[tuple[int, ...]]:
    vectors = data["pi_system"] if isinstance(data, dict) else data
    return [tuple(strict_int(x) for x in vec) for vec in vectors]


def _cmd_pisystem(args) -> int:
    system = _load_system(args)
    if args.gens_file:
        gens = _read_json(args.gens_file, _gens_of)
    elif args.gens:
        gens = _parse_vectors(args.gens)
    else:
        raise UsageError("provide --gens or --gens-file")
    if args.action == "check":
        check_pi_system(system, gens)
        _emit(args, {"valid": True, "generators": [list(g) for g in gens]},
              f"valid Pi-system with {len(gens)} generators")
        return 0
    if args.action == "generate":
        sub = span_subsystem(system, gens)
        roots = sorted(sub.roots)
        _emit(args, {"count": len(roots), "roots": [list(r) for r in roots]},
              f"{len(roots)} roots in the generated subsystem")
        return 0
    if args.action in ("rebase", "name"):
        marking = _marking(args, system)
        sub = span_subsystem(system, gens)
        basis, marks = rebase_hermitian(marking, sub)
        if args.action == "rebase":
            human = "\n".join(f"{list(b)} {m.value}" for b, m in zip(basis, marks))
            _emit(args, {"basis": [list(b) for b in basis],
                         "marks": [m.value for m in marks]}, human)
            return 0
        name = name_real_form(system, basis, marks)
        _emit(args, {"name": str(name)}, str(name))
        return 0
    if args.action == "equiv":
        if args.gens_b_file:
            gens_b = _read_json(args.gens_b_file, _gens_of)
        elif args.gens_b:
            gens_b = _parse_vectors(args.gens_b)
        else:
            raise UsageError("equiv needs --gens-b or --gens-b-file")
        a = span_subsystem(system, gens)
        b = span_subsystem(system, gens_b)
        word = weyl_equivalent(system, a, b)
        if word is None:
            _emit(args, {"equivalent": False}, "not Weyl-equivalent")
            return 1
        _emit(args, {"equivalent": True, "word": [list(w) for w in word]},
              "witness word: " + (" ".join(str(list(w)) for w in word) or "(identity)"))
        return 0
    raise UsageError(f"unknown pisystem action {args.action!r}")


def _cmd_wdd(args) -> int:
    descriptor = _system_descriptor(args)
    system = build_root_system(system_from_json(descriptor))
    if args.action == "weights":
        if not args.coroot:
            raise UsageError("weights needs --coroot")
        coords = _parse_weights(args.coroot)
        h = wdd_mod.CorootVector(system=system, coords=coords)
        w = wdd_mod.weights_of(h)
        _emit(args, {"weights": [str(x) for x in w.weights],
                     "system": descriptor},
              wdd_mod.format_weights(w))
        return 0
    if args.action == "push":
        if not args.embedding or not args.coroot:
            raise UsageError("push needs --embedding FILE and --coroot")
        images = _read_json(
            args.embedding,
            lambda data: [tuple(Fraction(x) for x in vec) for vec in data["embedding"]],
        )
        emb = [wdd_mod.CorootVector(system=system, coords=coords) for coords in images]
        h = wdd_mod.push_coroot(emb, _parse_weights(args.coroot))
        _emit(args, {"coroot": [str(x) for x in h.coords]},
              ",".join(str(x) for x in h.coords))
        return 0
    if not args.weights:
        raise UsageError(f"{args.action} needs --weights")
    w = wdd_mod.WeightedDiagram(system=system, weights=_parse_weights(args.weights))
    if args.action == "dominate":
        dom, word = wdd_mod.dominate(w)
        _emit(
            args,
            {"weights": [str(x) for x in dom.weights],
             "word": [list(r) for r in word],
             "system": descriptor},
            wdd_mod.format_weights(dom),
        )
        return 0
    if args.action == "admissible":
        ok = wdd_mod.sl2_admissible(w)
        _emit(args, {"admissible": ok}, "true" if ok else "false")
        return 0
    raise UsageError(f"unknown wdd action {args.action!r}")


def _cmd_catalog(args) -> int:
    if args.action == "list":
        rows = catalog_mod.maximal_hermitian_regular_subalgebras(args.ambient)
        payload = {
            "ambient": args.ambient,
            "entries": [
                {
                    "ambient": str(r.ambient),
                    "name": str(r.name),
                    "source": r.source,
                    "generators": [list(g) for g in r.generators],
                }
                for r in rows
            ],
        }
        human = "\n".join(
            f"{r.name}  <- {r.source}: " + "; ".join(str(list(g)) for g in r.generators)
            for r in rows
        ) or "(no entries)"
        _emit(args, payload, human)
        return 0
    if args.action == "chains":
        if not args.target:
            raise UsageError("chains needs --target")
        chains = catalog_mod.inclusion_chains(args.target, args.ambient, args.depth)
        payload = {
            "target": args.target,
            "ambient": args.ambient,
            "chains": [
                {
                    "names": [str(n) for n in c.names],
                    "steps": [
                        {"name": str(s.name), "generators": [list(g) for g in s.generators]}
                        for s in c.steps
                    ],
                }
                for c in chains
            ],
        }
        human = "\n".join(" > ".join(str(n) for n in c.names) for c in chains) or "(none)"
        _emit(args, payload, human)
        return 0
    raise UsageError(f"unknown catalog action {args.action!r}")


def _cmd_verify(args) -> int:
    report = verify_mod.run_verification(only=args.only)
    if args.json:
        sys.stdout.write(json.dumps(report.to_dict(), sort_keys=True) + "\n")
    else:
        for check in report.checks:
            sys.stdout.write(check.line() + "\n")
        sys.stdout.write(("all checks passed" if report.overall else "FAILURES") + "\n")
    return 0 if report.overall else 1


def _add_system_flags(p: argparse.ArgumentParser) -> None:
    p.add_argument("--family", help="root system family A/B/C/D/E")
    p.add_argument("--rank", type=int, help="rank of the system")
    p.add_argument("--system-file", help="JSON file with {family,rank} or {cartan}")
    p.add_argument("--json", action="store_true", help="machine-readable output")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="rootforge",
        description="exact root systems, Hermitian markings, and subalgebra catalogs",
    )
    subs = parser.add_subparsers(dest="command", required=True)

    p = subs.add_parser("build", help="build a root system and report its size")
    _add_system_flags(p)
    p.set_defaults(func=_cmd_build)

    p = subs.add_parser("pisystem", help="validate and use Dynkin Pi-systems")
    p.add_argument("action", choices=["check", "generate", "rebase", "name", "equiv"])
    _add_system_flags(p)
    p.add_argument("--mark", type=int, help="1-based noncompact node index")
    p.add_argument("--gens", help='generators, e.g. "[1,0];[0,1]"')
    p.add_argument("--gens-file", help='JSON file: {"pi_system": [[..], ..]}')
    p.add_argument("--gens-b", help="second generator list (equiv)")
    p.add_argument("--gens-b-file", help="second generator file (equiv)")
    p.set_defaults(func=_cmd_pisystem)

    p = subs.add_parser("wdd", help="weighted diagrams of Cartan elements")
    p.add_argument("action", choices=["weights", "dominate", "admissible", "push"])
    _add_system_flags(p)
    p.add_argument("--coroot", help="coroot coordinates, comma separated")
    p.add_argument("--weights", help="weight vector, comma separated")
    p.add_argument("--embedding", help="JSON file with an 'embedding' list")
    p.set_defaults(func=_cmd_wdd)

    p = subs.add_parser("catalog", help="subalgebra tables and inclusion chains")
    p.add_argument("action", choices=["list", "chains"])
    p.add_argument("--ambient", required=True, help='ambient name, e.g. "e6(-14)"')
    p.add_argument("--target", help="target name for chain search")
    p.add_argument("--depth", type=int, default=3, help="maximum chain length")
    p.add_argument("--json", action="store_true")
    p.set_defaults(func=_cmd_catalog)

    p = subs.add_parser("verify-paper", help="replay every certified computation")
    p.add_argument("--only", help="restrict to one check group")
    p.add_argument("--json", action="store_true")
    p.set_defaults(func=_cmd_verify)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as e:
        return 2 if e.code not in (0, None) else 0
    try:
        return args.func(args)
    except UsageError as e:
        sys.stderr.write(f"error: {e}\n")
        return 2
    except RootForgeError as e:
        sys.stderr.write(f"error: {type(e).__name__}: {e}\n")
        return 2
    except OSError as e:
        sys.stderr.write(f"error: {e}\n")
        return 2


if __name__ == "__main__":
    raise SystemExit(main())
