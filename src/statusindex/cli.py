"""Command-line surface.

Exit codes: 0 on success / clean verification, 1 on an unregistered
verification mismatch, 2 on input or parameter errors (including a
verification run that checks no case), 3 on an internal error (a broken
invariant, reported with its traceback). JSON output is schema-stable:
keys sorted, no floating point, integers beyond the 53-bit safe range
rendered as exact decimal strings.
"""
from __future__ import annotations

import argparse
import json
import sys
import traceback
from dataclasses import asdict
from typing import Any, Sequence

from .closed_forms import INDEX_NAMES, ClosedFormReport, closed_forms_for
from .families import (
    CLOSED_FORM_FAMILIES,
    DEFAULT_MAX_VERTICES,
    FAMILY_PARAMS,
    FamilySpec,
    FamilyError,
    generate,
)
from .graph import GraphError, format_edge_list, parse_edge_list, transmission_profile
from .indices import complement_bounds, compute_index_bundle
from .verify import (
    DEFAULT_SEED,
    VerificationReport,
    default_grid,
    verify_grid,
    verify_identities,
    verify_random_suite,
)

_SAFE_INT = 2 ** 53 - 1


def _jsonable(value: Any) -> Any:
    """Rewrite ints beyond the 53-bit safe range as decimal strings."""
    if isinstance(value, bool):
        return value
    if isinstance(value, int):
        return value if -_SAFE_INT <= value <= _SAFE_INT else str(value)
    if isinstance(value, dict):
        return {key: _jsonable(inner) for key, inner in value.items()}
    if isinstance(value, (list, tuple)):
        return [_jsonable(inner) for inner in value]
    return value


def _print_json(payload: dict[str, Any]) -> None:
    print(json.dumps(_jsonable(payload), sort_keys=True, indent=2))


def _print_payload(payload: dict[str, Any], args: argparse.Namespace,
                   text_keys: tuple[str, ...]) -> None:
    """JSON of the whole payload, or one ``key: value`` line per text key."""
    if args.json:
        _print_json(payload)
    else:
        for key in text_keys:
            print(f"{key}: {payload[key]}")


def _read_graph(path: str):
    with open(path, "r", encoding="utf-8") as handle:
        return parse_edge_list(handle.read())


def _parse_range(text: str) -> list[int]:
    """``a..b`` inclusive, or a single integer."""
    if ".." in text:
        lo_text, hi_text = text.split("..", 1)
        lo, hi = int(lo_text), int(hi_text)
        if hi < lo:
            raise ValueError(f"empty range {text!r}")
        return list(range(lo, hi + 1))
    return [int(text)]


_PARAM_FLAGS = ("n", "p", "q", "k", "t")


def _reject_foreign_params(args: argparse.Namespace) -> None:
    names = FAMILY_PARAMS[args.family]
    foreign = [
        name for name in _PARAM_FLAGS
        if name not in names and getattr(args, name, None) is not None
    ]
    if foreign:
        raise FamilyError(
            f"family {args.family!r} does not take --{foreign[0]} "
            f"(its parameters are {', '.join('--' + n for n in names)})"
        )


def _spec_from_args(args: argparse.Namespace) -> FamilySpec:
    _reject_foreign_params(args)
    names = FAMILY_PARAMS[args.family]
    values = []
    for name in names:
        value = getattr(args, name, None)
        if value is None:
            raise FamilyError(f"family {args.family!r} needs --{name}")
        values.append(int(value))
    return FamilySpec(args.family, tuple(values))


def _specs_from_ranges(args: argparse.Namespace) -> tuple[list[FamilySpec], list[str]]:
    """Cartesian product of the given parameter ranges; invalid
    combinations are skipped (reported, not fatal) so range grids can
    sweep past constraint boundaries."""
    _reject_foreign_params(args)
    names = FAMILY_PARAMS[args.family]
    ranges = []
    for name in names:
        value = getattr(args, name, None)
        if value is None:
            raise FamilyError(f"family {args.family!r} needs --{name}")
        ranges.append(_parse_range(value))
    combos: list[tuple[int, ...]] = [()]
    for values in ranges:
        combos = [prefix + (v,) for prefix in combos for v in values]
    single = len(combos) == 1
    specs = []
    skipped = []
    for combo in combos:
        try:
            specs.append(FamilySpec(args.family, combo))
        except FamilyError as exc:
            if single:
                raise
            skipped.append(str(exc))
    return specs, skipped


#: Text-output order of the compute fields; JSON adds the transmissions.
_COMPUTE_KEYS = (
    "n", "m", "diameter", "wiener", "transmission_regular_k",
    "s1", "s2", "s1_co", "s2_co", "m1", "m2", "m1_co", "m2_co",
)

#: Text-output order of the bounds fields.
_BOUNDS_KEYS = (
    "s1_lower", "s1_actual", "s2_lower", "s2_actual", "equality", "complement_diameter",
)


def cmd_compute(args: argparse.Namespace) -> int:
    g = _read_graph(args.path)
    tp = transmission_profile(g)
    payload = {
        "n": g.n,
        "m": g.m,
        "diameter": tp.diameter,
        "transmission": list(tp.sigma),
        "transmission_regular_k": tp.regular_k,
        **asdict(compute_index_bundle(g, tp)),
    }
    _print_payload(payload, args, _COMPUTE_KEYS)
    return 0


def cmd_generate(args: argparse.Namespace) -> int:
    spec = _spec_from_args(args)
    g = generate(spec, max_vertices=args.max_vertices)
    text = format_edge_list(g)
    if args.output:
        with open(args.output, "w", encoding="utf-8") as handle:
            handle.write(text)
    else:
        sys.stdout.write(text)
    return 0


def _closed_form_payload(report: ClosedFormReport, mode: str) -> dict[str, Any]:
    return {
        "family": report.family.label(),
        "mode": mode,
        "n": report.n,
        "m": report.m,
        "degree": report.degree,
        "sigma": report.sigma,
        "wiener": report.wiener,
        "indices": {
            name: {
                "corrected": report.indices[name].corrected,
                "as_printed": report.indices[name].as_printed,
                "erratum": report.indices[name].erratum,
            }
            for name in INDEX_NAMES
        },
    }


def cmd_closed_form(args: argparse.Namespace) -> int:
    spec = _spec_from_args(args)
    if spec.kind not in CLOSED_FORM_FAMILIES:
        raise FamilyError(f"no closed forms for family {spec.kind!r}")
    wiener = None
    if spec.kind == "kneser":
        # no closed form for W: compute it on the generated graph
        g = generate(spec, max_vertices=args.max_vertices)
        wiener = transmission_profile(g).wiener
    report = closed_forms_for(spec, wiener=wiener)
    mode = "as_printed" if args.as_printed else "corrected"
    if args.json:
        _print_json(_closed_form_payload(report, mode))
        return 0
    print(f"family: {report.family.label()}")
    print(f"n: {report.n}")
    print(f"m: {report.m}")
    print(f"degree: {report.degree}")
    print(f"sigma: {report.sigma}")
    print(f"wiener: {report.wiener}")
    for name in INDEX_NAMES:
        value = report.indices[name]
        suffix = ""
        if value.erratum:
            other = "corrected" if mode == "as_printed" else "as printed"
            suffix = f"  (erratum: {other} {value.value('corrected' if mode == 'as_printed' else 'as_printed')})"
        print(f"{name}: {value.value(mode)}{suffix}")
    return 0


def _report_payload(report: VerificationReport, extra: dict[str, Any] | None = None) -> dict[str, Any]:
    payload: dict[str, Any] = {
        "summary": report.summary(),
        "cases": [
            {
                "case": c.case_id,
                "index": c.index_name,
                "oracle": c.oracle,
                "formula": c.formula,
                "mode": c.mode,
                "match": c.match,
                "registered_erratum": c.registered_erratum,
                "note": c.note,
            }
            for c in report.sorted_cases()
        ],
    }
    if extra:
        payload.update(extra)
    return payload


def _print_report(report: VerificationReport, args: argparse.Namespace,
                  extra: dict[str, Any] | None = None) -> int:
    if not report.cases:
        # an empty run would otherwise print a clean summary and exit 0
        skipped = len(extra["skipped"]) if extra else 0
        detail = f" ({skipped} invalid parameter combinations skipped)" if skipped else ""
        raise ValueError(f"no cases checked{detail}")
    if args.json:
        _print_json(_report_payload(report, extra))
    else:
        for c in report.sorted_cases():
            if c.match:
                status = "ok     "
            elif c.registered_erratum:
                status = "erratum"
            else:
                status = "FAIL   "
            note = f"  [{c.note}]" if c.note else ""
            print(f"{status} {c.case_id} {c.index_name}: {c.formula} vs oracle {c.oracle}{note}")
        if extra:
            for key, value in extra.items():
                for item in value if isinstance(value, list) else [value]:
                    print(f"{key}: {item}")
        summary = report.summary()
        print(
            f"summary: {summary['cases']} cases, {summary['passed']} passed, "
            f"{summary['registered_errata']} registered errata, "
            f"{summary['hard_failures']} hard failures"
        )
    return 0 if report.ok else 1


def cmd_verify(args: argparse.Namespace) -> int:
    mode = args.mode.replace("-", "_")
    given_params = [
        name for name in _PARAM_FLAGS if getattr(args, name, None) is not None
    ]
    if args.family == "random":
        if mode != "corrected":
            raise FamilyError("as-printed mode applies to closed-form families only")
        if given_params:
            raise FamilyError(
                f"--family random takes --count/--seed/--dense, not --{given_params[0]}"
            )
        report = verify_random_suite(count=args.count, seed=args.seed, dense=args.dense)
        return _print_report(report, args)
    skipped: list[str] = []
    if args.family is None:
        if given_params:
            raise FamilyError(
                f"--{given_params[0]} given without --family; pick a family to sweep"
            )
        specs = default_grid()
    else:
        if any(getattr(args, name, None) is not None for name in FAMILY_PARAMS[args.family]):
            specs, skipped = _specs_from_ranges(args)
        else:
            specs = [s for s in default_grid() if s.kind == args.family]
    report = verify_grid(mode, specs, args.max_vertices)
    extra = {"skipped": skipped} if skipped else None
    return _print_report(report, args, extra)


def cmd_bounds(args: argparse.Namespace) -> int:
    g = _read_graph(args.path)
    _print_payload(asdict(complement_bounds(g)), args, _BOUNDS_KEYS)
    return 0


def cmd_identities(args: argparse.Namespace) -> int:
    g = _read_graph(args.path)
    report = verify_identities(g, case_id=args.path, tag=args.tag)
    return _print_report(report, args)


def _add_family_arguments(parser: argparse.ArgumentParser, ranged: bool) -> None:
    kind = str  # ranged parameters stay strings until expansion
    for name in ("n", "p", "q", "k", "t"):
        parser.add_argument(
            f"--{name}",
            type=kind if ranged else int,
            default=None,
            help=f"family parameter {name}" + (" (accepts a..b ranges)" if ranged else ""),
        )


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="statusindex",
        description="Exact status (transmission) connectivity indices and co-indices "
        "of connected graphs, with family generators and closed-form verification.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_compute = sub.add_parser("compute", help="compute all indices of an edge-list file")
    p_compute.add_argument("path")
    p_compute.add_argument("--json", action="store_true")
    p_compute.set_defaults(func=cmd_compute)

    p_generate = sub.add_parser("generate", help="write a family graph as an edge list")
    p_generate.add_argument("--family", required=True, choices=sorted(FAMILY_PARAMS))
    _add_family_arguments(p_generate, ranged=False)
    p_generate.add_argument("-o", "--output", default=None, help="output path (default stdout)")
    p_generate.add_argument("--max-vertices", type=int, default=DEFAULT_MAX_VERTICES)
    p_generate.set_defaults(func=cmd_generate)

    p_closed = sub.add_parser("closed-form", help="evaluate a family's closed-form indices")
    p_closed.add_argument("--family", required=True, choices=sorted(CLOSED_FORM_FAMILIES))
    _add_family_arguments(p_closed, ranged=False)
    p_closed.add_argument("--as-printed", action="store_true", dest="as_printed",
                          help="show the published expressions' values")
    p_closed.add_argument("--json", action="store_true")
    p_closed.add_argument("--max-vertices", type=int, default=DEFAULT_MAX_VERTICES)
    p_closed.set_defaults(func=cmd_closed_form)

    p_verify = sub.add_parser(
        "verify",
        help="cross-check closed forms against brute force (default: the full grid)",
    )
    p_verify.add_argument(
        "--family", default=None, choices=sorted(CLOSED_FORM_FAMILIES) + ["random"],
    )
    _add_family_arguments(p_verify, ranged=True)
    p_verify.add_argument("--mode", default="corrected",
                          choices=["corrected", "as-printed", "as_printed"])
    p_verify.add_argument("--seed", type=int, default=DEFAULT_SEED)
    p_verify.add_argument("--count", type=int, default=200,
                          help="corpus size for --family random")
    p_verify.add_argument("--dense", action="store_true",
                          help="use the dense random corpus (diameter <= 2 coverage)")
    p_verify.add_argument("--json", action="store_true")
    p_verify.add_argument("--max-vertices", type=int, default=DEFAULT_MAX_VERTICES)
    p_verify.set_defaults(func=cmd_verify)

    p_bounds = sub.add_parser("bounds", help="complement index lower bounds for a graph file")
    p_bounds.add_argument("path")
    p_bounds.add_argument("--json", action="store_true")
    p_bounds.set_defaults(func=cmd_bounds)

    p_identities = sub.add_parser(
        "identities", help="co-index identity and bound checks for a graph file"
    )
    p_identities.add_argument("path")
    p_identities.add_argument("--tag", default=None,
                              help="fixture tag for registered published values (e.g. demo5)")
    p_identities.add_argument("--json", action="store_true")
    p_identities.set_defaults(func=cmd_identities)

    return parser


def main(argv: Sequence[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (GraphError, FamilyError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except Exception as exc:
        traceback.print_exc()
        print(f"internal error: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
