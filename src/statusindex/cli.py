"""Command-line surface.

Exit codes: 0 on success / clean verification, 1 on an unregistered
verification mismatch, 2 on input or parameter errors (including a
verification run that checks no case), 3 on an internal error (a broken
invariant, reported with its traceback), 141 (128 + SIGPIPE) with nothing
printed when the reader closes stdout early. JSON output is schema-stable:
keys sorted, no floating point, integers beyond the 53-bit safe range
rendered as exact decimal strings.
"""
from __future__ import annotations

import argparse
import io
import json
import os
import sys
from itertools import product
from json.encoder import encode_basestring_ascii
from math import comb, isqrt, prod
from typing import TYPE_CHECKING, Any, Callable, Iterator, Sequence

from .graph import (
    DEFAULT_MAX_VERTICES,
    check_connected,
    format_edge_list,
    parse_edge_list,
    transmission_profile,
)

if TYPE_CHECKING:
    from .families import FamilySpec
    from .verify import VerificationReport

# A command imports the other modules it runs when it runs, so that each
# loads and compiles only those: without a bytecode cache, compiling the
# sources is much of a short command's time.

_SAFE_INT = 2 ** 53 - 1


def _jsonable(value: Any, where: str = "") -> Any:
    """Rewrite ints beyond the 53-bit safe range as decimal strings. An
    int with more digits than Python writes as text raises ValueError
    naming ``where``, its dotted key path."""
    if isinstance(value, bool):
        return value
    if isinstance(value, int):
        if -_SAFE_INT <= value <= _SAFE_INT:
            return value
        try:
            return str(value)
        except ValueError:
            raise ValueError(
                f"{where} has more than {sys.get_int_max_str_digits()} digits, "
                "the limit for writing an integer as text"
            ) from None
    if isinstance(value, dict):
        return {
            key: _jsonable(inner, f"{where}.{key}" if where else key)
            for key, inner in value.items()
        }
    if isinstance(value, (list, tuple)):
        return [_jsonable(inner, where) for inner in value]
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
    # A file is parsed as it is read. A pipe cannot be read twice, for the
    # parser to name a repeated edge's line, so its bytes are first copied
    # in chunks to a temporary file, then decoded like a file's. A leading
    # byte-order mark is dropped; one anywhere else stays an error.
    with open(path, "r", encoding="utf-8-sig") as handle:
        if handle.seekable():
            return parse_edge_list(handle)
        import shutil  # only this path needs them; importing them costs start-up
        import tempfile

        with io.TextIOWrapper(tempfile.TemporaryFile(), encoding="utf-8-sig") as spool:
            shutil.copyfileobj(handle.buffer, spool.buffer)
            spool.seek(0)
            return parse_edge_list(spool)


def _integer(text: str) -> int:
    """An optional ``-`` and ASCII digits; ``int`` alone also reads
    ``+3``, ``1_0``, surrounding blanks and other scripts' digits."""
    digits = text[1:] if text.startswith("-") else text
    if not (digits.isdigit() and digits.isascii()):
        raise ValueError(f"invalid integer {text!r}: expected ASCII digits")
    return int(text)


#: Most values in a range, combinations in a sweep and graphs in a random corpus.
_MAX_SWEEP = DEFAULT_MAX_VERTICES + 1


def _parse_range(text: str) -> range:
    """``a..b`` inclusive, or a single integer. A range ends at 1 or
    above, since every family parameter is positive, and at most at the
    vertex cap, and holds at most one value more than the cap: every
    valid spec of a closed-form family has at least as many vertices as
    each of its parameters, so no larger parameter can be checked."""
    if ".." in text:
        lo_text, hi_text = text.split("..", 1)
        lo, hi = _integer(lo_text), _integer(hi_text)
        if hi < lo:
            raise ValueError(f"empty range {text!r}")
        if hi < 1:
            raise ValueError(f"range {text!r} holds no positive value")
        if hi > DEFAULT_MAX_VERTICES:
            raise ValueError(
                f"range {text!r} ends above the vertex cap of {DEFAULT_MAX_VERTICES}"
            )
        if hi - lo >= _MAX_SWEEP:
            raise ValueError(f"range {text!r} holds more than {_MAX_SWEEP} values")
        return range(lo, hi + 1)
    value = _integer(text)
    return range(value, value + 1)


# The parameter flags, the --family choices and the random-corpus
# defaults are written out, so that building the parser loads none of
# families, closed_forms and verify; a test pins each to its table.

#: Every family's parameter names, in the order they first appear in
#: ``families.FAMILIES``.
_PARAM_FLAGS = ("n", "p", "q", "k", "t")

#: The ``--family`` names argparse accepts: the sorted keys of
#: ``families.FAMILIES`` and of ``closed_forms.CLOSED_FORMS``.
_FAMILY_CHOICES = ("complete", "cycle", "hypercube", "intersection", "kneser", "nanotorus", "path")
_CLOSED_FORM_CHOICES = ("hypercube", "intersection", "kneser", "nanotorus")
_VERIFY_CHOICES = (*_CLOSED_FORM_CHOICES, "random")

#: Size and first seed of a random corpus: ``verify.DEFAULT_COUNT`` and
#: ``verify.DEFAULT_SEED``.
DEFAULT_COUNT = 200
DEFAULT_SEED = 1729


def _family_params(args: argparse.Namespace, read: Callable[[str], Any]) -> list[Any]:
    """The family's parameters, each read by ``read`` in declaration
    order, after rejecting any parameter flag the family does not take."""
    from .families import FAMILIES, FamilyError

    names = FAMILIES[args.family].params
    for name in _PARAM_FLAGS:
        if name not in names and getattr(args, name, None) is not None:
            raise FamilyError(
                f"family {args.family!r} does not take --{name} "
                f"(its parameters are {', '.join('--' + n for n in names)})"
            )
    values = []
    for name in names:
        value = getattr(args, name, None)
        if value is None:
            raise FamilyError(f"family {args.family!r} needs --{name}")
        values.append(read(value))
    return values


def _spec_from_args(args: argparse.Namespace) -> FamilySpec:
    from .families import FamilySpec

    return FamilySpec(args.family, tuple(_family_params(args, _integer)))


def _specs_from_ranges(family: str, ranges: Sequence[range],
                       skipped: list[str]) -> Iterator[FamilySpec]:
    """The specs of the ranges' Cartesian product, one at a time. An
    invalid combination is appended to ``skipped`` (reported, not fatal)
    so a sweep can pass constraint boundaries, unless it is the only one."""
    from .families import FamilyError, FamilySpec

    single = all(len(values) == 1 for values in ranges)
    for combo in product(*ranges):
        try:
            spec = FamilySpec(family, combo)
        except FamilyError as exc:
            if single:
                raise
            skipped.append(str(exc))
        else:
            yield spec


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
    from .indices import compute_index_bundle

    g = _read_graph(args.path)
    check_connected(g)
    tp = transmission_profile(g)
    payload = {
        "n": g.n,
        "m": g.m,
        "diameter": tp.diameter,
        "transmission": list(tp.sigma),
        "transmission_regular_k": tp.regular_k,
        **compute_index_bundle(g, tp)._asdict(),
    }
    _print_payload(payload, args, _COMPUTE_KEYS)
    return 0


def cmd_generate(args: argparse.Namespace) -> int:
    from .families import generate

    g = generate(_spec_from_args(args))
    text = format_edge_list(g)
    if args.output:
        with open(args.output, "w", encoding="utf-8") as handle:
            handle.write(text)
    else:
        # Through the binary layer, retrying short writes: unbuffered, the
        # text layer drops what a closed pipe did not take, and no error shows.
        data = memoryview(text.encode())
        while data:
            data = data[sys.stdout.buffer.write(data):]
    return 0


#: Text-output order of the closed-form fields before the indices.
_CLOSED_FORM_KEYS = ("family", "n", "m", "degree", "sigma", "wiener")


def _s2_floor(n: int) -> int:
    """A lower bound on the larger of s2 and s2_co of a connected graph
    on n vertices: their sum is sigma_u * sigma_v summed over all C(n, 2)
    pairs, and every sigma is at least n - 1."""
    return comb(n, 2) * (n - 1) ** 2 // 2


def _largest_order(limit: int) -> int:
    """The largest n whose ``_s2_floor`` has at most ``limit`` digits."""
    n = isqrt(isqrt(4 * 10 ** limit)) + 2  # above it: (n-1)^4 <= 4 _s2_floor(n) + 3
    while _s2_floor(n) >= 10 ** limit:
        n -= 1
    return n


def cmd_closed_form(args: argparse.Namespace) -> int:
    from .closed_forms import closed_forms_for
    from .families import above_cap

    spec = _spec_from_args(args)
    # Every report writes the corrected s2 and s2_co, so an order whose
    # bound on them is too long to write as text fails the command anyway:
    # decide that first, without forming the order, rather than after
    # evaluating the closed forms.
    limit = sys.get_int_max_str_digits() if hasattr(sys, "get_int_max_str_digits") else 0
    if limit and above_cap(spec, _largest_order(limit)):
        raise ValueError(
            f"indices.s2.corrected or indices.s2_co.corrected has more than {limit} "
            "digits, the limit for writing an integer as text"
        )
    report = closed_forms_for(spec)
    # every value is formatted before anything is written
    payload = _jsonable({
        **report._asdict(),
        "family": report.family.label(),
        "indices": {
            name: {**value._asdict(), "erratum": value.erratum}
            for name, value in report.indices.items()
        },
    })
    if args.json:
        print(json.dumps(payload, sort_keys=True, indent=2))
        return 0
    lines = [f"{key}: {payload[key]}" for key in _CLOSED_FORM_KEYS]
    for name, value in payload["indices"].items():
        suffix = f"  (erratum: as printed {value['as_printed']})" if value["erratum"] else ""
        lines.append(f"{name}: {value['corrected']}{suffix}")
    print("\n".join(lines))
    return 0


#: One case of a ``verify``/``identities`` report, keys sorted, exactly as
#: ``json.dumps(..., sort_keys=True, indent=2)`` writes it in ``cases``.
_CASE_ROW = """\
    {
      "case": %s,
      "formula": %s,
      "index": %s,
      "match": %s,
      "mode": %s,
      "note": %s,
      "oracle": %s,
      "registered_erratum": %s
    }"""

#: Case rows formatted and written per ``stdout.write``.
_ROWS_PER_WRITE = 4096


def _json_int(value: int) -> str:
    return str(value) if -_SAFE_INT <= value <= _SAFE_INT else f'"{value}"'


def _write_report_json(report: VerificationReport, skipped: Sequence[str]) -> None:
    """Write the bytes of ``json.dumps(payload, sort_keys=True, indent=2)``
    for ``payload = {"cases": [...], "summary": ..., "skipped": skipped}``,
    ``skipped`` only when non-empty, for a report of at least one case.
    ``json.dumps`` writes the payload with a ``null`` in place of the cases
    (the first key, so the first ``null``); the case rows are written there
    from the ``_CASE_ROW`` template."""
    out = sys.stdout
    enc = encode_basestring_ascii
    sections: dict[str, Any] = {"cases": None, "summary": report.summary()}
    if skipped:
        sections["skipped"] = skipped
    head, tail = json.dumps(sections, sort_keys=True, indent=2).split("null", 1)
    cases = report.cases
    sep = head + "[\n"
    for start in range(0, len(cases), _ROWS_PER_WRITE):
        out.write(sep + ",\n".join([
            _CASE_ROW % (
                enc(c.case_id), _json_int(c.formula), enc(c.index_name),
                "true" if c.match else "false", enc(c.mode), enc(c.note),
                _json_int(c.oracle), "true" if c.registered_erratum else "false",
            )
            for c in cases[start:start + _ROWS_PER_WRITE]
        ]))
        sep = ",\n"
    out.write(f"\n  ]{tail}\n")


def _print_report(report: VerificationReport, args: argparse.Namespace,
                  skipped: Sequence[str] = ()) -> int:
    if not report.cases:
        # an empty run would otherwise print a clean summary and exit 0
        detail = f" ({len(skipped)} invalid parameter combinations skipped)" if skipped else ""
        raise ValueError(f"no cases checked{detail}")
    if args.json:
        _write_report_json(report, skipped)
    else:
        for c in report.cases:
            if c.match:
                status = "ok     "
            elif c.registered_erratum:
                status = "erratum"
            else:
                status = "FAIL   "
            note = f"  [{c.note}]" if c.note else ""
            print(f"{status} {c.case_id} {c.index_name}: {c.formula} vs oracle {c.oracle}{note}")
        for item in skipped:
            print(f"skipped: {item}")
        summary = report.summary()
        print(
            f"summary: {summary['cases']} cases, {summary['passed']} passed, "
            f"{summary['registered_errata']} registered errata, "
            f"{summary['hard_failures']} hard failures"
        )
    return 0 if report.ok else 1


def cmd_verify(args: argparse.Namespace) -> int:
    from .families import FamilyError
    from .verify import default_grid, verify_grid, verify_random_suite

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
        count = DEFAULT_COUNT if args.count is None else _integer(args.count)
        seed = DEFAULT_SEED if args.seed is None else _integer(args.seed)
        if count > _MAX_SWEEP:  # checked before anything is drawn
            raise ValueError(f"--count {count} is more than {_MAX_SWEEP}")
        report = verify_random_suite(count=count, seed=seed, dense=args.dense)
        return _print_report(report, args)
    for flag, value in (("count", args.count), ("seed", args.seed), ("dense", args.dense)):
        if value not in (None, False):
            raise FamilyError(f"--{flag} applies to --family random only")
    skipped: list[str] = []
    if args.family is None:
        if given_params:
            raise FamilyError(
                f"--{given_params[0]} given without --family; pick a family to sweep"
            )
        specs = default_grid()
    elif given_params:
        ranges = _family_params(args, _parse_range)
        combinations = prod(map(len, ranges))
        if combinations > _MAX_SWEEP:
            raise ValueError(
                f"the ranges hold {combinations} parameter combinations, more than {_MAX_SWEEP}"
            )
        specs = _specs_from_ranges(args.family, ranges, skipped)
    else:
        specs = [s for s in default_grid() if s.kind == args.family]
    report = verify_grid(mode, specs)
    return _print_report(report, args, skipped)


def cmd_bounds(args: argparse.Namespace) -> int:
    from .indices import complement_bounds

    g = _read_graph(args.path)
    _print_payload(complement_bounds(g)._asdict(), args, _BOUNDS_KEYS)
    return 0


def cmd_identities(args: argparse.Namespace) -> int:
    from .verify import verify_identities

    g = _read_graph(args.path)
    check_connected(g)
    report = verify_identities(g, case_id=args.path)
    return _print_report(report, args)


def _add_family_arguments(parser: argparse.ArgumentParser, ranged: bool) -> None:
    # parameters stay strings until _integer or _parse_range reads them
    for name in _PARAM_FLAGS:
        parser.add_argument(
            f"--{name}",
            default=None,
            help=f"family parameter {name}" + (" (accepts a..b ranges)" if ranged else ""),
        )


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="statusindex",
        description="Exact status (transmission) connectivity indices and co-indices "
        "of connected graphs, with family generators and closed-form verification.",
    )
    # --count and --seed stay strings, like the family parameters, until
    # the command reads them with _integer; None means not given
    sub = parser.add_subparsers(dest="command", required=True)

    p_compute = sub.add_parser("compute", help="compute all indices of an edge-list file")
    p_compute.add_argument("path")
    p_compute.add_argument("--json", action="store_true")
    p_compute.set_defaults(func=cmd_compute)

    p_generate = sub.add_parser("generate", help="write a family graph as an edge list")
    p_generate.add_argument("--family", required=True, choices=_FAMILY_CHOICES)
    _add_family_arguments(p_generate, ranged=False)
    p_generate.add_argument("-o", "--output", default=None, help="output path (default stdout)")
    p_generate.set_defaults(func=cmd_generate)

    p_closed = sub.add_parser("closed-form", help="evaluate a family's closed-form indices")
    p_closed.add_argument("--family", required=True, choices=_CLOSED_FORM_CHOICES)
    _add_family_arguments(p_closed, ranged=False)
    p_closed.add_argument("--json", action="store_true")
    p_closed.set_defaults(func=cmd_closed_form)

    p_verify = sub.add_parser(
        "verify",
        help="cross-check closed forms against brute force (default: the full grid)",
    )
    p_verify.add_argument(
        "--family", default=None, choices=_VERIFY_CHOICES,
    )
    _add_family_arguments(p_verify, ranged=True)
    p_verify.add_argument("--mode", default="corrected", choices=["corrected", "as-printed"])
    p_verify.add_argument("--seed", help=f"first seed for --family random (default {DEFAULT_SEED})")
    p_verify.add_argument("--count", help=f"corpus size for --family random "
                          f"(default {DEFAULT_COUNT}, at most {_MAX_SWEEP})")
    p_verify.add_argument("--dense", action="store_true",
                          help="use the dense random corpus for --family random "
                          "(diameter <= 2 coverage)")
    p_verify.add_argument("--json", action="store_true")
    p_verify.set_defaults(func=cmd_verify)

    p_bounds = sub.add_parser("bounds", help="complement index lower bounds for a graph file")
    p_bounds.add_argument("path")
    p_bounds.add_argument("--json", action="store_true")
    p_bounds.set_defaults(func=cmd_bounds)

    p_identities = sub.add_parser(
        "identities", help="co-index identity and bound checks for a graph file"
    )
    p_identities.add_argument("path")
    p_identities.add_argument("--json", action="store_true")
    p_identities.set_defaults(func=cmd_identities)

    return parser


def main(argv: Sequence[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        code = args.func(args)
        sys.stdout.flush()  # a buffered write to a closed pipe fails here
        return code
    except BrokenPipeError:
        # The reader is gone: point stdout at devnull so that the
        # interpreter's final flush stays silent too.
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        os.close(devnull)
        return 141
    except (ValueError, OSError) as exc:  # GraphError and FamilyError included
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except Exception as exc:
        # sys.__excepthook__ needs no import, which can fail again after a
        # MemoryError; printing can fail too, and the exit stays 3 either way
        try:
            sys.__excepthook__(type(exc), exc, exc.__traceback__)
            print(f"internal error: {exc}", file=sys.stderr)
        except Exception:
            pass
        return 3


if __name__ == "__main__":
    sys.exit(main())
