"""Command-line surface.

    sgq <command> --in FILE [--in2 FILE] [--out FILE]
                  [--profile m,n,r,s]
                  [--suite NAME --trials N --seed N --size m,n,r,s,q[,coeff]]

Exit status: 0 on success, 1 on a domain error (its name and locus appear in
the output document), 2 on malformed input (diagnostic on stderr).  Output
documents are canonical JSON, so identical invocations produce identical
bytes.
"""

from __future__ import annotations

import argparse
import functools
import json
import sys
from typing import Optional

from . import serialize
from .errors import SchemaError, SgqError
from .flag import BlockProfile, cosets_equal, normal_form
from .grassmannian import chart_down, chart_up, orbit_map
from .matrix import berezinian, sm_inv
from .proptest import run_suite
from .smoothness import is_smooth_at


def _parse_ints(text: str, counts, flag: str):
    parts = text.split(",")
    if len(parts) not in counts:
        raise SchemaError(f"{flag} expects {' or '.join(map(str, counts))} comma-separated integers")
    try:
        return [int(p) for p in parts]
    except ValueError as exc:
        raise SchemaError(f"{flag}: {exc}") from None


def _load(path: str):
    try:
        with open(path, "r", encoding="utf-8") as handle:
            return json.load(handle)
    except OSError as exc:
        raise SchemaError(f"cannot read {path}: {exc}") from None
    except json.JSONDecodeError as exc:
        raise SchemaError(f"{path} is not valid JSON: {exc}") from None
    except UnicodeDecodeError as exc:
        raise SchemaError(f"{path} is not UTF-8 text: {exc}") from None
    except ValueError as exc:
        # an integer literal over the interpreter's int_max_str_digits
        raise SchemaError(f"{path} holds a number too long to read: {exc}") from None
    except RecursionError:
        raise SchemaError(f"{path} nests arrays or objects too deeply to read") from None


def _emit(text: str, out_path: Optional[str]) -> None:
    if out_path:
        with open(out_path, "w", encoding="utf-8") as handle:
            handle.write(text)
    else:
        sys.stdout.write(text)


def _block_profile(values, flag: str) -> BlockProfile:
    try:
        return BlockProfile(*values)
    except ValueError as exc:
        raise SchemaError(f"{flag}: {exc}") from None


def _profile_arg(args) -> BlockProfile:
    if not args.profile:
        raise SchemaError(f"--profile is required for the {args.command} command")
    return _block_profile(_parse_ints(args.profile, (4,), "--profile"), "--profile")


def _run_ber(args):
    matrix = serialize.parse_matrix(_load(args.in_path))
    return {"result": berezinian(matrix)}


def _run_minv(args):
    matrix = serialize.parse_matrix(_load(args.in_path))
    return {"result": sm_inv(matrix)}


def _run_factor(args):
    bp = _profile_arg(args)
    matrix = serialize.parse_matrix(_load(args.in_path))
    coords, parabolic = normal_form(matrix, bp)
    return {"profile": bp, "n": coords, "p": parabolic}


def _run_coset_eq(args):
    bp = _profile_arg(args)
    if not args.in2_path:
        raise SchemaError("coset-eq requires --in2 with the second matrix")
    g1 = serialize.parse_matrix(_load(args.in_path))
    g2 = serialize.parse_matrix(_load(args.in2_path))
    return {"profile": bp, "equal": cosets_equal(g1, g2, bp)}


def _run_orbit(args):
    bp = _profile_arg(args)
    matrix = serialize.parse_matrix(_load(args.in_path))
    return {"result": orbit_map(matrix, bp)}


def _run_chart_up(args):
    bp = _profile_arg(args)
    coords = serialize.parse_ncoords(_load(args.in_path))
    if coords.profile != bp:
        raise SchemaError(f"--profile {args.profile} disagrees with the block shapes in the input")
    return {"result": chart_up(coords)}


def _run_chart_down(args):
    bp = _profile_arg(args)
    point = serialize.parse_grassmann_point(_load(args.in_path))
    if point.profile != bp:
        raise SchemaError(f"--profile {args.profile} disagrees with the profile in the input")
    return {"result": chart_down(point)}


def _run_smooth(args):
    if not args.in2_path:
        raise SchemaError("smooth requires --in2 with the rational point")
    pres = serialize.parse_presentation(_load(args.in_path))
    point = serialize.parse_rational_point(_load(args.in2_path))
    verdict = is_smooth_at(pres, point)
    even_rank, odd_rank = verdict.even_rank, verdict.odd_rank
    return {
        "smooth": verdict.smooth,
        "even_rank": even_rank,
        "odd_rank": odd_rank,
        "relative_dimension": list(verdict.relative_dimension) if verdict.smooth else None,
        "etale": verdict.smooth and verdict.relative_dimension == (0, 0),
    }


def _run_proptest(args):
    if args.trials < 0:
        raise SchemaError("--trials must be at least 0")
    size = None
    if args.size:
        values = _parse_ints(args.size, (5, 6), "--size")
        _block_profile(values[:4], "--size")
        keys = ["m", "n", "r", "s", "q", "coeff_bound"]
        size = dict(zip(keys, values))
        if size["q"] < 0:
            raise SchemaError("--size: q must be at least 0")
        if size.get("coeff_bound", 1) < 1:
            raise SchemaError("--size: coeff must be at least 1")
    return run_suite(args.suite, args.trials, args.seed, size)


_RUNNERS = {
    "ber": _run_ber,
    "minv": _run_minv,
    "factor": _run_factor,
    "coset-eq": _run_coset_eq,
    "orbit": _run_orbit,
    "chart-up": _run_chart_up,
    "chart-down": _run_chart_down,
    "smooth": _run_smooth,
    "proptest": _run_proptest,
}


@functools.cache
def _build_parser() -> argparse.ArgumentParser:
    # built once per process: parse_args leaves the parser as it found it
    parser = argparse.ArgumentParser(
        prog="sgq",
        description="Exact supercommutative algebra: factorization, Berezinian, charts, smoothness.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    needs_input = {
        "ber": "Berezinian of a square matrix",
        "minv": "inverse of a square matrix",
        "factor": "unipotent * parabolic factorization",
        "coset-eq": "whether two matrices represent the same coset",
        "orbit": "image of the standard point under a matrix",
        "chart-up": "big-cell point with the given unipotent coordinates",
        "chart-down": "unipotent coordinates of a big-cell point",
        "smooth": "smoothness verdict of a presentation at a point",
    }
    for name, help_text in needs_input.items():
        cmd = sub.add_parser(name, help=help_text)
        cmd.add_argument("--in", dest="in_path", required=True, metavar="FILE")
        cmd.add_argument("--in2", dest="in2_path", metavar="FILE")
        cmd.add_argument("--out", dest="out_path", metavar="FILE")
        cmd.add_argument("--profile", metavar="m,n,r,s")
    prop = sub.add_parser("proptest", help="run a deterministic property suite")
    prop.add_argument("--out", dest="out_path", metavar="FILE")
    prop.add_argument("--suite", required=True)
    prop.add_argument("--trials", type=int, default=100)
    prop.add_argument("--seed", type=int, default=0)
    prop.add_argument("--size", metavar="m,n,r,s,q[,coeff]")
    return parser


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        payload = _RUNNERS[args.command](args)
        # a result too long to read back raises here, before any output
        text = serialize.canonical_dumps({"command": args.command, "ok": True, **payload})
    except SchemaError as exc:
        sys.stderr.write(f"sgq {args.command}: {exc}\n")
        return 2
    except SgqError as exc:
        doc = {
            "command": args.command,
            "ok": False,
            "error": {"name": type(exc).__name__, "detail": str(exc)},
        }
        _emit(serialize.canonical_dumps(doc), args.out_path)
        return 1
    _emit(text, args.out_path)
    return 0


if __name__ == "__main__":
    sys.exit(main())
