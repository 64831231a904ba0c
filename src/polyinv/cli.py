"""Batch command line front end.

Commands consume and emit JSON by default (`--format table` renders the
same data as aligned text). Polytope documents are the single
interchange format:

    { "name"?: string, "ambient_dim": int, "vertices": [[int, ...], ...] }

Facets and faces are always derived, never ingested, so any `construct`
output can be piped into any other command. Reports carry a
format_version field; output is byte-identical across runs on the same
input.

Exit codes: 0 success, 1 malformed input (the message names the
offending field), 2 domain error (violated precondition, or a result
with more digits than Python's int-to-str limit), 3 internal
consistency violation (a broken exact identity, always a bug).
"""

from __future__ import annotations

import argparse
import json
import sys
from collections import namedtuple
from collections.abc import Sequence

from .errors import DomainError, InternalConsistencyError
from .polytope import Polytope

FORMAT_VERSION = 1


class CliConfig(namedtuple(
    "CliConfig",
    "command input_path output_format t_range dilation_max family dim k n length summands name",
    defaults=(None, "json", (0, 1, 2, 3, 4), 1, None, None, None, None, 1, (), None),
)):
    """The settings of one command; immutable, and checked whenever one is
    made, by `_replace` and `_make` too."""

    __slots__ = ()

    def __new__(cls, *args, **kwargs):
        self = super().__new__(cls, *args, **kwargs)
        if self.dilation_max < 1:
            raise DomainError("--dilations must be >= 1")
        if not self.t_range:
            raise DomainError("--t-range must name at least one t")
        if any(t < 0 for t in self.t_range):
            raise DomainError("--t-range entries must be nonnegative")
        return self

    @classmethod
    def _make(cls, iterable):
        return cls(*iterable)


class _InputError(Exception):
    pass


def _parse_polytope(data: bytes) -> Polytope:
    try:
        doc = json.loads(data.decode("utf-8"))
    except (UnicodeDecodeError, json.JSONDecodeError) as e:
        raise _InputError(f"input is not valid JSON: {e}") from e
    except (RecursionError, ValueError) as e:  # too deep, or an int past the digit limit
        raise _InputError(f"input: {e}") from e
    try:
        return Polytope.from_dict(doc)
    except DomainError as e:
        raise _InputError(f"input: {e}") from e


def _read_summands(config: CliConfig) -> list[Polytope]:
    out = []
    for path in config.summands:
        try:
            with open(path, "rb") as fh:
                out.append(_parse_polytope(fh.read()))
        except OSError as e:
            raise _InputError(f"summand {path}: {e}") from e
    return out


def _render(doc: dict, fmt: str) -> bytes:
    if fmt == "json":
        return (_json(doc, "") + "\n").encode("utf-8")
    lines: list[str] = []
    _render_table(doc, lines, "")
    return ("\n".join(lines) + "\n").encode("utf-8")


_JSON_CONSTANTS = {None: "null", True: "true", False: "false"}
_quote = json.encoder.encode_basestring_ascii


def _json(value, indent: str) -> str:
    """`json.dumps(value, indent=2)` for the str-keyed dicts, lists, tuples,
    strings, ints, booleans and None of a report. The stdlib's indenting
    encoder leaves a reference cycle behind on every call; this does not."""
    if isinstance(value, str):
        return _quote(value)
    if value is None or isinstance(value, bool):
        return _JSON_CONSTANTS[value]
    if isinstance(value, int):
        return str(value)
    inner = indent + "  "
    if isinstance(value, dict):
        items, ends = [f"{_quote(k)}: {_json(v, inner)}" for k, v in value.items()], "{}"
    elif isinstance(value, (list, tuple)):
        items, ends = [str(v) if type(v) is int else _json(v, inner) for v in value], "[]"
    else:
        raise TypeError(f"Object of type {type(value).__name__} is not JSON serializable")
    if not items:
        return ends
    return f"{ends[0]}\n{inner}" + f",\n{inner}".join(items) + f"\n{indent}{ends[1]}"


def _render_table(value: dict | list, lines: list[str], prefix: str):
    """A dict's entries under their keys, a list's under `[i]`."""
    if isinstance(value, dict):
        items = value.items()
    else:
        items = ((f"[{i}]", sub) for i, sub in enumerate(value))
    for label, sub in items:
        if isinstance(sub, (dict, list)) and not _is_flat_list(sub):
            lines.append(f"{prefix}{label}:")
            _render_table(sub, lines, prefix + "  ")
        else:
            lines.append(f"{prefix}{label} = {_scalar(sub)}")


def _is_flat_list(value) -> bool:
    return isinstance(value, list) and all(
        not isinstance(x, (dict, list)) or _is_flat_list(x) for x in value
    )


def _scalar(value) -> str:
    if isinstance(value, list):
        return "[" + ", ".join(_scalar(x) for x in value) + "]"
    if value is None:
        return "-"
    if isinstance(value, bool):
        return "true" if value else "false"
    return str(value)


def _poly_header(P: Polytope) -> dict:
    doc: dict = {"format_version": FORMAT_VERSION}
    if P.name is not None:
        doc["name"] = P.name
    doc["ambient_dim"] = P.ambient_dim
    doc["dim"] = P.dim
    return doc


# each `_cmd_*` imports the modules it runs; after the first call, a lookup
def _cmd_info(P: Polytope) -> dict:
    from . import volumes as vol
    doc = _poly_header(P)
    doc["n_vertices"] = len(P.vertices)
    doc["n_facets"] = P.n_facets
    doc["f_vector"] = list(P.f_vector)
    doc["is_simple"] = P.is_simple()
    doc["is_delzant"] = P.is_delzant()
    doc["normalized_volume"] = vol.normalized_volume(P)
    doc["volume"] = str(vol.volume(P))
    if P.dim <= 2:
        # L_P(1) from the Ehrhart polynomial, which counts nothing in
        # dimension <= 2
        doc["lattice_points"] = int(sum(vol.ehrhart_polynomial(P)))
    else:
        doc["lattice_points"] = vol.lattice_points(P, 1)
    return doc


def _cmd_invariants(P: Polytope, config: CliConfig) -> dict:
    from . import invariants as inv
    # with a digit limit set, str raises at the first c_t past it: stop there
    for t in config.t_range if getattr(sys, "get_int_max_str_digits", int)() else ():
        str(inv.c_t(P, t))
    doc = _poly_header(P)
    doc.update(inv.report(P, t_range=config.t_range).to_dict())
    return doc


def _cmd_ehrhart(P: Polytope, config: CliConfig) -> dict:
    from . import volumes as vol
    # agreement at the d + 2 samples n = 0..d + 1 pins the polynomial down
    polynomial = vol.ehrhart_polynomial(P)
    samples = {0: 1}
    for n in range(1, max(P.dim + 1, config.dilation_max) + 1):
        samples[n] = vol.lattice_points(P, n)
    for n, count in samples.items():
        if sum(cf * n**j for j, cf in enumerate(polynomial)) != count:
            raise P._broken("Ehrhart polynomial disagrees with a direct count")
    doc = _poly_header(P)
    doc["samples"] = {str(n): count for n, count in samples.items()}
    doc["polynomial"] = [str(cf) for cf in polynomial]
    doc["volume"] = str(vol.volume(P))
    return doc


def _cmd_classify(P: Polytope) -> dict:
    from . import classifier as classify_mod
    doc = _poly_header(P)
    doc.update(classify_mod.classify(P).to_dict())
    return doc


def _cmd_construct(config: CliConfig, fam: str | None) -> dict:
    from . import constructions as con
    if fam is None:
        raise DomainError("construct requires --family")
    if fam == "simplex":
        if config.dim is None:
            raise DomainError("simplex requires --dim")
        P = con.simplex(config.dim)
    elif fam == "cube":
        if config.dim is None:
            raise DomainError("cube requires --dim")
        P = con.cube(config.dim, config.length)
    elif fam == "hypersimplex":
        if config.k is None or config.n is None:
            raise DomainError("hypersimplex requires --k and --n")
        P = con.hypersimplex(config.k, config.n)
    elif fam == "product":
        summands = _read_summands(config)
        if len(summands) != 2:
            raise DomainError("product requires exactly two --summand files")
        P = con.product(summands[0], summands[1])
    elif fam == "join":
        summands = _read_summands(config)
        if not summands:
            raise DomainError("join requires at least one --summand file")
        P = con.projective_join(summands)
    else:
        raise DomainError(f"unknown family {fam!r}")
    if config.name is not None:
        P.name = config.name
    return P.to_dict()


def run(config: CliConfig, input_bytes: bytes = b"") -> tuple[int, bytes]:
    """Execute one command; returns (exit_code, output bytes).

    On failure the output holds the error message. This in-process entry
    first loads every command's modules, so the modules a process holds (and
    what a tracer patches in them) do not depend on the commands run so far;
    `main` loads only its one command's.
    """
    from . import classifier, constructions, equivalence, invariants, volumes
    return _run(config, input_bytes)


def _run(config: CliConfig, input_bytes: bytes) -> tuple[int, bytes]:
    try:
        if config.command == "construct":
            doc = _cmd_construct(config, config.family)
        elif config.command == "join":
            doc = _cmd_construct(config, "join")
        else:
            P = _parse_polytope(input_bytes)
            if config.command == "info":
                doc = _cmd_info(P)
            elif config.command == "invariants":
                doc = _cmd_invariants(P, config)
            elif config.command == "ehrhart":
                doc = _cmd_ehrhart(P, config)
            elif config.command == "classify":
                doc = _cmd_classify(P)
            else:
                raise DomainError(f"unknown command {config.command!r}")
        return 0, _render(doc, config.output_format)
    except _InputError as e:
        return 1, (f"error: {e}\n").encode("utf-8")
    except DomainError as e:
        return 2, (f"error: {e}\n").encode("utf-8")
    except InternalConsistencyError as e:
        return 3, (f"internal error: {e}\n").encode("utf-8")
    except ValueError as e:
        # a result whose decimal digits pass Python's int-to-str limit
        if "integer string conversion" not in str(e):
            raise
        return 2, (
            f"error: a result has more than sys.get_int_max_str_digits() = "
            f"{sys.get_int_max_str_digits()} digits; set PYTHONINTMAXSTRDIGITS "
            f"higher, or to 0 for no limit\n"
        ).encode("utf-8")


def _t_range(text: str) -> tuple[int, ...]:
    """`t` or `lo..hi`; argparse puts "argument --t-range: " before an error."""
    ends = []
    for x in text.split("..", 1):
        try:
            ends.append(int(x))
        except ValueError:
            raise argparse.ArgumentTypeError(f"invalid int value: {x!r}") from None
    if ends[-1] < ends[0]:
        raise argparse.ArgumentTypeError(
            f"empty range {text!r}: the upper end is below the lower end"
        )
    return tuple(range(ends[0], ends[-1] + 1))


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="polyinv",
        description="Exact invariants and defect classification of lattice polytopes",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    # each dest is a CliConfig field; an option left out is None, and
    # CliConfig supplies its default
    def add_common(p, takes_input=True):
        if takes_input:
            p.add_argument(
                "input_path",
                nargs="?",
                metavar="input",
                help="polytope JSON file (default: standard input)",
            )
        p.add_argument("--format", choices=("json", "table"), dest="output_format")

    for name in ("info", "invariants", "ehrhart", "classify"):
        p = sub.add_parser(name)
        add_common(p)
        if name == "invariants":
            p.add_argument("--t-range", type=_t_range)
        if name == "ehrhart":
            p.add_argument("--dilations", type=int, dest="dilation_max", metavar="DILATIONS")

    p = sub.add_parser("construct")
    add_common(p, takes_input=False)
    p.add_argument("--family", required=True,
                   choices=("simplex", "cube", "hypersimplex", "product", "join"))
    p.add_argument("--dim", type=int)
    p.add_argument("--k", type=int)
    p.add_argument("--n", type=int)
    p.add_argument("--len", type=int, dest="length")
    p.add_argument("--summand", action="append", dest="summands")
    p.add_argument("--name")

    p = sub.add_parser("join")
    add_common(p, takes_input=False)
    p.add_argument("--summand", action="append", dest="summands")
    p.add_argument("--name")

    return parser


def main(argv: Sequence[str] | None = None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        config = CliConfig(**{k: v for k, v in vars(args).items() if v is not None})
    except DomainError as e:
        sys.stderr.write(f"error: {e}\n")
        return 2
    data = b""
    if config.command not in ("construct", "join"):
        if config.input_path:
            try:
                with open(config.input_path, "rb") as fh:
                    data = fh.read()
            except OSError as e:
                sys.stderr.write(f"error: input: {e}\n")
                return 1
        else:
            data = sys.stdin.buffer.read()
    code, out = _run(config, data)
    if code == 0:
        sys.stdout.buffer.write(out)
    else:
        sys.stderr.buffer.write(out)
    return code


if __name__ == "__main__":
    sys.exit(main())
