"""Command-line interface.

Subcommands: ingest, merge, estimate, simulate, bench. Reports go to
stdout as JSON by default (CSV on request); diagnostics go to stderr.
Exit codes: 0 success, 2 malformed input or violated contract, 3
estimation impossible (no usable names).

Every subcommand accepts ``--config FILE`` pointing at a flat
``key = value`` file whose keys are long option names; explicit flags win
over config values. Outputs embed the tool version, the fully resolved
configuration and all seeds, and are byte-identical when rerun with the
same inputs. ``-v``/``--log-level`` shows the diagnostics logged below
WARNING (skip totals and the like) on stderr; it never changes an output.
"""

import argparse
import contextlib
import json
import logging
import os
import sys
from pathlib import Path

from . import __version__
from ._fmt import csv_text, dump_json
from .errors import EstimationError, InputError
from .estimator import (
    METHOD_1,
    METHOD_2,
    MethodSpec,
    _METHOD_ALIASES,
    _check_gamma_star,
    _estimate_with_bootstrap,
    _split_by_inclination,
    default_bin_edges,
)
from .experiments import SweepConfig, export_report, run_sweep
from .reference import (
    MODE_FULL_NAME,
    ReferenceTable,
    _LETTER_MODES,
    _ascii_int,
    _check_labels,
    _letter_position,
    _open_input,
    export_canonical_csv,
    filter_min_count,
    ingest_canonical_csv,
    ingest_ssa_year_files,
    letter_table,
    letter_target,
    load_target,
    merge,
    name_entropy,
)
from .simulator import GENERATOR_ID, default_beta0_grid, export_population, generate

SUBCOMMANDS = ("ingest", "merge", "estimate", "simulate", "bench")
LOG_LEVELS = ("DEBUG", "INFO", "WARNING")
# Options that shape diagnostics only, left out of the echoed configuration so
# that outputs do not depend on them.
_UNECHOED = ("func", "log_level")

_ESTIMATE_CSV_COLUMNS = [
    "method",
    "cutoff",
    "alpha",
    "beta",
    "gamma",
    "clamped",
    "attributed_female",
    "attributed_male",
    "individuals_total",
    "individuals_matched",
    "individuals_used",
    "unique_names_total",
    "unique_names_matched",
    "bootstrap_low",
    "bootstrap_high",
    "bootstrap_repeats",
    "bootstrap_seed",
]
# One row per (method, |delta| bin) of bench --figure fig4, in CSV and JSON.
_FIG4_COLUMNS = ("method", "bin_low", "bin_high", "beta_partial", "individuals", "beta_global")


def _use_color() -> bool:
    return sys.stderr.isatty() and not os.environ.get("NO_COLOR")


def _diag(message: str) -> None:
    prefix = "\x1b[31merror:\x1b[0m" if _use_color() else "error:"
    print(f"{prefix} {message}", file=sys.stderr)


def _plain(value):
    if isinstance(value, Path):
        return str(value)
    if isinstance(value, (list, tuple)):
        return [_plain(v) for v in value]
    return value


def _resolved_config(args: argparse.Namespace) -> dict:
    return {
        key: _plain(value)
        for key, value in sorted(vars(args).items())
        if key not in _UNECHOED
    }


def _envelope(args: argparse.Namespace, **payload) -> dict:
    return {"tool": "gendermix", "version": __version__, "config": _resolved_config(args), **payload}


def _sidecar_path(table_path: str | Path) -> Path:
    return Path(str(table_path) + ".meta.json")


def _write_table(table: ReferenceTable, path: str | Path) -> None:
    export_canonical_csv(table, path)
    meta = {
        "tool": "gendermix",
        "version": __version__,
        "mode": table.mode,
        "source_id": table.source_id,
        "min_count_threshold": table.min_count_threshold,
    }
    _sidecar_path(path).write_text(dump_json(meta), encoding="utf-8")


def _load_table(path: str | Path) -> ReferenceTable:
    """Read a canonical CSV; a ``<path>.meta.json`` sidecar written by this
    tool restores mode and provenance, otherwise full-name mode is assumed.
    The sidecar is read and its mode and threshold checked before the CSV
    is parsed; letter-mode keys can only be checked after."""
    sidecar = _sidecar_path(path)
    if not sidecar.exists():
        return ingest_canonical_csv(path)

    def bad(detail) -> InputError:
        return InputError(f"bad table sidecar {sidecar}: {detail}")

    with _open_input(sidecar, "table sidecar") as handle:
        try:
            meta = json.load(handle)
        except json.JSONDecodeError as exc:
            raise bad(exc) from exc
    if not isinstance(meta, dict):
        raise bad("expected a JSON object")
    threshold = meta.get("min_count_threshold", 0)
    mode = str(meta.get("mode", MODE_FULL_NAME))
    try:
        _check_labels(threshold, mode)
    except InputError as exc:
        raise bad(exc) from exc
    table = ingest_canonical_csv(path)
    try:
        return ReferenceTable._relabel(
            table,
            source_id=str(meta.get("source_id", table.source_id)),
            min_count_threshold=threshold,
            mode=mode,
        )
    except InputError as exc:
        raise bad(exc) from exc


def _parse_years(text: str | None) -> tuple[int, int] | None:
    if text is None:
        return None
    try:
        if ":" in text:
            lo, hi = text.split(":", 1)
            return (_ascii_int(lo), _ascii_int(hi))
        year = _ascii_int(text)
        return (year, year)
    except ValueError:
        raise InputError(f"bad --years value {text!r}, expected YYYY or YYYY:YYYY")


def _count_option(text: str) -> int:
    """The type of every integer option: a nonnegative integer written in
    ASCII digits, else a usage error (exit 2)."""
    with contextlib.suppress(ValueError):
        value = _ascii_int(text)
        if value >= 0:
            return value
    raise argparse.ArgumentTypeError(f"expected a nonnegative integer in ASCII digits, got {text!r}")


def _gamma_star_option(text: str) -> float:
    """The type of ``--gamma-star``: a number strictly inside (-1, 1) for
    every method, as ``ggem`` requires, else a usage error (exit 2)."""
    try:
        value = float(text)
        _check_gamma_star(value)
    except (ValueError, InputError):
        raise argparse.ArgumentTypeError(f"expected a number strictly inside (-1, 1), got {text!r}") from None
    return value


def cmd_ingest(args: argparse.Namespace) -> None:
    if args.format == "canonical":
        if args.years is not None:
            raise InputError("--years applies to --format ssa only")
        table = ingest_canonical_csv(
            args.input, source_id=args.source_id, first_token_only=args.first_token
        )
    else:
        table = ingest_ssa_year_files(
            args.input,
            years=_parse_years(args.years),
            source_id=args.source_id,
            first_token_only=args.first_token,
        )
    if args.min_count > 0:
        table = filter_min_count(table, args.min_count)
    if args.letters != "none":
        table = letter_table(table, args.letters)
    _write_table(table, args.output)
    summary = _envelope(
        args,
        output=str(args.output),
        table={
            "mode": table.mode,
            "source_id": table.source_id,
            "unique_names": len(table),
            "individuals": table.total_individuals,
            "min_count_threshold": table.min_count_threshold,
            "entropy_bits": name_entropy(table),
        },
    )
    sys.stdout.write(dump_json(summary))


def cmd_merge(args: argparse.Namespace) -> None:
    tables = [_load_table(path) for path in args.input]
    merged = merge(tables)
    _write_table(merged, args.output)
    summary = _envelope(
        args,
        output=str(args.output),
        table={
            "mode": merged.mode,
            "source_id": merged.source_id,
            "unique_names": len(merged),
            "individuals": merged.total_individuals,
        },
    )
    sys.stdout.write(dump_json(summary))


def _estimate_csv(report_dict: dict, config: dict) -> str:
    comments = "".join(f"# {key}={value}\n" for key, value in sorted(config.items()))
    row = dict.fromkeys(_ESTIMATE_CSV_COLUMNS)  # bootstrap_* stay empty without --bootstrap
    row.update(report_dict, **report_dict["coverage"])
    row.update((f"bootstrap_{key}", value) for key, value in (report_dict["bootstrap"] or {}).items())
    return comments + csv_text(_ESTIMATE_CSV_COLUMNS, [row])


def cmd_estimate(args: argparse.Namespace) -> None:
    reference = _load_table(args.reference)
    target = load_target(args.target, fmt=args.target_format)
    position = _letter_position(reference.mode)
    if position is not None:
        target = letter_target(target, position)
    method = _METHOD_ALIASES[args.method]
    if method in (METHOD_1, METHOD_2) and args.cutoff is None:
        raise InputError(f"--cutoff is required for {args.method}")
    spec = MethodSpec(method, args.cutoff, args.gamma_star)
    if args.bootstrap > 0:
        report = _estimate_with_bootstrap(spec, target, reference, args.bootstrap, args.seed)
        degenerate = report.bootstrap_interval.degenerate
        if degenerate:
            print(f"note: {degenerate} degenerate bootstrap resample(s) skipped", file=sys.stderr)
    else:
        report = spec.run(target, reference)
    if args.output_format == "json":
        sys.stdout.write(dump_json(_envelope(args, report=report.to_dict())))
    else:
        sys.stdout.write(_estimate_csv(report.to_dict(), _resolved_config(args)))


def cmd_simulate(args: argparse.Namespace) -> None:
    reference = _load_table(args.reference)
    population = generate(reference, args.beta0, args.size, args.sampling, args.seed)
    out = Path(args.output)
    truth_path = out.with_name(out.stem + ".truth.csv")
    meta_path = out.with_name(out.stem + ".meta.json")
    export_population(population, out, truth_path)
    meta = _envelope(
        args,
        generator=GENERATOR_ID,
        beta_true=population.beta_true,
        gamma_true=population.gamma_true,
        unique_names=len(population.entries),
        files={"target": str(out), "truth": str(truth_path)},
    )
    meta_path.write_text(dump_json(meta), encoding="utf-8")
    sys.stdout.write(dump_json(meta))


def _parse_grid(text: str) -> tuple[float, ...]:
    if text == "default":
        return tuple(default_beta0_grid())
    if "," in text:
        try:
            return tuple(float(v) for v in text.split(",") if v.strip())
        except ValueError:
            raise InputError(f"bad grid value in {text!r}")
    path = Path(text)
    if path.exists():
        with _open_input(path, "grid file") as handle:
            lines = handle.read().splitlines()
        values = []
        for line_num, line in enumerate(lines, 1):
            line = line.strip()
            if not line or line.startswith("#"):
                continue
            try:
                values.append(float(line))
            except ValueError:
                raise InputError(f"{path}: line {line_num}: bad grid value {line!r}")
        return tuple(values)
    try:
        return (float(text),)
    except ValueError:
        raise InputError(f"--grid must be 'default', a comma list, or a file; got {text!r}")


def _parse_methods(text: str, gamma_star: float) -> tuple[MethodSpec, ...]:
    return tuple(
        MethodSpec.parse(item, gamma_star=gamma_star)
        for item in text.split(",")
        if item.strip()
    )


_DEFAULT_METHODS = "ggem,m1:0.5,m2:0.9"
# The methods each --figure preset runs (fig4 on its own path) and echoes.
_FIGURE_METHODS = {
    "fig3": "m1:0.5,m1:0.7,m1:0.9,m2:0.5,m2:0.7,m2:0.9,ggem",
    "fig4": "m0,ggem",
    "fig6": "m0,ggem",
}


def _bench_fig4(args: argparse.Namespace) -> None:
    build = _load_table(args.build_ref)
    analyze = _load_table(args.analyze_ref) if args.analyze_ref else build
    population = generate(build, args.beta0, args.size, args.sampling, args.seed)
    target = population.to_target()
    edges = default_bin_edges(args.bins)
    rows = []
    for spec in _parse_methods(args.methods, args.gamma_star):
        beta_global, parts = _split_by_inclination(spec, target, analyze, edges)
        for part in parts:
            values = (spec.method, part.low, part.high, part.beta_partial, part.individuals, beta_global)
            rows.append(dict(zip(_FIG4_COLUMNS, values)))
    if args.output_format == "csv":
        text = csv_text(_FIG4_COLUMNS, rows)
    else:
        text = dump_json(_envelope(args, generator=GENERATOR_ID, beta_true=population.beta_true, rows=rows))
    out = Path(args.output)
    out.write_text(text, encoding="utf-8", newline="")
    sys.stdout.write(dump_json(_envelope(args, output=str(out), rows=len(rows))))


def cmd_bench(args: argparse.Namespace) -> None:
    if args.methods is None:  # resolved before the configuration is echoed
        args.methods = _FIGURE_METHODS.get(args.figure, _DEFAULT_METHODS)
    elif args.figure is not None:
        raise InputError(f"--methods cannot be combined with --figure {args.figure}, which fixes the methods")
    if args.figure == "fig4" and args.mode != "names":
        raise InputError("--figure fig4 runs on full names only; it takes no --mode initial or --mode last")
    if args.figure == "fig6" and args.mode == "names":
        raise InputError("--figure fig6 needs --mode initial or --mode last")
    if args.figure == "fig4":
        _bench_fig4(args)
        return
    build = _load_table(args.build_ref)
    analyze = _load_table(args.analyze_ref) if args.analyze_ref else None
    config = SweepConfig(
        build_reference=build,
        analyze_reference=analyze,
        methods=_parse_methods(args.methods, args.gamma_star),
        beta0_grid=_parse_grid(args.grid),
        repeats=args.repeats,
        population_size=args.size,
        sampling=args.sampling,
        seed=args.seed,
        mode=_LETTER_MODES.get(args.mode, MODE_FULL_NAME),
    )
    report = run_sweep(config)
    report.provenance["tool"] = "gendermix"
    report.provenance["version"] = __version__
    report.provenance["config"] = _resolved_config(args)
    export_report(report, args.output_format, args.output)
    summary = _envelope(args, output=str(args.output), cells=len(report.cells))
    sys.stdout.write(dump_json(summary))


def _add_common(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--config", metavar="FILE", help="flat key = value config file; flags win")
    parser.add_argument(
        "-v", dest="log_level", action="store_const", const="INFO",
        help="show INFO diagnostics on stderr (same as --log-level INFO)",
    )
    parser.add_argument(
        "--log-level", choices=LOG_LEVELS, help="lowest level of diagnostics shown (default WARNING)"
    )


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="gendermix",
        description="Estimate the female/male composition of a group from first names.",
    )
    parser.add_argument("--version", action="version", version=f"gendermix {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("ingest", help="build a reference table from raw name data")
    p.add_argument("--format", choices=("canonical", "ssa"), default="canonical")
    p.add_argument("--input", required=True, type=Path, help="CSV file or SSA directory")
    p.add_argument("--years", help="SSA year or inclusive range YYYY:YYYY")
    p.add_argument("--min-count", type=_count_option, default=100, help="drop names below this total (0 disables)")
    p.add_argument("--letters", choices=("none", "initial", "last"), default="none")
    p.add_argument("--first-token", action="store_true", help="keep only the first token of each name")
    p.add_argument("--source-id", help="label recorded in the table metadata")
    p.add_argument("--output", required=True, type=Path)
    _add_common(p)
    p.set_defaults(func=cmd_ingest)

    p = sub.add_parser("merge", help="pool several same-mode reference tables")
    p.add_argument("--input", required=True, nargs="+", type=Path)
    p.add_argument("--output", required=True, type=Path)
    _add_common(p)
    p.set_defaults(func=cmd_merge)

    p = sub.add_parser("estimate", help="estimate the composition of a target list")
    p.add_argument("--reference", required=True, type=Path)
    p.add_argument("--target", required=True, type=Path)
    p.add_argument("--target-format", choices=("csv", "names"), default="csv")
    p.add_argument("--method", default="ggem", choices=("ggem", "m0", "m1", "m2", "method0", "method1", "method2"))
    p.add_argument("--cutoff", type=float, help="probability cutoff for m1/m2")
    p.add_argument("--gamma-star", type=_gamma_star_option, default=0.0, help="reference imbalance for ggem")
    p.add_argument("--bootstrap", type=_count_option, default=0, metavar="N", help="bootstrap repeats (0 = off)")
    p.add_argument("--seed", type=_count_option, default=0)
    p.add_argument("--format", dest="output_format", choices=("json", "csv"), default="json")
    p.add_argument("--json", dest="output_format", action="store_const", const="json")
    p.add_argument("--csv", dest="output_format", action="store_const", const="csv")
    _add_common(p)
    p.set_defaults(func=cmd_estimate)

    p = sub.add_parser("simulate", help="draw a synthetic population with known truth")
    p.add_argument("--reference", required=True, type=Path)
    p.add_argument("--beta0", required=True, type=float, help="true female fraction")
    p.add_argument("--size", required=True, type=_count_option)
    p.add_argument("--sampling", choices=("natural", "uniform"), default="natural")
    p.add_argument("--seed", type=_count_option, default=0)
    p.add_argument("--output", required=True, type=Path, help="target CSV; truth and meta written alongside")
    _add_common(p)
    p.set_defaults(func=cmd_simulate)

    p = sub.add_parser("bench", help="benchmark estimators on synthetic populations")
    p.add_argument("--build-ref", required=True, type=Path, help="reference used to draw populations")
    p.add_argument("--analyze-ref", type=Path, help="reference used to estimate (default: build-ref)")
    p.add_argument(
        "--methods", help=f"comma list (default {_DEFAULT_METHODS}); not with --figure, which fixes them"
    )
    p.add_argument("--grid", default="default", help="'default', comma list, or file of beta0 values")
    p.add_argument("--repeats", type=_count_option, default=1000)
    p.add_argument("--size", type=_count_option, default=10_000)
    p.add_argument("--sampling", choices=("natural", "uniform"), default="natural")
    p.add_argument("--seed", type=_count_option, default=0)
    p.add_argument("--mode", choices=("names", "initial", "last"), default="names")
    p.add_argument("--gamma-star", type=_gamma_star_option, default=0.0)
    p.add_argument("--figure", choices=("fig3", "fig4", "fig6"), help="convenience presets")
    p.add_argument("--beta0", type=float, default=0.04, help="true composition for --figure fig4")
    p.add_argument("--bins", type=_count_option, default=10, help="|delta| bins for --figure fig4")
    p.add_argument("--format", dest="output_format", choices=("json", "csv"), default="json")
    p.add_argument("--output", required=True, type=Path)
    _add_common(p)
    p.set_defaults(func=cmd_bench)

    return parser


def _read_config_pairs(path: str) -> list[tuple[str, str]]:
    with _open_input(path, "config file") as handle:
        lines = handle.read().splitlines()
    pairs = []
    for line_num, line in enumerate(lines, 1):
        line = line.strip()
        if not line or line.startswith(("#", ";")):
            continue
        if "=" not in line:
            raise InputError(f"{path}: line {line_num}: expected key = value")
        key, _, value = line.partition("=")
        pairs.append((key.strip(), value.strip()))
    return pairs


def _inject_config(argv: list[str]) -> list[str]:
    """Expand ``--config FILE`` into flags placed before the user's own
    flags, so explicit flags always win."""
    if not argv or argv[0] not in SUBCOMMANDS:
        return argv
    path = None
    for i, token in enumerate(argv):
        if token == "--config" and i + 1 < len(argv):
            path = argv[i + 1]
            break
        if token.startswith("--config="):
            path = token.split("=", 1)[1]
            break
    if path is None:
        return argv
    injected: list[str] = []
    for key, value in _read_config_pairs(path):
        flag = "--" + key.replace("_", "-")
        if value.lower() == "true":
            injected.append(flag)
        elif value.lower() == "false":
            continue
        else:
            injected.extend([flag] + value.split())
    return [argv[0]] + injected + argv[1:]


@contextlib.contextmanager
def _package_log_level(level: str | None):
    """Run with the ``gendermix`` logger at ``level``, then restore it;
    None leaves logging untouched."""
    if level is None:
        yield
        return
    logger = logging.getLogger("gendermix")
    saved = logger.level
    logger.setLevel(level)
    try:
        yield
    finally:
        logger.setLevel(saved)


def main(argv: list[str] | None = None) -> int:
    logging.basicConfig(stream=sys.stderr, format="%(levelname)s %(message)s")
    argv = list(sys.argv[1:] if argv is None else argv)
    parser = build_parser()
    try:
        args = parser.parse_args(_inject_config(argv))
        with _package_log_level(args.log_level):
            args.func(args)
    except SystemExit as exc:  # argparse errors already printed usage
        return int(exc.code or 0)
    except InputError as exc:
        _diag(str(exc))
        return 2
    except OSError as exc:  # an output that cannot be written, say; reads raise InputError
        _diag(str(exc))
        return 2
    except EstimationError as exc:
        _diag(str(exc))
        return 3
    return 0


def entrypoint() -> None:
    sys.exit(main())


if __name__ == "__main__":
    entrypoint()
