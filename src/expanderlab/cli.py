"""Command-line front end: reproducible batch experiments over edge-list files.

Commands: gen, measure, percolate, sweep, trim, search, probe, balls, tower,
rerun. Every file-writing run also writes a manifest (full argv, SHA-256 of
each output, and the software environment), and `rerun <manifest>` replays it
and checks that every output reproduces its recorded SHA-256.

Exit codes: 1 usage, 2 input data, 3 computation refused, 4 internal error,
5 rerun output mismatch.
Floats in all outputs are printed at 9 significant digits. An exact rational
is written as its numerator and denominator. An unbounded girth (a forest) or
diameter (a disconnected graph) is written as JSON null or an empty CSV cell
plus a boolean flag; only probe.csv writes `unbounded` instead.
"""

from __future__ import annotations

import argparse
import dataclasses
import hashlib
import json
import os
import platform
import sys
from fractions import Fraction
from pathlib import Path
from typing import Optional

import numpy

from . import __version__, builders, matgroups, metrics, percolation, search
from .errors import ComputationRefused
from .graphcore import load_graph, save_graph
from .metrics import UNBOUNDED

EXIT_USAGE = 1
EXIT_INPUT = 2
EXIT_REFUSED = 3
EXIT_INTERNAL = 4
EXIT_MISMATCH = 5


class _Parser(argparse.ArgumentParser):
    def error(self, message):  # usage errors exit 1, not argparse's default 2
        self.print_usage(sys.stderr)
        self.exit(EXIT_USAGE, f"{self.prog}: error: {message}\n")


def _fmt(x) -> str:
    """Canonical CSV cell for one value."""
    if x is None:
        return ""
    if isinstance(x, bool):
        return "true" if x else "false"
    if isinstance(x, float):
        return f"{x:.9g}"
    if isinstance(x, Fraction):
        return f"{x.numerator}/{x.denominator}"
    return str(x)


def _split_list(text: str) -> list[str]:
    """The entries of a comma-separated option, stripped; blank entries are ignored."""
    return [s.strip() for s in text.split(",") if s.strip()]


def _round9(obj):
    """Round every float in a JSON-ready structure to 9 significant digits."""
    if isinstance(obj, float):
        return float(f"{obj:.9g}")
    if isinstance(obj, dict):
        return {k: _round9(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_round9(v) for v in obj]
    return obj


def _write_json(path: Path, obj) -> None:
    path.write_text(json.dumps(_round9(obj), indent=2) + "\n", encoding="ascii")


def _write_csv(path: Path, header: list[str], rows: list[list]) -> None:
    lines = [",".join(header) + "\n"]
    lines.extend(",".join(_fmt(x) for x in row) + "\n" for row in rows)
    path.write_text("".join(lines), encoding="ascii", newline="")


def _sha256(path: Path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


def _environment() -> dict:
    """What a replay on another machine may differ in: versions, platform, BLAS threads."""
    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "platform": platform.platform(),
        "OPENBLAS_NUM_THREADS": os.environ.get("OPENBLAS_NUM_THREADS"),
        "OMP_NUM_THREADS": os.environ.get("OMP_NUM_THREADS"),
    }


def _finish(args, outputs: list[Path], manifest_path: Optional[Path] = None) -> int:
    """Write the run's manifest, by default beside its first output."""
    manifest = {
        "tool": "expanderlab",
        "version": __version__,
        "command": args.command,
        "argv": list(args.full_argv),
        "outputs": {str(p): _sha256(p) for p in outputs},
        "environment": _environment(),
    }
    manifest_path = manifest_path or Path(str(outputs[0]) + ".manifest.json")
    manifest_path.write_text(json.dumps(manifest, indent=2) + "\n", encoding="ascii")
    return 0


def _fields(cls) -> list[str]:
    """A result dataclass's field names: the columns of its CSV rows."""
    return [f.name for f in dataclasses.fields(cls)]


def _unbounded_cells(value) -> list:
    """[value, False], or [None, True] for UNBOUNDED."""
    unbounded = value == UNBOUNDED
    return [None if unbounded else value, unbounded]


def _fraction_cells(x: Optional[Fraction]) -> list:
    """[numerator, denominator], or [None, None] when there is no value."""
    return [None, None] if x is None else [x.numerator, x.denominator]


# --- command handlers -----------------------------------------------------


def _cmd_gen(args) -> int:
    spec = builders.parse_family_spec(args.spec)
    result = builders.build_family(spec)
    out = Path(args.output)
    save_graph(result.graph, out)
    outputs = [out]
    if result.elements is not None:
        label_path = Path(str(out) + ".labels")
        label_path.write_text(
            "".join(f"{i} {' '.join(map(str, e))}\n" for i, e in enumerate(result.elements)),
            encoding="ascii",
            newline="",
        )
        outputs.append(label_path)
    return _finish(args, outputs)


def _cmd_measure(args) -> int:
    rep = metrics.measure(load_graph(args.graph), exact_max=args.exact_max)
    keys = [
        "n", "m", "max_degree", "h_exact_num", "h_exact_den", "conductance_num",
        "conductance_den", "lambda2", "rho_star", "gap", "girth", "girth_unbounded",
        "diameter", "diameter_disconnected",
    ]
    values = [
        rep.n, rep.m, rep.max_degree, *_fraction_cells(rep.h_exact),
        *_fraction_cells(rep.conductance), rep.lambda2, rep.rho_star, rep.gap,
        *_unbounded_cells(rep.girth), *_unbounded_cells(rep.diameter),
    ]
    payload = dict(zip(keys, values, strict=True))
    if args.output is None:
        sys.stdout.write(json.dumps(_round9(payload), indent=2) + "\n")
        return 0
    out = Path(args.output)
    _write_json(out, payload)
    return _finish(args, [out])


def _cmd_percolate(args) -> int:
    g = load_graph(args.graph)
    sample = percolation.percolate(g, args.p, args.seed)
    summary = percolation.component_summary(sample)
    header = ["p", "seed", "retained_edges", "components", "giant_fraction"]
    row = [args.p, args.seed, sample.m, summary.count, summary.giant_fraction]
    if args.check_condition:
        check = percolation.condition_check(g, args.p)
        header += ["condition_value", "condition_ok"]
        row += [check.value, check.satisfied]
    out = Path(args.output)
    _write_csv(out, header, [row])
    outputs = [out]
    if args.keep_out:
        keep_path = Path(args.keep_out)
        save_graph(sample, keep_path)
        outputs.append(keep_path)
    return _finish(args, outputs)


def _cmd_sweep(args) -> int:
    g = load_graph(args.graph)
    grid = [float(x) for x in _split_list(args.grid)]
    rows = percolation.percolation_sweep(g, grid, args.seeds_per, args.seed)
    out = Path(args.output)
    _write_csv(out, _fields(percolation.SweepRow), [dataclasses.astuple(r) for r in rows])
    return _finish(args, [out])


def _cmd_trim(args) -> int:
    g = load_graph(args.graph)
    trimmed = search.trim_to_girth(g, args.girth)
    out = Path(args.output)
    save_graph(trimmed, out)
    return _finish(args, [out])


def _cmd_search(args) -> int:
    g = load_graph(args.graph)
    result = search.search_spanning_subexpander(
        g,
        ratio=args.ratio,
        girth_target=args.girth,
        strategy=args.strategy,
        budget=args.budget,
        seed=args.seed,
    )
    out = Path(args.output)
    save_graph(result.graph, out)
    outputs = [out]
    if args.report:
        keys = [
            "strategy", "seed", "budget", "kept_edges", "girth_achieved", "girth_unbounded",
            "gap", "h_exact_num", "h_exact_den", "connected", "iterations_used",
        ]
        values = [
            result.strategy, result.seed, args.budget, result.graph.m,
            *_unbounded_cells(result.girth_achieved), result.gap,
            *_fraction_cells(result.h_exact), result.connected, result.iterations_used,
        ]
        report_path = Path(args.report)
        _write_json(report_path, dict(zip(keys, values, strict=True)))
        outputs.append(report_path)
    return _finish(args, outputs)


def _cmd_probe(args) -> int:
    specs = [builders.parse_family_spec(s) for s in args.family]
    ratios = [float(x) for x in _split_list(args.ratios)]
    strategies = _split_list(args.strategies)
    if strategies == ["all"]:
        strategies = list(search.STRATEGIES)
    records, summaries = search.conjecture_probe(
        specs,
        ratios,
        strategies=strategies,
        budget=args.budget,
        seed=args.seed,
    )
    out_dir = Path(args.out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    csv_path = out_dir / "probe.csv"
    header = _fields(search.ProbeRecord)
    rows = [
        [
            "unbounded" if name == "best_girth" and value == UNBOUNDED else value
            for name, value in zip(header, dataclasses.astuple(r))
        ]
        for r in records
    ]
    _write_csv(csv_path, header, rows)
    json_path = out_dir / "probe_summary.json"
    _write_json(
        json_path,
        {
            "budget": args.budget,
            "seed": args.seed,
            "strategies": strategies,
            "families": [dataclasses.asdict(s) for s in summaries],
        },
    )
    return _finish(args, [csv_path, json_path], manifest_path=out_dir / "manifest.json")


def _cmd_balls(args) -> int:
    g = load_graph(args.graph)
    rows, summary = metrics.ball_expansion_profile(g, args.radius)
    out = Path(args.output)
    # one row per ball, then one summary row
    row_fields = _fields(metrics.BallProfileRow)
    summary_fields = _fields(metrics.BallProfileSummary)
    csv_rows = [["ball", *dataclasses.astuple(r), *[None] * len(summary_fields)] for r in rows]
    csv_rows.append(
        ["summary", *[None] * len(row_fields), *(getattr(summary, f) for f in summary_fields)]
    )
    _write_csv(out, ["kind", *row_fields, *summary_fields], csv_rows)
    return _finish(args, [out])


def _cmd_tower(args) -> int:
    rows = matgroups.girth_tower_report(args.p, args.levels, recipe=args.recipe)
    out = Path(args.output)
    header = _fields(matgroups.TowerRow)
    at = header.index("girth")
    header.insert(at + 1, "girth_unbounded")
    csv_rows = []
    for r in rows:
        cells = list(dataclasses.astuple(r))
        cells[at : at + 1] = _unbounded_cells(r.girth)
        csv_rows.append(cells)
    _write_csv(out, header, csv_rows)
    return _finish(args, [out])


def _cmd_rerun(args) -> int:
    manifest = json.loads(Path(args.manifest).read_text(encoding="ascii"))
    fields = manifest if isinstance(manifest, dict) else {}
    argv, expected = fields.get("argv"), fields.get("outputs")
    if isinstance(argv, list) and argv[:1] == ["rerun"]:
        raise ValueError(f"manifest {args.manifest} replays rerun, which would recurse")
    if not (isinstance(argv, list) and argv and isinstance(expected, dict) and expected) or not all(
        isinstance(x, str) for x in [*argv, *expected.values()]
    ):
        raise ValueError(f"manifest {args.manifest} has no argv to replay or no outputs to check")
    try:
        code = main(argv)
    except SystemExit as exc:  # argparse exits 0 after --help or --version, 1 on a usage error
        if exc.code:
            raise
        raise ValueError(f"manifest {args.manifest} argv runs no command") from None
    if code != 0:
        return code
    mismatched = [p for p, digest in expected.items() if _sha256(Path(p)) != digest]
    for p in mismatched:
        print(f"expanderlab: rerun output differs from manifest: {p}", file=sys.stderr)
    return EXIT_MISMATCH if mismatched else 0


# --- parser ----------------------------------------------------------------


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="expanderlab", description=__doc__)
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True)
    budget_help = "cap on percolate-repair's augment additions; trim ignores it"

    p = sub.add_parser("gen", help="build a graph from a family spec")
    p.add_argument("spec", help="family spec, e.g. random-regular:n=64,d=4,seed=1")
    p.add_argument("-o", "--output", required=True, help="edge-list output path")
    p.set_defaults(func=_cmd_gen)

    p = sub.add_parser("measure", help="full metrics report for a graph file")
    p.add_argument("graph")
    p.add_argument("--exact-max", type=int, default=metrics.DEFAULT_EXACT_MAX)
    p.add_argument("-o", "--output", default=None, help="JSON path (default stdout)")
    p.set_defaults(func=_cmd_measure)

    p = sub.add_parser("percolate", help="one Bernoulli bond percolation sample")
    p.add_argument("graph")
    p.add_argument("-p", type=float, required=True)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--check-condition", action="store_true")
    p.add_argument("--keep-out", default=None, help="write retained subgraph here")
    p.add_argument("-o", "--output", required=True, help="CSV output path")
    p.set_defaults(func=_cmd_percolate)

    p = sub.add_parser("sweep", help="Monte Carlo giant-component sweep over a p grid")
    p.add_argument("graph")
    p.add_argument("--grid", required=True, help="comma-separated p values")
    p.add_argument("--seeds-per", type=int, default=10)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("-o", "--output", required=True)
    p.set_defaults(func=_cmd_sweep)

    p = sub.add_parser("trim", help="delete shortest-cycle edges until girth >= target")
    p.add_argument("graph")
    p.add_argument("--girth", type=int, required=True)
    p.add_argument("-o", "--output", required=True)
    p.set_defaults(func=_cmd_trim)

    p = sub.add_parser("search", help="spanning sub-expander search, one strategy")
    p.add_argument("graph")
    p.add_argument("--ratio", type=float, default=None, help="girth target = ceil(ratio*diameter)")
    p.add_argument("--girth", type=int, default=None, help="absolute girth target")
    p.add_argument("--strategy", choices=search.STRATEGIES, default="trim")
    p.add_argument("--budget", type=int, default=10_000, help=budget_help)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("-o", "--output", required=True, help="edge-list of the kept subgraph")
    p.add_argument("--report", default=None, help="JSON report path")
    p.set_defaults(func=_cmd_search)

    p = sub.add_parser("probe", help="conjecture probe over families x ratios x strategies")
    p.add_argument("--family", action="append", required=True, help="family spec (repeatable)")
    p.add_argument("--ratios", required=True, help="comma-separated girth/diameter ratios")
    p.add_argument("--strategies", default="all")
    p.add_argument("--budget", type=int, default=500, help=budget_help)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out-dir", required=True)
    p.set_defaults(func=_cmd_probe)

    p = sub.add_parser("balls", help="induced-ball expansion profile")
    p.add_argument("graph")
    p.add_argument("--radius", type=int, required=True)
    p.add_argument("-o", "--output", required=True)
    p.set_defaults(func=_cmd_balls)

    p = sub.add_parser("tower", help="Cayley girth/gap tower over p^1..p^levels")
    p.add_argument("--p", type=int, required=True)
    p.add_argument("--levels", type=int, required=True)
    p.add_argument("--recipe", default="sanov")
    p.add_argument("-o", "--output", required=True)
    p.set_defaults(func=_cmd_tower)

    p = sub.add_parser("rerun", help="replay a run from its manifest and check output hashes")
    p.add_argument("manifest")
    p.set_defaults(func=_cmd_rerun)

    return parser


def main(argv=None) -> int:
    if argv is None:
        argv = sys.argv[1:]
    parser = build_parser()
    args = parser.parse_args(argv)
    args.full_argv = list(argv)
    try:
        return args.func(args)
    except (ValueError, OSError) as exc:
        print(f"expanderlab: input error: {exc}", file=sys.stderr)
        return EXIT_INPUT
    except ComputationRefused as exc:
        print(f"expanderlab: refused: {exc}", file=sys.stderr)
        return EXIT_REFUSED
    except Exception as exc:  # internal failure taxonomy for scripts
        print(f"expanderlab: internal error: {exc!r}", file=sys.stderr)
        return EXIT_INTERNAL


if __name__ == "__main__":
    sys.exit(main())
