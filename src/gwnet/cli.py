"""Command line surface. Thin adapters only: every command parses flags,
calls the library, and serializes the result.

Exit codes: 0 success, 1 validation or input error, 2 when a solver did
not converge (outputs are still written, flagged in the payload).
"""
from __future__ import annotations

import argparse
import csv
import json
import sys
from pathlib import Path

import numpy as np

from .networks import (GwnetError, MeasureNetwork, ParseError, _format_for,
                       read_network, write_network)
from .gw import GwParams, solve_gw
from .geodesics import OutOfRangeError, evaluate, geodesic_aligned
from .frechet import FrechetParams, compressed_average, frechet_mean
from .analysis import (featurize, project_along_component, tangent_pca,
                       vectorize_at_base)
from .experiments import (SbmSpec, asymmetry_sweep, default_sbm_spec,
                          generate_sbm, sbm_compression_experiment,
                          support_size_sweep)


def _parse_numbers(text: str, kind=float) -> list:
    try:
        return [kind(x) for x in text.split(",") if x.strip() != ""]
    except ValueError:
        raise ParseError(f"expected comma separated numbers, got {text!r}") \
            from None


def _parse_matrix(text: str) -> np.ndarray:
    rows = [_parse_numbers(row) for row in text.split(";")]
    if len({len(row) for row in rows}) > 1:
        raise ParseError(f"matrix rows differ in length: {text!r}")
    return np.array(rows)


def _write_rows(rows: list[dict], path, headers: list[str]):
    """Write rows as csv when the name ends in ".csv", else as json."""
    if _format_for(path) == "json":
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(rows, fh, indent=1)
            fh.write("\n")
    else:
        with open(path, "w", encoding="utf-8", newline="") as fh:
            writer = csv.DictWriter(fh, fieldnames=headers)
            writer.writeheader()
            writer.writerows(rows)


def _json_out(path) -> None:
    """Refuse a .csv name for an output that has only a JSON form."""
    if _format_for(path) == "csv":
        raise GwnetError(f"{path}: this output is JSON only; name a file "
                         "that does not end in .csv")


def _load_inputs(paths: list[str], outputs: tuple[Path, ...] = ()
                 ) -> list[tuple[str, MeasureNetwork]]:
    """Expand directories to their files, in name order, skipping names
    that start with "." and the command's own outputs; read every file as
    a network."""
    outputs = {q.resolve() for q in outputs}
    files: list[Path] = []
    for p in paths:
        p = Path(p)
        if p.is_dir():
            files += sorted(q for q in p.iterdir()
                            if q.is_file() and not q.name.startswith(".")
                            and q.resolve() not in outputs)
        else:
            files.append(p)
    if not files:
        raise GwnetError("no input networks found")
    named = []
    for f in files:
        try:
            named.append((f.stem, read_network(f)))
        except ParseError as exc:
            raise ParseError(f"{f}: {exc}") from exc
    return named


def _gw_params(args) -> GwParams:
    return GwParams(max_outer_iters=args.max_iters,
                    restarts=args.restarts, rng_seed=args.seed)


def _coupling_payload(coupling, report) -> dict:
    return {"matrix": coupling.matrix.tolist(), "cost": report.cost,
            "gwDistance": report.gw_distance, "iterations": report.iterations,
            "converged": report.converged}


# --------------------------------------------------------------- commands

def _cmd_distance(args) -> int:
    if args.out:
        _json_out(args.out)
    X = read_network(args.x)
    Y = read_network(args.y)
    coupling, report = solve_gw(X, Y, _gw_params(args))
    print(f"gwDistance {report.gw_distance:.9f}")
    if args.out:
        with open(args.out, "w", encoding="utf-8") as fh:
            fh.write(json.dumps(_coupling_payload(coupling, report)) + "\n")
    return 0 if report.converged else 2


def _cmd_geodesic(args) -> int:
    ts = _parse_numbers(args.ts)
    if not all(0.0 <= t <= 1.0 for t in ts):
        raise OutOfRangeError(f"--ts {args.ts}: every t must lie in [0, 1]")
    X = read_network(args.x)
    Y = read_network(args.y)
    rep = geodesic_aligned(X, Y, _gw_params(args))
    outdir = Path(args.out or ".")
    outdir.mkdir(parents=True, exist_ok=True)
    files = []
    for t in ts:
        net = evaluate(rep, t)
        name = f"t_{t:.4f}.{args.format}"
        write_network(net, outdir / name)
        files.append(name)
    manifest = {"ts": ts, "files": files, "halfLength": rep.half_length,
                "size": rep.size}
    if args.mask_threshold is not None:
        mu = rep.pair.mu_hat
        manifest["lowWeightMask"] = (mu < args.mask_threshold * mu.max()) \
            .tolist()
    with open(outdir / "manifest.json", "w", encoding="utf-8") as fh:
        fh.write(json.dumps(manifest) + "\n")
    print(f"halfLength {rep.half_length:.9f} size {rep.size}")
    return 0


def _cmd_mean(args) -> int:
    out = Path(args.out or "mean.json")
    trace_path = out.with_suffix(out.suffix + ".trace.csv")
    if args.seed_net and args.seed_size is not None:
        raise GwnetError("--seed-net and --seed-size exclude each other")
    # a directory that holds an earlier run's outputs still means its inputs
    nets = [net for _, net in _load_inputs(args.inputs, (out, trace_path))]
    seed = read_network(args.seed_net) if args.seed_net else args.seed_size
    params = FrechetParams(max_iters=args.max_iters, compress=args.compress,
                           gw=GwParams(restarts=args.restarts,
                                       rng_seed=args.seed))
    result = frechet_mean(nets, params, seed=seed)
    write_network(result.network, out)
    with open(trace_path, "w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["iteration", "loss", "baseSize"])
        writer.writerows(result.trace)
    print(f"loss {result.loss:.9f} size {result.network.size} "
          f"converged {result.converged}")
    return 0 if result.converged else 2


def _cmd_compress(args) -> int:
    X = read_network(args.x)
    Y = read_network(args.y)
    net = compressed_average(X, Y, FrechetParams(gw=_gw_params(args)))
    out = args.out or "compressed.json"
    write_network(net, out)
    print(f"wrote {out}")
    return 0


def _tangent_dataset(args):
    """The named inputs, and their tangent dataset at --base (default: the
    first input)."""
    named = _load_inputs(args.inputs)
    nets = [net for _, net in named]
    base = read_network(args.base) if args.base else nets[0]
    return named, vectorize_at_base(base, nets, _gw_params(args))


def _cmd_pca(args) -> int:
    out = Path(args.out or "pca.json")
    _json_out(out)
    _, ds = _tangent_dataset(args)
    result = tangent_pca(ds, args.components)
    payload = {
        "explainedVarianceRatios": result.explained_variance_ratios.tolist(),
        "mean": result.mean.tolist(),
        "components": result.components.tolist(),
        "baseSize": ds.base.size,
    }
    with open(out, "w", encoding="utf-8") as fh:
        fh.write(json.dumps(payload) + "\n")
    if args.grid:
        for ci in range(result.num_components):
            for s in _parse_numbers(args.grid):
                net = project_along_component(result, ds.base, ci, s)
                name = out.with_name(f"{out.stem}_c{ci}_s{s:+.3f}."
                                     f"{args.format}")
                write_network(net, name)
    ratios = ", ".join(f"{r:.4f}"
                       for r in result.explained_variance_ratios[:5])
    print(f"ratios [{ratios}]")
    return 0


def _cmd_featurize(args) -> int:
    labels = {}
    if args.labels:
        try:
            with open(args.labels, "r", encoding="utf-8") as fh:
                labels = dict(row[:2] for row in csv.reader(fh)
                              if len(row) >= 2)
        except UnicodeDecodeError as exc:
            raise ParseError(f"{args.labels}: not utf-8 text: {exc}") from exc
    named, ds = _tangent_dataset(args)
    feats = featurize(ds)
    headers = ["label"] + [f"f{i}" for i in range(feats.shape[1])]
    rows = [dict(zip(headers, [labels.get(name, name)] + row))
            for (name, _), row in zip(named, feats.tolist())]
    out = args.out or "features.csv"
    _write_rows(rows, out, headers)
    print(f"wrote {out} ({feats.shape[0]} rows, {feats.shape[1]} features)")
    return 0


def _sbm_spec(args) -> SbmSpec:
    if args.means_file:
        with open(args.means_file, "r", encoding="utf-8") as fh:
            try:
                means = np.array(json.load(fh), dtype=float)
            except ValueError as exc:
                raise ParseError(f"{args.means_file}: {exc}") from None
    elif args.means:
        means = _parse_matrix(args.means)
    else:
        means = default_sbm_spec(args.seed).means
    return SbmSpec(block_sizes=tuple(_parse_numbers(args.block_sizes, int)),
                   means=means, variance=args.variance, rng_seed=args.seed)


def _cmd_sbm_gen(args) -> int:
    net = generate_sbm(_sbm_spec(args))
    out = args.out or "sbm.json"
    write_network(net, out)
    print(f"wrote {out} ({net.size} nodes)")
    return 0


def _cmd_sbm_experiment(args) -> int:
    report = sbm_compression_experiment(_sbm_spec(args), n_runs=args.runs,
                                        bound=args.bound, rng_seed=args.seed)
    rows = [{"seed": r.seed, "maxDeviation": r.max_deviation,
             "passed": r.passed,
             "singleShotMaxDeviation": r.single_shot_max_deviation,
             "iterations": r.iterations, "converged": r.converged}
            for r in report.runs]
    if args.out:
        if _format_for(args.out) == "json":
            payload = {"target": report.target.tolist(), "runs": rows,
                       "passCount": report.pass_count, "bound": report.bound,
                       "recovered": [r.recovered.tolist()
                                     for r in report.runs]}
            with open(args.out, "w", encoding="utf-8") as fh:
                json.dump(payload, fh, indent=1)
                fh.write("\n")
        else:
            _write_rows(rows, args.out, list(rows[0].keys()))
    print(f"passCount {report.pass_count}/{len(report.runs)} "
          f"bound {report.bound}")
    return 0


def _cmd_support_sweep(args) -> int:
    sizes = _parse_numbers(args.sizes, int)
    rows = support_size_sweep(sizes, args.trials, rng_seed=args.seed)
    out = args.out or "support_sweep.csv"
    _write_rows(rows, out, ["n", "trial", "support_size", "ratio"])
    medians = {}
    for row in rows:
        medians.setdefault(row["n"], []).append(row["support_size"])
    line = " ".join(f"n={n}:median={float(np.median(v))}"
                    for n, v in sorted(medians.items()))
    print(line)
    return 0


def _cmd_asym_sweep(args) -> int:
    sizes = _parse_numbers(args.sizes, int)
    if len(sizes) == 1:
        sizes = sizes * 2
    if len(sizes) != 2:
        raise ParseError(f"--sizes takes one or two sizes: {args.sizes!r}")
    rows = asymmetry_sweep(args.mode, _parse_numbers(args.alphas),
                           args.n_seeds, sizes=(sizes[0], sizes[1]),
                           rng_seed=args.seed)
    out = args.out or "asym_sweep.csv"
    _write_rows(rows, out, ["mode", "alpha", "seed", "final_loss",
                            "final_size", "iterations", "converged"])
    print(f"wrote {out} ({len(rows)} rows)")
    return 0


# ----------------------------------------------------------------- parser

def build_parser() -> argparse.ArgumentParser:
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--seed", type=int, default=0,
                        help="seed for all randomness (default 0)")
    common.add_argument("--out", default=None, help="output path")
    suffix = argparse.ArgumentParser(add_help=False)
    suffix.add_argument("--format", choices=("json", "csv"), default="json",
                        help="suffix, and so format, of the network files "
                             "this command names")
    restarts = argparse.ArgumentParser(add_help=False)
    restarts.add_argument("--restarts", type=int, default=0,
                          help="extra random starts for each solve")
    solver = argparse.ArgumentParser(add_help=False, parents=[restarts])
    solver.add_argument("--max-iters", type=int, default=200,
                        help="Frank-Wolfe iteration cap of each solve "
                             "(default 200)")

    parser = argparse.ArgumentParser(
        prog="gwnet",
        description="statistics on weighted networks under the "
                    "Gromov-Wasserstein distance")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("distance", parents=[common, solver],
                       help="distance between two networks")
    p.add_argument("x")
    p.add_argument("y")
    p.set_defaults(func=_cmd_distance)

    p = sub.add_parser("geodesic", parents=[common, suffix, solver],
                       help="sample the geodesic between two networks")
    p.add_argument("x")
    p.add_argument("y")
    p.add_argument("--ts", default="0,0.25,0.5,0.75,1",
                   help="comma separated parameters in [0,1]")
    p.add_argument("--mask-threshold", type=float, default=None,
                   help="flag nodes with measure below this fraction of "
                        "the largest")
    p.set_defaults(func=_cmd_geodesic)

    p = sub.add_parser("mean", parents=[common, restarts],
                       help="iterative mean of a collection")
    p.add_argument("inputs", nargs="+",
                   help="network files or directories of them")
    p.add_argument("--seed-net", default=None, help="seed network file")
    p.add_argument("--seed-size", type=int, default=None,
                   help="random seed network of this size, drawn at --seed")
    p.add_argument("--compress", choices=("none", "to_seed_size"),
                   default="none")
    p.add_argument("--max-iters", type=int, default=100, help="mean iteration "
                   "cap (default 100); each solve runs up to 200 Frank-Wolfe "
                   "iterations")
    p.set_defaults(func=_cmd_mean)

    p = sub.add_parser("compress", parents=[common, solver],
                       help="compressed average of X and Y at X's size")
    p.add_argument("x")
    p.add_argument("y")
    p.set_defaults(func=_cmd_compress)

    p = sub.add_parser("pca", parents=[common, suffix, solver],
                       help="principal directions of a collection")
    p.add_argument("inputs", nargs="+")
    p.add_argument("--base", default=None,
                   help="base network file (default: first input)")
    p.add_argument("--components", type=int, default=None)
    p.add_argument("--grid", default=None,
                   help="comma separated steps; also write networks along "
                        "each component")
    p.set_defaults(func=_cmd_pca)

    p = sub.add_parser("featurize", parents=[common, solver],
                       help="export a weighted feature matrix")
    p.add_argument("inputs", nargs="+")
    p.add_argument("--base", default=None)
    p.add_argument("--labels", default=None,
                   help="csv file mapping input stems to the labels of "
                        "their feature rows (not node labels)")
    p.set_defaults(func=_cmd_featurize)

    sbm = argparse.ArgumentParser(add_help=False)
    sbm.add_argument("--block-sizes", default="20,20,20,20,20")
    sbm.add_argument("--means", default=None,
                     help="inline matrix, rows split by ';'")
    sbm.add_argument("--means-file", default=None,
                     help="json file with the block means matrix")
    sbm.add_argument("--variance", type=float, default=5.0)

    p = sub.add_parser("sbm-gen", parents=[common, sbm],
                       help="draw a block model network")
    p.set_defaults(func=_cmd_sbm_gen)

    p = sub.add_parser("sbm-experiment", parents=[common, sbm],
                       help="block mean recovery by compressed averaging")
    p.add_argument("--runs", type=int, default=20)
    p.add_argument("--bound", type=float, default=0.1)
    p.set_defaults(func=_cmd_sbm_experiment)

    p = sub.add_parser("support-sweep", parents=[common],
                       help="coupling support growth over network size")
    p.add_argument("--sizes", default="5,10,20,40")
    p.add_argument("--trials", type=int, default=20)
    p.set_defaults(func=_cmd_support_sweep)

    p = sub.add_parser("asym-sweep", parents=[common],
                       help="mean iteration under growing asymmetry")
    p.add_argument("--mode", choices=("diagonal", "antisymmetric"),
                   default="diagonal")
    p.add_argument("--alphas", default="0,0.25,0.5,0.75,1")
    p.add_argument("--n-seeds", type=int, default=3)
    p.add_argument("--sizes", default="10,10")
    p.set_defaults(func=_cmd_asym_sweep)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except GwnetError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except OSError as exc:
        print(f"io error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
