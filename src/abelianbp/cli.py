"""Command-line surface.

Subcommands: ``groups info``, ``factor``, ``measures``, ``verify``, ``mp run``,
``polar construct``, ``conv analyze``, ``de threshold``, ``de heatmap``,
``de holevo``.  JSON in, JSON or CSV out; stochastic modes require a seed and
are byte-reproducible.  Exit codes: 0 success, 1 usage, 2 validation,
3 numerical failure; each error or warning goes to stderr as one JSON object.
Every engine runs single-threaded vectorized numerics, so results never
depend on the thread count.
"""

from __future__ import annotations

import argparse
import json
import sys
import warnings
from fractions import Fraction

from . import SCHEMA_VERSION, __version__
from .de import DEConfig, channel_family, heatmap, holevo_threshold, threshold_bisect
from .eigenlists import EigenList, channel_fidelity, holevo_info, pgm_error
from .errors import NumericalError, ValidationError
from .factors import (
    apply_automorphism,
    check_combine,
    equality_combine,
    hom_push,
    hom_push_supported,
    lift_along_hom,
    marginalize_split,
)
from .messages import avg_holevo, avg_pgm_error
from .oracle import RULES, verify_rule
from .polar import DEFAULT_SAMPLES, resolve_mode, select_info_set, synthesize
from .schemas import (
    dump_eigenlist,
    dump_group,
    dump_message,
    parse_deconfig,
    parse_eigenlist,
    parse_graph,
    parse_group,
    parse_hom,
    parse_trellis,
    parse_turbo,
    to_json,
)
from .trees import run_mp
from .trellis import decode_block, section_metrics


class _UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        raise _UsageError(message)


def _load_json(path: str):
    with open(path) as fh:
        return json.load(fh)


def _inline_or_file(text: str):
    """Accept inline JSON or an @file / *.json path."""
    text = text.strip()
    if text and text[0] in "[{0123456789" and not text.endswith(".json"):
        return json.loads(text)
    return _load_json(text.removeprefix("@"))


def _fmt(x: float) -> str:
    return f"{x:.12g}"


def _write(text: str, path):
    """Write `text` to the file `path`, or to stdout without one."""
    if path:
        with open(path, "w") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def _write_csv(path, header, rows):
    lines = [",".join(header)]
    for row in rows:
        lines.append(",".join(_fmt(v) if isinstance(v, float) else str(v) for v in row))
    _write("\n".join(lines) + "\n", path)


def _emit(doc, path=None):
    _write(to_json(doc) + "\n", path)


def _inline_lambda(args) -> EigenList:
    """--group and --lambda, checked by the eigen-list schema as --in is."""
    group = dump_group(parse_group(_inline_or_file(args.group)))
    return parse_eigenlist({"group": group, "values": json.loads(args.lam)})


def _check_seed(args):
    """Sampled modes need --seed; checked before any input is read."""
    # mp run, polar construct and conv analyze have a mode; only polar's can be auto
    mode = resolve_mode(getattr(args, "mode", None), getattr(args, "levels", 0))
    if mode == "sampled" and args.seed is None:
        raise _UsageError("--seed is required in sampled mode")


#: ``factor`` kinds: (eigen lists taken, rule, the option giving its last argument).
_FACTORS = {
    "check": (2, check_combine, None),
    "equality": (2, equality_combine, None),
    "hom": (1, hom_push, "hom"),
    "hom-supported": (1, hom_push_supported, "hom"),
    "lift": (1, lift_along_hom, "hom"),
    "marginalize": (1, marginalize_split, "keep"),
    "automorphism": (1, apply_automorphism, "hom"),
}


def _leaf(sub, name: str, handler, **kw) -> _Parser:
    """A leaf subcommand's parser, which carries its handler as the ``handler`` default."""
    parser = sub.add_parser(name, **kw)
    parser.set_defaults(handler=handler)
    return parser


def build_parser() -> _Parser:
    top = _Parser(prog="abelianbp", description=__doc__)
    top.add_argument("--version", action="version",
                     version=f"abelianbp {__version__} (schema v{SCHEMA_VERSION})")
    sub = top.add_subparsers(dest="command", required=True)

    groups = sub.add_parser("groups", help="group utilities")
    gsub = groups.add_subparsers(dest="subcommand", required=True)
    ginfo = _leaf(gsub, "info", _cmd_groups_info, help="order, rank, exponent of a group")
    ginfo.add_argument("--group", required=True)

    factor = _leaf(sub, "factor", _cmd_factor, help="apply one local update rule")
    factor.add_argument("kind", choices=list(_FACTORS))
    factor.add_argument("--in", dest="inputs", nargs="+", required=True,
                        help="eigen-list JSON file(s)")
    factor.add_argument("--hom", help="hom JSON (hom kinds)")
    factor.add_argument("--keep", type=int, help="split point (marginalize)")
    factor.add_argument("--out")

    measures = _leaf(sub, "measures", _cmd_measures, help="scalar functionals of one eigen list")
    measures.add_argument("--in", dest="infile")
    measures.add_argument("--lambda", dest="lam")
    measures.add_argument("--group")
    measures.add_argument("--out")

    verify = _leaf(sub, "verify", _cmd_verify, help="dense-oracle certification")
    verify.add_argument("--rule", required=True, choices=[*RULES, "all"])
    verify.add_argument("--group", required=True)
    verify.add_argument("--seed", type=int, required=True)
    verify.add_argument("--count", type=int, default=100)
    verify.add_argument("--out")

    mp = sub.add_parser("mp", help="tree message passing")
    mpsub = mp.add_subparsers(dest="subcommand", required=True)
    mprun = _leaf(mpsub, "run", _cmd_mp_run)
    mprun.add_argument("--graph", required=True)
    mprun.add_argument("--mode", choices=["exact", "sampled"], default="exact")
    mprun.add_argument("--seed", type=int)
    mprun.add_argument("--prune", type=float, default=0.0)
    mprun.add_argument("--samples", type=int, default=1)
    mprun.add_argument("--out")

    polar = sub.add_parser("polar", help="polar synthetic-channel tracking")
    psub = polar.add_subparsers(dest="subcommand", required=True)
    pcon = _leaf(psub, "construct", _cmd_polar_construct)
    pcon.add_argument("--group", required=True)
    pcon.add_argument("--lambda", dest="lam", required=True)
    pcon.add_argument("--levels", type=int, required=True)
    pcon.add_argument("--mode", choices=["auto", "exact", "sampled"], default="auto")
    pcon.add_argument("--seed", type=int)
    pcon.add_argument("--samples", type=int, default=DEFAULT_SAMPLES)
    pcon.add_argument("--prune", type=float, default=0.0)
    pcon.add_argument("--info-bits", type=int, dest="info_bits")
    pcon.add_argument("--out")

    conv = sub.add_parser("conv", help="convolutional block analysis")
    csub = conv.add_subparsers(dest="subcommand", required=True)
    cana = _leaf(csub, "analyze", _cmd_conv_analyze)
    cana.add_argument("--trellis", required=True)
    cana.add_argument("--channel", required=True, help="channel eigen-list JSON")
    cana.add_argument("--T", type=int, required=True)
    cana.add_argument("--mode", choices=["exact", "sampled"], default="exact")
    cana.add_argument("--seed", type=int)
    cana.add_argument("--samples", type=int, default=1)
    cana.add_argument("--systematic", action="store_true",
                      help="also observe each symbol through the channel")
    cana.add_argument("--out")

    de = sub.add_parser("de", help="density evolution")
    dsub = de.add_subparsers(dest="subcommand", required=True)
    dthr = _leaf(dsub, "threshold", _cmd_de_threshold)
    dthr.add_argument("--turbo", required=True)
    dthr.add_argument("--config")
    dthr.add_argument("--seed", type=int)
    dthr.add_argument("--resolution", type=float, default=0.01)
    dthr.add_argument("--trials", type=int, default=3)
    dthr.add_argument("--out")
    dheat = _leaf(dsub, "heatmap", _cmd_de_heatmap)
    dheat.add_argument("--turbo", required=True)
    dheat.add_argument("--config")
    dheat.add_argument("--seed", type=int)
    dheat.add_argument("--res", type=float, default=0.05)
    dheat.add_argument("--ray", action="store_true")
    dheat.add_argument("--lambda0-range", dest="lambda0_range",
                       help="lo,hi clip on the first coordinate")
    dheat.add_argument("--trials", type=int, default=1)
    dheat.add_argument("--out")
    dhol = _leaf(dsub, "holevo", _cmd_de_holevo)
    dhol.add_argument("--q", type=int, required=True)
    dhol.add_argument("--rate", required=True)
    dhol.add_argument("--out")
    return top


def _cmd_groups_info(args):
    G = parse_group(_inline_or_file(args.group))
    _emit({"group": dump_group(G), "order": G.order, "rank": G.rank,
           "exponent": G.exponent(), "trivial": G.is_trivial})


def _cmd_factor(args):
    operands, rule, option = _FACTORS[args.kind]
    for other in ("hom", "keep"):
        if other != option and getattr(args, other) is not None:
            raise ValidationError(f"{args.kind} takes no --{other}")
    lams = [parse_eigenlist(_load_json(p)) for p in args.inputs]
    if len(lams) != operands:
        raise ValidationError(f"{args.kind} expects exactly "
                              f"{['one eigen list', 'two eigen lists'][operands - 1]}")
    if option is None:
        out = rule(*lams)
    elif getattr(args, option) is None:
        raise ValidationError(f"{args.kind} needs --{option}")
    else:
        out = rule(*lams, args.keep if option == "keep" else parse_hom(_inline_or_file(args.hom)))
    doc = dump_eigenlist(out) if isinstance(out, EigenList) else dump_message(out)
    _emit(doc, args.out)


def _cmd_measures(args):
    if args.infile:
        lam = parse_eigenlist(_load_json(args.infile))
    elif args.lam is None or args.group is None:
        raise ValidationError("need either --in FILE or both --lambda and --group")
    else:
        lam = _inline_lambda(args)
    _emit({"holevo_bits": holevo_info(lam), "fidelity": channel_fidelity(lam),
           "pgm_error": pgm_error(lam)}, args.out)


def _cmd_verify(args):
    G = parse_group(_inline_or_file(args.group))
    rules = RULES if args.rule == "all" else [args.rule]
    reports = [verify_rule(r, G, args.seed, args.count) for r in rules]
    doc = {"reports": reports, "ok": all(r["ok"] for r in reports)}
    _emit(doc, args.out)
    return 0 if doc["ok"] else 3


def _cmd_mp_run(args):
    spec = parse_graph(_load_json(args.graph))
    msg = run_mp(spec, mode=args.mode, seed=args.seed, prune_eps=args.prune,
                 samples=args.samples)
    _emit({"root": dump_message(msg),
           "metrics": {"avg_holevo": avg_holevo(msg),
                       "avg_pgm_error": avg_pgm_error(msg)}}, args.out)


def _cmd_polar_construct(args):
    # checked before any work, so a bad size leaves no output behind
    if args.info_bits is not None and not 0 <= args.info_bits <= 2 ** args.levels:
        raise ValidationError(f"info-set size {args.info_bits} out of range")
    lam = _inline_lambda(args)
    stats = synthesize(lam, args.levels, mode=args.mode, seed=args.seed,
                       prune_eps=args.prune, samples=args.samples)
    rows = [(s.index, s.avg_holevo, s.avg_pgm_error) for s in stats]
    _write_csv(args.out, ["index", "avg_holevo_bits", "avg_pgm_error"], rows)
    if args.info_bits is not None:
        chosen = select_info_set(stats, args.info_bits)
        sys.stderr.write(to_json({"info_set": chosen}) + "\n")


def _cmd_conv_analyze(args):
    if args.T < 1:
        raise ValidationError(f"--T must be at least 1, got {args.T}")
    spec = parse_trellis(_load_json(args.trellis))
    lam = parse_eigenlist(_load_json(args.channel))
    obs = [[lam] * len(spec.outputs) for _ in range(args.T)]
    sys_obs = [lam] * args.T if args.systematic else None
    results = decode_block(spec, obs, mode=args.mode, seed=args.seed,
                           symbol_obs_seq=sys_obs, samples=args.samples)
    rows = [
        (m["t"], m["posterior_holevo"], m["posterior_pgm_error"],
         m["extrinsic_holevo"], m["extrinsic_pgm_error"])
        for m in section_metrics(results)
    ]
    _write_csv(args.out, ["t", "posterior_holevo_bits", "posterior_pgm_error",
                          "extrinsic_holevo_bits", "extrinsic_pgm_error"], rows)


def _de_config(args) -> DEConfig:
    if args.config:
        cfg = parse_deconfig(_load_json(args.config))
    elif args.seed is not None:
        cfg = DEConfig()
    else:
        raise _UsageError("stochastic run needs --config or --seed")
    if args.seed is not None:
        from dataclasses import replace
        cfg = replace(cfg, master_seed=args.seed)
    return cfg


def _cmd_de_threshold(args):
    spec = parse_turbo(_load_json(args.turbo))
    cfg = _de_config(args)
    res = threshold_bisect(spec, cfg, resolution=args.resolution, trials=args.trials)
    res["holevo_threshold"] = holevo_threshold(spec.symbol_group.order, spec.rate)
    res["rate"] = str(spec.rate)
    _emit(res, args.out)


def _cmd_de_heatmap(args):
    spec = parse_turbo(_load_json(args.turbo))
    cfg = _de_config(args)
    lrange = None
    if args.lambda0_range:
        try:
            lo, hi = (float(x) for x in args.lambda0_range.split(","))
        except ValueError:
            raise _UsageError(f"--lambda0-range takes lo,hi, got {args.lambda0_range!r}") from None
        lrange = (lo, hi)
    rows = heatmap(spec, cfg, resolution=args.res, lambda0_range=lrange,
                   ray_only=args.ray, trials=args.trials)
    _write_csv(args.out, ["lambda0", "lambda1", "lambda2", "success_freq"],
               [(r["lambda0"], r["lambda1"], r["lambda2"], r["success_freq"])
                for r in rows])


def _cmd_de_holevo(args):
    lam0 = holevo_threshold(args.q, args.rate)
    _emit({"q": args.q, "rate": str(Fraction(args.rate)), "lambda0": lam0,
           "eigenlist": dump_eigenlist(channel_family(args.q, lam0))}, args.out)


def main(argv=None) -> int:
    parser = build_parser()
    with warnings.catch_warnings():     # each shown warning, as each error, is one JSON object
        warnings.showwarning = lambda w, category, *_: sys.stderr.write(
            to_json({"warning": category.__name__, "message": str(w), **vars(w)}) + "\n")
        try:
            args = parser.parse_args(argv)
            _check_seed(args)
            return args.handler(args) or 0
        except _UsageError as exc:
            sys.stderr.write(to_json({"error": "usage", "message": str(exc)}) + "\n")
            return 1
        except (ValidationError, FileNotFoundError, json.JSONDecodeError) as exc:
            sys.stderr.write(to_json({"error": "validation", "message": str(exc)}) + "\n")
            return 2
        except NumericalError as exc:
            sys.stderr.write(to_json({"error": "numerical", "message": str(exc)}) + "\n")
            return 3


if __name__ == "__main__":
    sys.exit(main())
