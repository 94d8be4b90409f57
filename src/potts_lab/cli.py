"""
potts-lab command line: thresholds, fixpoints, phase diagrams, moment reports,
induced norms, graph sampling/enumeration, gadget/reduction building,
Swendsen-Wang runs and exact kernels, parameter sweeps, and `verify` for the
acceptance suite.

Artifacts are written atomically (temp file + rename) and embed the resolved
configuration and seed, so re-running a command with the same inputs yields
byte-identical output.  Exit codes: 0 success, 1 validation error, 2 guard
violation.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import tempfile

import numpy as np

from . import acceptance, graphs, moments, swsim, treefix
from .spinsys import SizeGuardError, build_potts_matrix, load_model


class _UsageError(ValueError):
    pass


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        raise _UsageError(f"{message}\n{self.format_usage()}")


def _atomic_write(path: str, text: str) -> None:
    directory = os.path.dirname(os.path.abspath(path))
    fd, tmp = tempfile.mkstemp(dir=directory, prefix=".potts-lab-")
    try:
        with os.fdopen(fd, "w") as fh:
            fh.write(text)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


def _emit(text: str, out_path) -> None:
    if out_path:
        _atomic_write(out_path, text)
    else:
        sys.stdout.write(text)


def _config_dict(args, keys) -> dict:
    return {k: getattr(args, k) for k in keys if getattr(args, k, None) is not None}


def _json_artifact(payload: dict, args, keys) -> str:
    payload = dict(payload)
    payload["config"] = _config_dict(args, keys)
    return json.dumps(payload, indent=2, sort_keys=True) + "\n"


def _csv_artifact(command: str, args, keys, header, rows, units: str) -> str:
    lines = [f"# potts-lab {command}"]
    lines.append("# config: " + json.dumps(_config_dict(args, keys), sort_keys=True))
    lines.append(f"# units: {units}")
    lines.append(",".join(header))
    for row in rows:
        lines.append(",".join(_cell(c) for c in row))
    return "\n".join(lines) + "\n"


def _cell(c) -> str:
    if isinstance(c, (float, np.floating)):
        return repr(float(c))
    if isinstance(c, np.integer):
        return str(int(c))
    return str(c)


def _model_from_args(args):
    if args.model == "potts":
        if args.q is None or args.B is None:
            raise ValueError("--model potts requires --q and --B")
        return build_potts_matrix(args.q, args.B)
    return load_model(args.model)


def _parse_alpha(text: str) -> np.ndarray:
    return np.array([float(x) for x in text.split(",")])


def _default_seed() -> int:
    raw = os.environ.get("POTTSLAB_SEED", "0")
    try:
        return int(raw)
    except ValueError:
        raise ValueError(f"POTTSLAB_SEED must be an integer, got {raw!r}") from None


# ---------------------------------------------------------------------------
# subcommand handlers
# ---------------------------------------------------------------------------


def _cmd_thresholds(args) -> int:
    th = treefix.potts_thresholds(args.q, args.delta)
    payload = {"Bu": th.Bu, "Bo": th.Bo, "Brc": th.Brc}
    _emit(_json_artifact(payload, args, ["q", "delta"]), args.out)
    return 0


def _cmd_fixpoints(args) -> int:
    fps = treefix.potts_fixpoints(args.q, args.delta, args.B)
    payload = {
        "fixpoints": [
            {
                "t": fp.potts_structure[0],
                "x": fp.potts_structure[1],
                "R": fp.R.tolist(),
                "alpha": fp.alpha.tolist(),
                "stability": fp.stability,
                "jacobian_eigen": fp.jacobian_eigen.tolist(),
                "residual": fp.residual,
            }
            for fp in fps
        ]
    }
    _emit(_json_artifact(payload, args, ["q", "delta", "B"]), args.out)
    return 0


def _cmd_phase_diagram(args) -> int:
    pd = moments.potts_phase_diagram(args.q, args.delta, args.B)
    payload = {
        "regime": pd.regime,
        "dif": None if pd.dif == -np.inf else pd.dif,
        "Bu": pd.thresholds.Bu,
        "Bo": pd.thresholds.Bo,
        "Brc": pd.thresholds.Brc,
        "dominant": [ph.alpha.tolist() for ph in pd.dominant],
        "local_maxima": [ph.alpha.tolist() for ph in pd.local_maxima],
    }
    _emit(_json_artifact(payload, args, ["q", "delta", "B"]), args.out)
    return 0


def _cmd_moments(args) -> int:
    model = _model_from_args(args)
    keys = ["model", "q", "B", "delta", "alpha", "exact_n", "seed"]
    if args.exact_n is not None and args.alpha is None:
        raise ValueError("--exact-n needs --alpha")
    if args.alpha is not None:
        alpha = _parse_alpha(args.alpha)
        if len(alpha) != model.q:
            raise ValueError(f"alpha must have length q = {model.q}")
        rep = moments.moment_report(model, args.delta, compute_psi2=False, seed=args.seed)
        p1 = moments.psi1(model, args.delta, alpha)
        p2 = float("nan") if args.no_psi2 else moments.psi2(model, args.delta, alpha)
        row = list(alpha) + [
            p1,
            p2,
            rep.norm_value if rep.norm_value is not None else float("nan"),
            int(p1 >= rep.psi1_max - 1e-9),
        ]
        rows = [row]
        if args.exact_n:
            exact = moments.first_moment_exact(args.exact_n, args.delta, model, alpha)
            rows[0].append(np.log(exact) / args.exact_n if exact > 0 else float("-inf"))
        header = [f"alpha_{i}" for i in range(model.q)] + ["psi1", "psi2", "norm", "dominant"]
        if args.exact_n:
            header.append(f"exact_log_mean_n{args.exact_n}")
    else:
        rep = moments.moment_report(
            model, args.delta, compute_psi2=not args.no_psi2, seed=args.seed
        )
        header = [f"alpha_{i}" for i in range(model.q)] + ["psi1", "psi2", "norm", "dominant"]
        rows = []
        for ph in rep.phases:
            rows.append(
                list(ph.alpha)
                + [
                    ph.psi1,
                    rep.psi2_max if (ph.dominant and rep.psi2_max is not None) else float("nan"),
                    rep.norm_value if rep.norm_value is not None else float("nan"),
                    int(ph.dominant),
                ]
            )
    text = _csv_artifact(
        "moments", args, keys, header, rows, "psi1/psi2 in nats per vertex; alpha probabilities"
    )
    _emit(text, args.csv)
    return 0


def _cmd_norm(args) -> int:
    model = _model_from_args(args)
    from .spinsys import cholesky_factor

    Bhat = cholesky_factor(model)
    p = args.delta / (args.delta - 1.0)
    value, argmax = moments.matrix_norm_p2(Bhat, p)
    payload = {
        "p": p,
        "norm": value,
        "delta_ln_norm": args.delta * float(np.log(value)),
        "argmax": argmax.tolist(),
    }
    _emit(_json_artifact(payload, args, ["model", "q", "B", "delta"]), args.out)
    return 0


def _cmd_graph_sample(args) -> int:
    g = graphs.pairing_sample(args.n, args.delta, args.seed)
    text = _graph_text(g, args, ["n", "delta", "seed"])
    _emit(text, args.out)
    return 0


def _graph_text(g, args, keys) -> str:
    config = json.dumps(_config_dict(args, keys), sort_keys=True)
    return f"# config: {config}\n" + graphs.graph_text(g)


def _cmd_graph_enumerate(args) -> int:
    count = 0
    lines = []
    for g in graphs.enumerate_pairings(args.n, args.delta):
        count += 1
        if not args.count_only:
            lines.append(" ".join(f"{u}-{v}" for u, v in g.edges.tolist()))
    if args.count_only:
        _emit(f"{count}\n", args.out)
    else:
        _emit("\n".join(lines) + f"\n# total {count}\n", args.out)
    return 0


def _cmd_graph_cycles(args) -> int:
    g = graphs.read_graph(args.graph)
    X = graphs.count_cycles(g, args.kmax)
    payload = {"cycles": X.tolist(), "kmax": args.kmax}
    _emit(_json_artifact(payload, args, ["graph", "kmax"]), args.out)
    return 0


def _cmd_gadget(args) -> int:
    g = graphs.build_gadget(args.delta, args.trees, args.depth, args.ncore, args.seed)
    _emit(_graph_text(g, args, ["delta", "trees", "depth", "ncore", "seed"]), args.out)
    return 0


def _cmd_reduce(args) -> int:
    h = graphs.read_graph(args.h)
    gadget_list = [
        graphs.build_gadget(args.delta, args.trees, args.depth, args.ncore, args.seed ^ v)
        for v in range(h.n)
    ]
    hg = graphs.build_reduction(h.edges.tolist(), gadget_list)
    _emit(_graph_text(hg, args, ["h", "delta", "trees", "depth", "ncore", "seed"]), args.out)
    return 0


def _parse_start(text: str):
    if text == "disordered":
        return "disordered"
    if text.startswith("ordered:"):
        return ("ordered", int(text.split(":")[1]))
    raise ValueError("start must be 'disordered' or 'ordered:<color>'")


def _cmd_sw_run(args) -> int:
    g = graphs.read_graph(args.graph)
    trace = swsim.run_chain(
        g, args.q, args.B, args.steps, start=_parse_start(args.start), seed=args.seed
    )
    keys = ["graph", "q", "B", "steps", "start", "seed"]
    header = ["t", "phase"] + [f"c_{i}" for i in range(args.q)] + ["mono_density"]
    rows = []
    for t in range(args.steps + 1):
        rows.append(
            [t, int(trace.phase[t])] + list(trace.freqs[t]) + [float(trace.mono_density[t])]
        )
    text = _csv_artifact(
        "sw run", args, keys, header, rows,
        "phase is a color index; c_ are frequencies; mono_density is monochromatic edges per vertex",
    )
    _emit(text, args.csv)
    return 0


def _cmd_sw_exact(args) -> int:
    g = graphs.read_graph(args.graph)
    P = swsim.exact_sw_kernel(g, args.q, args.B)
    pi = swsim.gibbs_distribution(g, args.q, args.B)
    flux = pi[:, None] * P
    payload = {
        "states": int(P.shape[0]),
        "row_sum_error": float(np.max(np.abs(P.sum(axis=1) - 1.0))),
        "detailed_balance_error": float(np.max(np.abs(flux - flux.T))),
        "stationarity_error": float(np.max(np.abs(pi @ P - pi))),
    }
    if args.cut:
        kind, value = args.cut.split(":")
        if kind != "phase":
            raise ValueError("only phase:<color> cuts are supported")
        S = swsim.phase_cut(g, args.q, int(value))
        payload["cut"] = args.cut
        payload["conductance"] = swsim.conductance(g, args.q, args.B, S, kernel=P, pi=pi)
    _emit(_json_artifact(payload, args, ["graph", "q", "B", "cut"]), args.out)
    return 0


def _cmd_sweep_dif(args) -> int:
    th = treefix.potts_thresholds(args.q, args.delta)
    grid = np.linspace(th.Bu, th.Brc, args.points + 2)[1:-1]

    rows = []
    for B in grid:
        try:
            pd = moments.potts_phase_diagram(args.q, args.delta, float(B))
            rows.append([float(B), pd.dif, pd.regime, ""])
        except Exception as exc:  # per-row failures recorded, sweep continues
            rows.append([float(B), float("nan"), "", str(exc)])
    text = _csv_artifact(
        "sweep dif", args, ["q", "delta", "points"],
        ["B", "dif", "regime", "error"], rows, "B activity (unitless); dif in nats per vertex",
    )
    _emit(text, args.csv)
    return 1 if any(r[3] for r in rows) else 0


def _cmd_sweep_thresholds(args) -> int:
    rows = []
    failed = False
    for q in range(args.q_min, args.q_max + 1):
        for delta in range(args.delta_min, args.delta_max + 1):
            try:
                th = treefix.potts_thresholds(q, delta)
                ordering = "ok" if th.Bu < th.Bo < th.Brc else "violated"
                rows.append([q, delta, th.Bu, th.Bo, th.Brc, ordering, ""])
            except Exception as exc:
                failed = True
                rows.append([q, delta, float("nan"), float("nan"), float("nan"), "", str(exc)])
    text = _csv_artifact(
        "sweep thresholds", args, ["q_min", "q_max", "delta_min", "delta_max"],
        ["q", "delta", "Bu", "Bo", "Brc", "ordering", "error"], rows,
        "activities unitless",
    )
    _emit(text, args.csv)
    return 1 if failed else 0


def _cmd_verify(args) -> int:
    only = [int(x) for x in args.only.split(",")] if args.only else None
    results = acceptance.run_suite(only=only)
    return 0 if all(r.passed for r in results if r.gating) else 1


# ---------------------------------------------------------------------------
# parser
# ---------------------------------------------------------------------------


def _add_model_flags(p):
    p.add_argument("--model", required=True, help="model JSON path, or 'potts' with --q/--B")
    p.add_argument("--q", type=int)
    p.add_argument("--B", type=float)
    p.add_argument("--delta", type=int, required=True)


def _add_gadget_flags(p):
    for name in ("--delta", "--trees", "--depth", "--ncore"):
        p.add_argument(name, type=int, required=True)
    p.add_argument("--seed", type=int, default=_default_seed())
    p.add_argument("--out")


def build_parser() -> _Parser:
    parser = _Parser(prog="potts-lab")
    parser.add_argument("--config", help="JSON file of option overrides")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("thresholds")
    p.add_argument("--q", type=int, required=True)
    p.add_argument("--delta", type=int, required=True)
    p.add_argument("--json", action="store_true")
    p.add_argument("--out")
    p.set_defaults(func=_cmd_thresholds)

    p = sub.add_parser("fixpoints")
    p.add_argument("--q", type=int, required=True)
    p.add_argument("--delta", type=int, required=True)
    p.add_argument("--B", type=float, required=True)
    p.add_argument("--json", action="store_true")
    p.add_argument("--out")
    p.set_defaults(func=_cmd_fixpoints)

    p = sub.add_parser("phase-diagram")
    p.add_argument("--q", type=int, required=True)
    p.add_argument("--delta", type=int, required=True)
    p.add_argument("--B", type=float, required=True)
    p.add_argument("--out")
    p.set_defaults(func=_cmd_phase_diagram)

    p = sub.add_parser("moments")
    _add_model_flags(p)
    p.add_argument("--alpha", help="comma-separated phase vector")
    p.add_argument("--exact-n", dest="exact_n", type=int)
    p.add_argument("--no-psi2", dest="no_psi2", action="store_true")
    p.add_argument("--seed", type=int, default=_default_seed())
    p.add_argument("--csv", help="output path (stdout when omitted)")
    p.set_defaults(func=_cmd_moments)

    p = sub.add_parser("norm")
    _add_model_flags(p)
    p.add_argument("--out")
    p.set_defaults(func=_cmd_norm)

    graph = sub.add_parser("graph")
    gsub = graph.add_subparsers(dest="graph_command", required=True)

    p = gsub.add_parser("sample")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--delta", type=int, required=True)
    p.add_argument("--seed", type=int, default=_default_seed())
    p.add_argument("--out")
    p.set_defaults(func=_cmd_graph_sample)

    p = gsub.add_parser("enumerate")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--delta", type=int, required=True)
    p.add_argument("--count-only", dest="count_only", action="store_true")
    p.add_argument("--out")
    p.set_defaults(func=_cmd_graph_enumerate)

    p = gsub.add_parser("cycles")
    p.add_argument("--graph", required=True)
    p.add_argument("--kmax", type=int, default=4)
    p.add_argument("--out")
    p.set_defaults(func=_cmd_graph_cycles)

    p = sub.add_parser("gadget")
    _add_gadget_flags(p)
    p.set_defaults(func=_cmd_gadget)

    p = sub.add_parser("reduce")
    p.add_argument("--h", required=True, help="graph file for H")
    _add_gadget_flags(p)
    p.set_defaults(func=_cmd_reduce)

    sw = sub.add_parser("sw")
    swsub = sw.add_subparsers(dest="sw_command", required=True)

    p = swsub.add_parser("run")
    p.add_argument("--graph", required=True)
    p.add_argument("--q", type=int, required=True)
    p.add_argument("--B", type=float, required=True)
    p.add_argument("--steps", type=int, required=True)
    p.add_argument("--start", default="disordered")
    p.add_argument("--seed", type=int, default=_default_seed())
    p.add_argument("--csv")
    p.set_defaults(func=_cmd_sw_run)

    p = swsub.add_parser("exact")
    p.add_argument("--graph", required=True)
    p.add_argument("--q", type=int, required=True)
    p.add_argument("--B", type=float, required=True)
    p.add_argument("--cut", help="phase:<color>")
    p.add_argument("--out")
    p.set_defaults(func=_cmd_sw_exact)

    sweep = sub.add_parser("sweep")
    swsweep = sweep.add_subparsers(dest="sweep_command", required=True)

    p = swsweep.add_parser("dif")
    p.add_argument("--q", type=int, required=True)
    p.add_argument("--delta", type=int, required=True)
    p.add_argument("--points", type=int, default=50)
    p.add_argument("--threads", type=int, help="accepted and ignored; the sweep runs serially")
    p.add_argument("--csv")
    p.set_defaults(func=_cmd_sweep_dif)

    p = swsweep.add_parser("thresholds")
    p.add_argument("--q-min", dest="q_min", type=int, default=3)
    p.add_argument("--q-max", dest="q_max", type=int, default=8)
    p.add_argument("--delta-min", dest="delta_min", type=int, default=3)
    p.add_argument("--delta-max", dest="delta_max", type=int, default=8)
    p.add_argument("--csv")
    p.set_defaults(func=_cmd_sweep_thresholds)

    p = sub.add_parser("verify")
    p.add_argument("--suite", default="primary", choices=["primary"])
    p.add_argument("--only", help="comma-separated criterion numbers")
    p.set_defaults(func=_cmd_verify)

    return parser


def _leaf_parser(parser, args):
    """The parser of the subcommand that args selected."""
    for action in parser._actions:
        if isinstance(action, argparse._SubParsersAction):
            return _leaf_parser(action.choices[getattr(args, action.dest)], args)
    return parser


def _parse_args(parser, argv):
    """Parse argv and apply --config before requiring the required options,
    which the config may supply (it overrides the command line)."""
    required = []
    for p in _parsers(parser):
        # freeze usage and help text while the options still read as required
        p.usage = p.format_usage().removeprefix("usage: ").rstrip("\n")
        required += [a for a in p._actions if a.option_strings and a.required]
    for action in required:
        action.required = False
    args = parser.parse_args(argv)
    if args.config:
        _apply_config(args, parser, args.config)
    leaf = _leaf_parser(parser, args)
    missing = [a.option_strings[0] for a in leaf._actions if a in required and getattr(args, a.dest) is None]
    if missing:
        leaf.error("the following arguments are required: " + ", ".join(missing))
    return args


def _parsers(parser):
    """The parser and the parsers of all its subcommands."""
    yield parser
    for action in parser._actions:
        if isinstance(action, argparse._SubParsersAction):
            for sub in action.choices.values():
                yield from _parsers(sub)


def _apply_config(args, parser, path: str) -> None:
    """Override options of the chosen subcommand from a JSON object.

    Keys name options of that subcommand (dashes or underscores).  Each value
    goes through the option's argparse type as if given on the command line;
    flags take JSON booleans.
    """
    with open(path) as fh:
        overrides = json.load(fh)
    if not isinstance(overrides, dict):
        raise ValueError("--config must hold a JSON object")
    leaf = _leaf_parser(parser, args)
    options = {a.dest: a for a in leaf._actions if a.option_strings and a.dest != "help"}
    for key, value in overrides.items():
        action = options.get(key.replace("-", "_"))
        if action is None:
            raise ValueError(f"--config: {key!r} is not an option of '{leaf.prog}'")
        if action.nargs == 0:
            if not isinstance(value, bool):
                raise ValueError(f"--config: {key!r} takes true or false, got {value!r}")
        else:
            if isinstance(value, bool) or not isinstance(value, (str, int, float)):
                raise ValueError(f"--config: {key!r} takes a string or number, got {value!r}")
            try:
                value = (action.type or str)(str(value))
            except (TypeError, ValueError):
                raise ValueError(f"--config: invalid value for {key!r}: {value!r}") from None
            if action.choices is not None and value not in action.choices:
                raise ValueError(f"--config: {key!r} must be one of {list(action.choices)}")
        setattr(args, action.dest, value)


def run_command(argv) -> int:
    try:
        args = _parse_args(build_parser(), argv)
        return args.func(args)
    except _UsageError as exc:
        sys.stderr.write(str(exc) + "\n")
        return 1
    except SizeGuardError as exc:
        sys.stderr.write(f"guard violation: {exc}\n")
        return 2
    except (ValueError, OSError) as exc:
        sys.stderr.write(f"error: {exc}\n")
        return 1


def main() -> None:
    sys.exit(run_command(sys.argv[1:]))
