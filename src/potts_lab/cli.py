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
import re
import sys
import tempfile

import numpy as np

from . import acceptance, graphs, moments, swsim, treefix
from .spinsys import SizeGuardError, _check_simplex, build_potts_matrix, cholesky_factor, load_model


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


def _json_artifact(payload: dict, args) -> str:
    payload = dict(payload)
    payload["config"] = args.recorded
    return json.dumps(payload, indent=2, sort_keys=True) + "\n"


def _csv_artifact(command: str, args, header, rows, units: str) -> str:
    lines = [f"# potts-lab {command}"]
    lines.append("# config: " + json.dumps(args.recorded, sort_keys=True))
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
    _emit(_json_artifact(payload, args), args.out)
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
    _emit(_json_artifact(payload, args), args.out)
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
    _emit(_json_artifact(payload, args), args.out)
    return 0


def _cmd_moments(args) -> int:
    model = _model_from_args(args)
    nan = float("nan")
    if args.exact_n is not None and args.alpha is None:
        raise ValueError("--exact-n needs --alpha")
    # one (alpha, psi1, psi2, dominant) per row
    if args.alpha is not None:
        # bad inputs fail here, before any psi work
        alpha = _check_simplex([float(x) for x in args.alpha.split(",")], model.q)
        if args.exact_n is not None:
            log_exact = moments._first_moment_log(args.exact_n, args.delta, model, alpha)
        rep = moments.moment_report(model, args.delta, compute_psi2=False, seed=args.seed)
        p1 = moments.psi1(model, args.delta, alpha)
        p2 = nan if args.no_psi2 else moments.psi2(model, args.delta, alpha)
        phases = [(alpha, p1, p2, p1 >= rep.psi1_max - 1e-9)]
    else:
        rep = moments.moment_report(model, args.delta, compute_psi2=not args.no_psi2, seed=args.seed)
        p2 = nan if rep.psi2_max is None else rep.psi2_max
        phases = [(ph.alpha, ph.psi1, p2 if ph.dominant else nan, ph.dominant) for ph in rep.phases]
    norm = nan if rep.norm_value is None else rep.norm_value
    header = [f"alpha_{i}" for i in range(model.q)] + ["psi1", "psi2", "norm", "dominant"]
    rows = [list(a) + [v1, v2, norm, int(dom)] for a, v1, v2, dom in phases]
    if args.exact_n is not None:
        header.append(f"exact_log_mean_n{args.exact_n}")
        rows[0].append(log_exact / args.exact_n)
    text = _csv_artifact(
        "moments", args, header, rows, "psi1/psi2 in nats per vertex; alpha probabilities"
    )
    _emit(text, args.csv)
    return 0


def _cmd_norm(args) -> int:
    if args.delta < 2:
        raise ValueError(f"--delta must be >= 2, got {args.delta}")
    Bhat = cholesky_factor(_model_from_args(args))
    p = args.delta / (args.delta - 1.0)
    value, argmax = moments.matrix_norm_p2(Bhat, p)
    payload = {
        "p": p,
        "norm": value,
        "delta_ln_norm": args.delta * float(np.log(value)),
        "argmax": argmax.tolist(),
    }
    _emit(_json_artifact(payload, args), args.out)
    return 0


def _cmd_graph_sample(args) -> int:
    g = graphs.pairing_sample(args.n, args.delta, args.seed)
    _emit(_graph_text(g, args), args.out)
    return 0


def _graph_text(g, args) -> str:
    config = json.dumps(args.recorded, sort_keys=True)
    return f"# config: {config}\n" + graphs.graph_text(g)


def _cmd_graph_enumerate(args) -> int:
    pairings = graphs.enumerate_pairings(args.n, args.delta)
    if args.count_only:
        _emit(f"{sum(1 for _ in pairings)}\n", args.out)
    else:
        lines = [" ".join(f"{u}-{v}" for u, v in g.edges.tolist()) for g in pairings]
        _emit("\n".join(lines) + f"\n# total {len(lines)}\n", args.out)
    return 0


def _cmd_graph_cycles(args) -> int:
    g = graphs.read_graph(args.graph)
    X = graphs.count_cycles(g, args.kmax)
    payload = {"cycles": X.tolist(), "kmax": args.kmax}
    _emit(_json_artifact(payload, args), args.out)
    return 0


def _cmd_gadget(args) -> int:
    g = graphs.build_gadget(args.delta, args.trees, args.depth, args.ncore, args.seed)
    _emit(_graph_text(g, args), args.out)
    return 0


def _cmd_reduce(args) -> int:
    h = graphs.read_graph(args.h)
    gadget_list = [
        graphs.build_gadget(args.delta, args.trees, args.depth, args.ncore, args.seed ^ v)
        for v in range(h.n)
    ]
    hg = graphs.build_reduction(h.edges.tolist(), gadget_list)
    _emit(_graph_text(hg, args), args.out)
    return 0


def _parse_start(text: str):
    m = re.fullmatch(r"disordered|ordered:(-?\d+)", text)
    if m is None:
        raise ValueError(f"--start must be 'disordered' or 'ordered:<color>', got {text!r}")
    return text if m[1] is None else ("ordered", int(m[1]))


def _cmd_sw_run(args) -> int:
    start = _parse_start(args.start)
    g = graphs.read_graph(args.graph)
    trace = swsim.run_chain(g, args.q, args.B, args.steps, start=start, seed=args.seed)
    header = ["t", "phase"] + [f"c_{i}" for i in range(args.q)] + ["mono_density"]
    rows = [
        [t, int(trace.phase[t])] + list(trace.freqs[t]) + [float(trace.mono_density[t])]
        for t in range(args.steps + 1)
    ]
    text = _csv_artifact(
        "sw run", args, header, rows,
        "phase is a color index; c_ are frequencies; mono_density is monochromatic edges per vertex",
    )
    _emit(text, args.csv)
    return 0


def _cmd_sw_exact(args) -> int:
    cut = args.cut and re.fullmatch(r"phase:(\d+)", args.cut)
    if args.cut is not None and not (cut and int(cut[1]) < args.q):
        raise ValueError(f"--cut must be 'phase:<c>' with 0 <= c < {args.q}, got {args.cut!r}")
    g = graphs.read_graph(args.graph)
    P = swsim.exact_sw_kernel(g, args.q, args.B)
    pi = swsim.gibbs_distribution(g, args.q, args.B)
    row, balance, stationary = swsim.kernel_errors(P, pi)
    payload = {
        "states": int(P.shape[0]),
        "row_sum_error": row,
        "detailed_balance_error": balance,
        "stationarity_error": stationary,
    }
    if cut:
        S = swsim.phase_cut(g, args.q, int(cut[1]))
        payload["cut"] = args.cut
        payload["conductance"] = swsim.conductance(g, args.q, args.B, S, kernel=P, pi=pi)
    _emit(_json_artifact(payload, args), args.out)
    return 0


def _cmd_sweep_dif(args) -> int:
    if args.points < 1:
        raise ValueError(f"--points must be >= 1, got {args.points}")
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
        "sweep dif", args, ["B", "dif", "regime", "error"], rows,
        "B activity (unitless); dif in nats per vertex",
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
        "sweep thresholds", args, ["q", "delta", "Bu", "Bo", "Brc", "ordering", "error"], rows,
        "activities unitless",
    )
    _emit(text, args.csv)
    return 1 if failed else 0


def _cmd_verify(args) -> int:
    try:
        only = [int(x) for x in args.only.split(",")] if args.only else None
    except ValueError:
        raise ValueError(f"--only takes comma-separated criterion numbers, got {args.only!r}") from None
    results = acceptance.run_suite(only=only)
    return 0 if all(r.passed for r in results if r.gating) else 1


# ---------------------------------------------------------------------------
# parser
# ---------------------------------------------------------------------------


# every option once, by its argparse keywords
_OPTIONS = {
    "--model": dict(required=True, help="model JSON path, or 'potts' with --q/--B"),
    "--q": dict(type=int, required=True),
    "--B": dict(type=float, required=True),
    "--delta": dict(type=int, required=True),
    "--alpha": dict(help="comma-separated phase vector"),
    "--exact-n": dict(type=int),
    "--no-psi2": dict(action="store_true"),
    "--n": dict(type=int, required=True),
    "--count-only": dict(action="store_true"),
    "--graph": dict(required=True),
    "--kmax": dict(type=int, default=4),
    "--h": dict(required=True, help="graph file for H"),
    "--trees": dict(type=int, required=True),
    "--depth": dict(type=int, required=True),
    "--ncore": dict(type=int, required=True),
    "--steps": dict(type=int, required=True),
    "--start": dict(default="disordered"),
    "--cut": dict(help="phase:<color>"),
    "--points": dict(type=int, default=50),
    "--q-min": dict(type=int, default=3),
    "--q-max": dict(type=int, default=8),
    "--delta-min": dict(type=int, default=3),
    "--delta-max": dict(type=int, default=8),
    "--only": dict(help="comma-separated criterion numbers"),
    "--seed": dict(type=int),  # default from POTTSLAB_SEED, read in build_parser
    "--out": {},
    "--csv": {},
}

# (subcommand, handler, its options in usage order); a trailing "?" makes a
# required option optional
_COMMANDS = [
    ("thresholds", _cmd_thresholds, "--q --delta --out"),
    ("fixpoints", _cmd_fixpoints, "--q --delta --B --out"),
    ("phase-diagram", _cmd_phase_diagram, "--q --delta --B --out"),
    ("moments", _cmd_moments, "--model --q? --B? --delta --alpha --exact-n --no-psi2 --seed --csv"),
    ("norm", _cmd_norm, "--model --q? --B? --delta --out"),
    ("graph sample", _cmd_graph_sample, "--n --delta --seed --out"),
    ("graph enumerate", _cmd_graph_enumerate, "--n --delta --count-only --out"),
    ("graph cycles", _cmd_graph_cycles, "--graph --kmax --out"),
    ("gadget", _cmd_gadget, "--delta --trees --depth --ncore --seed --out"),
    ("reduce", _cmd_reduce, "--h --delta --trees --depth --ncore --seed --out"),
    ("sw run", _cmd_sw_run, "--graph --q --B --steps --start --seed --csv"),
    ("sw exact", _cmd_sw_exact, "--graph --q --B --cut --out"),
    ("sweep dif", _cmd_sweep_dif, "--q --delta --points --csv"),
    ("sweep thresholds", _cmd_sweep_thresholds, "--q-min --q-max --delta-min --delta-max --csv"),
    ("verify", _cmd_verify, "--only"),
]


def build_parser() -> _Parser:
    options = _OPTIONS | {"--seed": _OPTIONS["--seed"] | {"default": _default_seed()}}
    parser = _Parser(prog="potts-lab")
    parser.add_argument("--config", help="JSON file of option overrides")
    sub = parser.add_subparsers(dest="command", required=True)
    groups = {"": sub}
    for name, func, flags in _COMMANDS:
        group, _, leaf = name.rpartition(" ")
        if group not in groups:
            groups[group] = sub.add_parser(group).add_subparsers(
                dest=f"{group}_command", required=True
            )
        p = groups[group].add_parser(leaf)
        for flag in flags.split():
            option = flag.rstrip("?")
            kwargs = options[option]
            if flag != option:
                kwargs = kwargs | {"required": False}
            p.add_argument(option, **kwargs)
        p.set_defaults(func=func)
    return parser


def _leaf_parser(parser, args):
    """The parser of the subcommand that args selected."""
    for action in parser._actions:
        if isinstance(action, argparse._SubParsersAction):
            return _leaf_parser(action.choices[getattr(args, action.dest)], args)
    return parser


def _parse_args(parser, argv):
    """Parse argv and apply --config before requiring the required options,
    which the config may supply (it overrides the command line).

    args.recorded is the config line of the artifact: every option of the
    chosen subcommand except the output path, without unset values and
    unset flags."""
    required = []
    for p in _parsers(parser):
        # freeze usage and help text while the options still read as required
        p.usage = p.format_usage().removeprefix("usage: ").rstrip("\n")
        required += [a for a in p._actions if a.option_strings and a.required]
    for action in required:
        action.required = False
    args = parser.parse_args(argv)
    leaf = _leaf_parser(parser, args)
    if args.config:
        _apply_config(args, leaf, args.config)
    missing = [a.option_strings[0] for a in leaf._actions if a in required and getattr(args, a.dest) is None]
    if missing:
        leaf.error("the following arguments are required: " + ", ".join(missing))
    dests = [a.dest for a in leaf._actions if a.option_strings and a.dest not in ("help", "out", "csv")]
    values = {dest: getattr(args, dest) for dest in dests}
    args.recorded = {k: v for k, v in values.items() if v is not None and v is not False}
    return args


def _parsers(parser):
    """The parser and the parsers of all its subcommands."""
    yield parser
    for action in parser._actions:
        if isinstance(action, argparse._SubParsersAction):
            for sub in action.choices.values():
                yield from _parsers(sub)


def _apply_config(args, leaf, path: str) -> None:
    """Override options of the chosen subcommand from a JSON object.

    Keys name options of that subcommand (dashes or underscores).  Each value
    goes through the option's argparse type as if given on the command line;
    flags take JSON booleans.
    """
    with open(path) as fh:
        overrides = json.load(fh)
    if not isinstance(overrides, dict):
        raise ValueError("--config must hold a JSON object")
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


if __name__ == "__main__":
    main()
