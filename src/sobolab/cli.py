"""Batch orchestration: build models, run estimates/verifications/scans/flows.

Every report embeds the resolved configuration, its hash and the seed, and
is written to a content-addressed file.  Exit status 2 flags inequality
violations (findings are data, not crashes); status 1 is reserved for
errors.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import sys
from pathlib import Path

import numpy as np

from . import bootstrap as bs
from . import constants as ct
from . import flow as fl
from . import semigroup as sg
from .manifold import _keep_chunk_pages, build, parse_model_spec
from .norms import _check_exponent
from .reporting import (config_hash, to_plain, write_artifact, write_csv,
                        write_indexed_csv, write_svg_loglog)
from .spectral import constant_potential, decompose, diagnostics

__all__ = ["main"]

MAX_TIME_SAMPLES = 10_000  # a --times range may not expand to more samples


def _out_dir(args) -> Path:
    if args.out:
        return Path(args.out)
    return Path(os.environ.get("SOBOLAB_OUT", "sobolab-out"))


def _payload(command: str, config: dict, results: dict) -> dict:
    config = to_plain(config)
    return {"command": command, "config": config,
            "config_sha256": config_hash(config), "results": to_plain(results)}


def _ensemble_spec(args) -> ct.EnsembleSpec:
    if args.seed is None:
        raise ValueError("a seed is mandatory; pass --seed")
    return ct.EnsembleSpec(seed=args.seed, size=args.size,
                           generator=args.generator)


def _prepare(args, p=None):
    spec = _ensemble_spec(args)
    model = parse_model_spec(args.model, members=spec.size)
    if p is not None:  # an inequality's exponent, checked before building
        ct._pstar(model.dim, p)
    m = build(model)
    dec1 = decompose(m, constant_potential(m, 1.0))
    return m, dec1, ct.MemberStream(m, spec, dec1)


def _parse_floats(text: str, flag: str) -> list[float]:
    """A non-empty comma list of finite numbers; a ValueError naming flag."""
    try:
        values = [float(x) for x in text.split(",") if x]
    except ValueError:
        raise ValueError(f"{flag} needs comma-separated numbers, "
                         f"got {text!r}") from None
    if not values:
        raise ValueError(f"{flag} needs at least one value, got {text!r}")
    if not all(map(math.isfinite, values)):
        raise ValueError(f"{flag} values must be finite, got {text!r}")
    return values


def _parse_times(text: str) -> list[float]:
    """Either "a:b:step" (inclusive endpoints) or a comma list; all finite."""
    if ":" not in text:
        return _parse_floats(text, "--times")
    try:
        a, b, step = map(float, text.split(":"))
    except ValueError:  # not a number, or not three parts
        raise ValueError(f"--times range needs numbers a:b:step, "
                         f"got {text!r}") from None
    if not all(map(math.isfinite, (a, b, step))):
        raise ValueError(f"--times range {text!r} needs finite endpoints and step")
    if not step > 0:
        raise ValueError(f"--times needs a positive time step, got {step:g}")
    n = (b - a) / step  # round(n) + 1 samples; inf when it overflows
    if not n < MAX_TIME_SAMPLES - 0.5:
        raise ValueError(f"--times range {text!r} has more than "
                         f"{MAX_TIME_SAMPLES} samples")
    return [a + i * step for i in range(int(round(n)) + 1)]


# ---------------------------------------------------------------------------
# subcommand bodies; each returns (results dict, exit status)

def _cmd_ladder(args):
    ladder = bs.build_ladder(args.n, args.p0, args.target)
    k = ladder.k_for(args.target)
    rows = [{"k": i, "p_k": v} for i, v in enumerate(ladder.values)]
    return {"ladder": rows, "k": k, "m": ladder.m_for(args.target),
            "target": args.target}, 0


def _cmd_bootstrap(args):
    chain = bs.chain_constants(args.n, args.p0, args.A, args.B, args.target,
                               precision=args.precision)
    rows = [{"k": i, "from_p": s.from_p, "to_p": s.to_p, "r": s.r,
             "C1": s.C1, "C2": s.C2} for i, s in enumerate(chain.steps)]
    return {"steps": rows, "cumulative": {"C1": chain.C1, "C2": chain.C2},
            "m": chain.m_p}, 0


def _cmd_estimate(args):
    b_grid = tuple(_parse_floats(args.b_grid, "--b-grid"))
    ct._check_b_grid(b_grid)
    m, dec1, members = _prepare(args, args.p)
    est = ct.estimate_sobolev_AB(m, args.p, members, b_grid=b_grid)
    return {"estimate": to_plain(est), "model": m.label,
            "diagnostics": diagnostics(dec1)}, 0


def _cmd_verify(args):
    ct._check_constants(args.A, args.B)
    m, dec1, members = _prepare(args, args.p)
    rep = ct.verify_inequality(m, args.p, args.A, args.B, members)
    return {"report": to_plain(rep), "model": m.label,
            "diagnostics": diagnostics(dec1)}, (0 if rep.passed else 2)


def _cmd_heat(args):
    t_list = _parse_floats(args.t_list, "--t-list")
    if min(t_list) < 0:
        raise ValueError(f"--t-list heat times must be >= 0, got {args.t_list!r}")
    if args.svg and not args.fit_window:
        raise ValueError("--svg plots the decay fit and needs --fit-window")
    window = []
    if args.fit_window:
        window = _parse_floats(args.fit_window, "--fit-window")
        if len(window) != 2:
            raise ValueError(
                f"--fit-window needs t_low,t_high, got {args.fit_window!r}")
        sg._check_fit_window(*window)
    m, dec1, members = _prepare(args)
    # one pass over the members serves the contraction check and, with
    # --beta-csv, the entropy profile of the members scaled to unit L2
    scans = [sg._contraction_scan(m, dec1, t_list, [1.0, 2.0, math.inf],
                                  members)]
    if args.beta_csv:
        scans.append(ct._beta_scan(m, constant_potential(m, 1.0),
                                   np.geomspace(1e-3, 2.0, 25), normalize=True))
    rep, *profiles = ct._run(members, *scans)
    results = {"contraction": to_plain(rep), "model": m.label,
               "diagnostics": diagnostics(dec1)}
    status = 0 if rep.passed else 2
    if window:
        fit = sg.ultracontractivity_fit(dec1, *window)
        results["ultracontractivity"] = {
            "c_hat": fit.c_hat, "mu_hat": fit.mu_hat, "slope": fit.slope,
            "t": list(fit.t_values), "norms": list(fit.norms),
            "truncation_flagged": fit.truncation_flagged}
        if args.svg:
            path = write_svg_loglog(_out_dir(args), "heat_fit", fit.t_values,
                                    fit.norms, "||exp(-tH)||_{2->inf} vs t",
                                    fit_slope=fit.slope)
            results["svg"] = str(path)
    if args.spectrum_csv:
        path = write_indexed_csv(_out_dir(args), "spectrum", ["k", "lambda"],
                                 dec1.eigenvalues)
        results["spectrum_csv"] = str(path)
    for profile in profiles:  # the --beta-csv one
        path = write_csv(_out_dir(args), "log_sobolev_profile",
                         ["sigma", "beta"],
                         list(zip(profile.sigma_grid, profile.beta_values)))
        results["beta_csv"] = str(path)
    return results, status


def _cmd_riesz(args):
    sg._check_equivalence_args(args.a, args.p)  # before building
    m, dec1, members = _prepare(args)
    dec0 = dec1.shifted(-1.0)  # the bare Laplacian, exactly
    scan, eq = ct._run(
        members, sg._mapping_scan(dec1, "grad H^-1/2", args.p, args.p, members),
        sg._equivalence_scan(dec0, args.a, args.p))
    ck = eq.pop("gradient_bessel_C")  # reported at the top level
    return {"riesz": to_plain(scan), "equivalence": eq,
            "gradient_bessel_C": ck, "model": m.label,
            "diagnostics": diagnostics(dec1)}, 0


def _cmd_w2p(args):
    mu = args.mu
    if not math.isfinite(mu):
        raise ValueError(f"w2p requires a finite --mu, got mu={mu:g}")
    if not args.p < mu / 2:
        raise ValueError("w2p requires p < mu/2")
    _check_exponent(args.p)
    m, dec1, members = _prepare(args)
    p_out = mu * args.p / (mu - 2 * args.p)
    scan, half = ct._run(
        members, sg._mapping_scan(dec1, "H^-1", args.p, p_out, members),
        sg._mapping_scan(dec1, "H^-1/2", args.p, mu * args.p / (mu - args.p),
                         members))
    return {"second_order": to_plain(scan), "first_order": to_plain(half),
            "model": m.label, "diagnostics": diagnostics(dec1)}, 0


def _cmd_scaling(args):
    sg._transfer_exponent(args.lam, args.mu, args.p)  # before building
    m, dec1, members = _prepare(args)
    rep = sg.scaling_transfer_check(m, args.lam, args.mu, args.p, members, dec1)
    status = 0 if rep["violations"] == 0 else 2
    return {"transfer": rep, "model": m.label,
            "diagnostics": diagnostics(dec1)}, status


def _cmd_flow(args):
    spec = _ensemble_spec(args)
    times = _parse_times(args.times)
    if min(times) < 0:  # before building
        raise ValueError(f"--times: the time {min(times):g} is before the "
                         f"start time 0 of {args.flow}")
    flow = fl.parse_flow_spec(args.flow, members=spec.size)
    last = max(times)
    if not last < flow.singular_time:
        raise ValueError(f"--times: the largest time {last:g} is not below "
                         f"the singular time {flow.singular_time:g} of "
                         f"{args.flow}")
    if last > 0:  # the horizon is the last time; t = 0 alone keeps the default
        flow = fl.ExactFlow(base=flow.base, t_max=last)
    traj = fl.track(flow, times, args.theorem, args.p, spec, p0=args.p0)
    header = ["t", "vol", "r_max_plus", "kappa", "lambda0", "bracket",
              "worst_ratio", "violations"]
    rows = [[r[k] for k in header] for r in traj.records]
    csv_path = write_csv(_out_dir(args), "flow_trajectory", header, rows)
    trajectory = to_plain(traj)
    results = {"trajectory": trajectory, "csv": str(csv_path),
               "diagnostics": trajectory.pop("diagnostics")}
    return results, (0 if traj.total_violations == 0 else 2)


def _cmd_report(args):
    if not Path(args.dir).is_dir():
        raise ValueError(f"--dir {args.dir}: no such directory")
    entries = []
    for path in sorted(Path(args.dir).glob("*.json")):
        try:
            doc = json.loads(path.read_text(encoding="utf-8"))
        except ValueError:  # not UTF-8, or not JSON
            continue
        if isinstance(doc, dict):  # any other JSON value is not an artifact
            entries.append({"file": path.name, "command": doc.get("command"),
                            "config_sha256": doc.get("config_sha256")})
    return {"artifacts": entries, "count": len(entries)}, 0


# ---------------------------------------------------------------------------

def _add_common(p, *, model=True, seed=True):
    p.add_argument("--out", default=None, help="output directory "
                   "(default $SOBOLAB_OUT or ./sobolab-out)")
    p.add_argument("--config", default=None,
                   help="JSON file with default values for the flags")
    if model:
        p.add_argument("--model", default="torus:n=2,res=32",
                       help='model spec, e.g. "torus:n=3,res=10,L=6.2832"')
    if seed:
        p.add_argument("--seed", type=int, default=None)
        p.add_argument("--size", type=int, default=200)
        p.add_argument("--generator", default="mixed",
                       choices=list(ct.GENERATORS))


class _Parser(argparse.ArgumentParser):
    """Usage errors exit 1 with one line, like every other error (exit 2
    means an inequality check found violations).  Subparsers share the
    class."""

    def error(self, message):
        self.exit(1, f"error: {message}\n")


def _ladder_args(p):
    _add_common(p, model=False, seed=False)
    p.add_argument("--n", type=float, required=True)
    p.add_argument("--p0", type=float, default=2.0)
    p.add_argument("--target", type=float, required=True)


def _bootstrap_args(p):
    _add_common(p, model=False, seed=False)
    p.add_argument("--n", type=float, required=True)
    p.add_argument("--p0", type=float, default=2.0)
    p.add_argument("--A", type=float, required=True)
    p.add_argument("--B", type=float, required=True)
    p.add_argument("--target", type=float, required=True)
    p.add_argument("--precision", type=int, default=None,
                   help="decimal digits for a high-precision regression baseline")


def _estimate_args(p):
    _add_common(p)
    p.add_argument("--p", type=float, required=True)
    p.add_argument("--b-grid", default=",".join(str(b) for b in ct.DEFAULT_B_GRID))


def _verify_args(p):
    _add_common(p)
    p.add_argument("--p", type=float, required=True)
    p.add_argument("--A", type=float, required=True)
    p.add_argument("--B", type=float, required=True)


def _heat_args(p):
    _add_common(p)
    p.add_argument("--t-list", default="0.01,0.1,1.0")
    p.add_argument("--fit-window", default=None,
                   help='log-log fit window "t_low,t_high"')
    p.add_argument("--svg", action="store_true")
    p.add_argument("--spectrum-csv", action="store_true")
    p.add_argument("--beta-csv", action="store_true",
                   help="measure the entropy profile and write (sigma, beta) rows")


def _riesz_args(p):
    _add_common(p)
    p.add_argument("--p", type=float, default=2.0)
    p.add_argument("--a", type=float, default=1.0)


def _w2p_args(p):
    _add_common(p)
    p.add_argument("--p", type=float, default=1.2)
    p.add_argument("--mu", type=float, default=3.0)


def _scaling_args(p):
    _add_common(p)
    p.add_argument("--lam", type=float, default=2.0)
    p.add_argument("--mu", type=float, default=3.0)
    p.add_argument("--p", type=float, default=1.5)


def _flow_args(p):
    _add_common(p, model=False)
    p.add_argument("--flow", default="sphere:r0=1")
    p.add_argument("--times", default="0:0.4:0.05")
    p.add_argument("--theorem", default="a2", choices=list(fl.SELECTORS),
                   help="inequality family selector (see README)")
    p.add_argument("--p", type=float, default=1.5)
    p.add_argument("--p0", type=float, default=None)


def _report_args(p):
    _add_common(p, model=False, seed=False)
    p.add_argument("--dir", default=None)


_COMMANDS = {  # name: (help, the function adding its arguments, body)
    "ladder": ("exponent ladder table", _ladder_args, _cmd_ladder),
    "bootstrap": ("chained constants to a target exponent", _bootstrap_args,
                  _cmd_bootstrap),
    "estimate": ("ensemble Sobolev (A,B) estimate", _estimate_args,
                 _cmd_estimate),
    "verify": ("check a two-term inequality with given constants",
               _verify_args, _cmd_verify),
    "heat": ("semigroup contraction and decay fit", _heat_args, _cmd_heat),
    "riesz": ("Riesz ratio and square-root equivalence scans", _riesz_args,
              _cmd_riesz),
    "w2p": ("second-order mapping-norm scan", _w2p_args, _cmd_w2p),
    "scaling": ("norm-scaling laws and constant transfer", _scaling_args,
                _cmd_scaling),
    "flow": ("track inequality constants along an exact flow", _flow_args,
             _cmd_flow),
    "report": ("index previously written artifacts", _report_args,
               _cmd_report),
}


def build_parser(command: str | None = None
                 ) -> tuple[argparse.ArgumentParser, dict]:
    """The parser and each command's subparser.  Every command is
    registered, but only the named command's arguments are added (every
    command's with none): each argument costs argparse a help formatter."""
    ap = _Parser(
        prog="sobolab",
        description="Numerical laboratory for Sobolev constants on "
                    "discretized manifolds.")
    sub = ap.add_subparsers(dest="command", required=True)
    command_parsers = {}
    for name, (text, add_arguments, _) in _COMMANDS.items():
        command_parsers[name] = sub.add_parser(name, help=text)
        if command in (None, name):
            add_arguments(command_parsers[name])
    return ap, command_parsers


def _config_value(action, value):
    """A config value as its flag would parse it: a switch takes a JSON
    boolean; any other flag passes str(value) through its type and choices."""
    if action.nargs == 0:
        if not isinstance(value, bool):
            raise ValueError(f"{value!r} is not true or false")
        return value
    value = (action.type or str)(str(value))
    if action.choices is not None and value not in action.choices:
        raise ValueError(f"{value!r} is not one of {list(action.choices)}")
    return value


def _apply_config_file(parser, args) -> None:
    """Config values fill any flag still at its parser default; flags win.

    A JSON null leaves the default; a bad file, a key naming no flag of the
    command or a bad value is a ValueError naming it.
    """
    if not getattr(args, "config", None):
        return
    try:
        defaults = json.loads(Path(args.config).read_text())
    except (OSError, ValueError) as exc:
        raise ValueError(f"config file {args.config}: {exc}") from None
    if not isinstance(defaults, dict):
        raise ValueError(f"config file {args.config} must hold a JSON object")
    actions = {action.dest: action for action in parser._actions}
    for key, value in defaults.items():
        action = actions.get(key.replace("-", "_"))
        if action is None:
            raise ValueError(f"config key {key!r} names no flag of {parser.prog}")
        if value is None or getattr(args, action.dest, None) != action.default:
            continue
        try:
            setattr(args, action.dest, _config_value(action, value))
        except ValueError as exc:
            raise ValueError(f"config key {key!r}: {exc}") from None


def main(argv=None) -> int:
    _keep_chunk_pages()
    argv = sys.argv[1:] if argv is None else list(argv)
    parser, command_parsers = build_parser(
        argv[0] if argv and argv[0] in _COMMANDS else None)
    args = parser.parse_args(argv)
    try:
        _apply_config_file(command_parsers[args.command], args)
        if args.command == "report" and args.dir is None:
            args.dir = str(_out_dir(args))
        config = {k: v for k, v in sorted(vars(args).items())
                  if k not in ("command", "out", "config")}
        results, status = _COMMANDS[args.command][2](args)
        if "seed" in config:  # the command drew an ensemble
            results["ensemble"] = {"decay": ct.BAND_DECAY, "bumps": ct.BUMP_COUNT,
                                   "modes": ct.SPECTRAL_MODES}
        payload = _payload(args.command, config, results)
        path = write_artifact(_out_dir(args), args.command, payload)
    except (ValueError, RuntimeError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    try:
        print(path)  # first line: the artifact path; then the full results JSON
        print(json.dumps(payload["results"], indent=2, sort_keys=True))
        sys.stdout.flush()
    except BrokenPipeError:
        # the reader closed stdout (e.g. `| head -1`); the artifact is written,
        # and the interpreter's final flush must not hit the pipe again
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
    return status


if __name__ == "__main__":
    sys.exit(main())
