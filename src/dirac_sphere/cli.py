"""Command-line interface: config ingestion, dispatch, CSV/JSON emission.

Commands: spectrum, potential, wavefunction, verify, figures.  A single JSON
config document drives each run; unknown keys are rejected so typos in
physics parameters cannot pass silently.  The config chooses the model only
by the parameter set it builds (RunConfig.params); every command reads that
model's formulas from oracle.model_spec, the spec the report uses.  Exit
codes: 0 ok, 1 config error, 2 non-physical parameter construction, 3 strict
verification failure.

One document serves every command, so a config key a command does not read
is still accepted.  A flag is typed for one run: each command declares only
the overrides whose settings it reads (--k for all; --levels for spectrum,
verify and figures; --grid-L/--grid-N for potential, wavefunction and
figures, since verify reads no grid; --strict for verify), and any other
flag, or a flag's prefix, is a config error.

All files are written atomically (temp + rename), with LF line endings and
'.' decimal points; curve files are two-column CSV, sampled in one pass over
the grid, reports are JSON.  The default output directory comes from --out,
then the config, then the DIRAC_SPHERE_OUT environment variable, then the
working directory.

Each call builds the parser of the one command its arguments name (of all
five when they name none); _json_text writes every JSON file, as json.dumps
would with indent=2.  --help leaves this last paragraph out.
"""
import argparse
import gc
import json
import math
import os
import shutil
import sys
from dataclasses import dataclass
from typing import Optional

import numpy as np

from .errors import ConfigError, DiracSphereError, DomainError, PoleError
from .gauge import BRANCH_LABELS, Model1Params, alpha_beta, model2_derive_params
from .oracle import GALERKIN_MAX_LEVELS, Grid, _require_finite, consistency_report, model_spec

__all__ = ["RunConfig", "main", "console_main"]

_DEFAULT_GRID = {"L": 12.0, "N": 4001}


@dataclass
class RunConfig:
    """Validated run configuration; see README for the JSON schema."""

    model: int
    R: float
    k: float
    levels: int = 4
    grid: Grid = Grid(**_DEFAULT_GRID)
    # the model1/model2 block as parse_config validated it, defaults filled
    # in: {C1, branch}, {C1, alpha, beta} or {C1, sign_a, sign_b}
    block: Optional[dict] = None
    out: Optional[str] = None
    strict: bool = False

    def params(self):
        """The model's parameter set; oracle.model_spec turns it into formulas."""
        b = self.block
        if self.model == 1:
            return Model1Params.from_branch(b["C1"], self.k, b["branch"])
        if "alpha" in b:
            al, be = b["alpha"], b["beta"]
        else:
            al, be = alpha_beta(self.k, b["sign_a"], b["sign_b"])
        return model2_derive_params(b["C1"], be - al, be + al, self.k)

    def echo(self):
        """The physics fields the report reads (no grid), for deterministic provenance."""
        return {
            "model": self.model,
            "R": self.R,
            "k": self.k,
            "levels": self.levels,
            f"model{self.model}": dict(self.block),
        }


def _require(doc, key, kind, where):
    if key not in doc:
        raise ConfigError(f"missing required key {where}{key}")
    val = doc[key]
    if kind is float:
        if isinstance(val, bool) or not isinstance(val, (int, float)):
            raise ConfigError(f"{where}{key} must be a number, got {val!r}")
        val = float(val)
        if not math.isfinite(val):
            raise ConfigError(f"{where}{key} must be finite, got {val!r}")
        return val
    if kind is int:
        if isinstance(val, bool) or not isinstance(val, int):
            raise ConfigError(f"{where}{key} must be an integer, got {val!r}")
        return val
    return val


def _reject_unknown(doc, allowed, where):
    for key in doc:
        if key not in allowed:
            raise ConfigError(f"unknown key {where}{key}")


def parse_config(doc) -> RunConfig:
    """Validate a decoded JSON document into a RunConfig."""
    if not isinstance(doc, dict):
        raise ConfigError("config must be a JSON object")
    _reject_unknown(
        doc,
        {"model", "R", "k", "levels", "grid", "model1", "model2", "out", "strict"},
        "",
    )
    model = _require(doc, "model", int, "")
    if model not in (1, 2):
        raise ConfigError(f"model must be 1 or 2, got {model}")
    r = _require(doc, "R", float, "")
    if r <= 0:
        raise ConfigError(f"R must be positive, got {r}")
    k = _require(doc, "k", float, "")
    cfg = RunConfig(model=model, R=r, k=k)
    if "levels" in doc:
        cfg.levels = _require(doc, "levels", int, "")
        if cfg.levels < 1:
            raise ConfigError(f"levels must be >= 1, got {cfg.levels}")
    if "grid" in doc:
        g = doc["grid"]
        if not isinstance(g, dict):
            raise ConfigError("grid must be an object with keys L and N")
        _reject_unknown(g, {"L", "N"}, "grid.")
        try:
            cfg.grid = Grid(_require(g, "L", float, "grid."), _require(g, "N", int, "grid."))
        except DomainError as exc:
            raise ConfigError(f"grid: {exc}") from exc
    if "out" in doc:
        if not isinstance(doc["out"], str):
            raise ConfigError("out must be a string path")
        cfg.out = doc["out"]
    if "strict" in doc:
        if not isinstance(doc["strict"], bool):
            raise ConfigError("strict must be a boolean")
        cfg.strict = doc["strict"]

    if model == 1:
        if "model2" in doc:
            raise ConfigError("model-1 config must not carry a model2 block")
        block = doc.get("model1")
        if not isinstance(block, dict):
            raise ConfigError("model-1 config needs a model1 object")
        _reject_unknown(block, {"C1", "branch"}, "model1.")
        c1 = _require(block, "C1", float, "model1.")
        branch = _require(block, "branch", str, "model1.")
        if branch not in BRANCH_LABELS:
            raise ConfigError(
                f"model1.branch must be one of {sorted(BRANCH_LABELS)}, got {branch!r}"
            )
        cfg.block = {"C1": c1, "branch": branch}
    else:
        if "model1" in doc:
            raise ConfigError("model-2 config must not carry a model1 block")
        block = doc.get("model2")
        if not isinstance(block, dict):
            raise ConfigError("model-2 config needs a model2 object")
        _reject_unknown(block, {"C1", "sign_a", "sign_b", "alpha", "beta"}, "model2.")
        if "alpha" in block or "beta" in block:
            if not ("alpha" in block and "beta" in block):
                raise ConfigError("model2 needs both alpha and beta when either is given")
            if "sign_a" in block or "sign_b" in block:
                raise ConfigError("model2 takes either alpha/beta or sign_a/sign_b, not both")
            pair = {key: _require(block, key, float, "model2.") for key in ("alpha", "beta")}
        else:
            pair = {"sign_a": block.get("sign_a", "-"), "sign_b": block.get("sign_b", "+")}
            for key, val in pair.items():
                if val not in ("+", "-"):
                    raise ConfigError(f"model2.{key} must be '+' or '-', got {val!r}")
        if "C1" in block:
            c1 = _require(block, "C1", float, "model2.")
        elif k == 0:
            raise ConfigError("model2.C1 is required when k = 0")
        else:
            c1 = 1.0 / k  # the value at which the solvable identity closes
        cfg.block = {"C1": c1, **pair}
    return cfg


def _read_config(path):
    try:
        with open(path, "r", encoding="utf-8") as fh:
            return json.load(fh)
    except OSError as exc:
        raise ConfigError(f"cannot read config {path}: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise ConfigError(f"config {path} is not valid JSON (line {exc.lineno}): {exc.msg}") from exc


def _atomic_write(path, text):
    """Write text to path by a temp file (opened 0666, so the umask sets the mode) and a rename.
    A path that cannot be written is a ConfigError naming it and the OS error."""
    d = os.path.dirname(path) or "."
    tmp = os.path.join(d, f".tmp-{os.urandom(6).hex()}")
    try:
        os.makedirs(d, exist_ok=True)
        fd = os.open(tmp, os.O_WRONLY | os.O_CREAT | os.O_EXCL | getattr(os, "O_BINARY", 0), 0o666)
        with os.fdopen(fd, "w", encoding="utf-8", newline="\n") as fh:
            fh.write(text)
        os.replace(tmp, path)
    except BaseException as exc:
        if os.path.exists(tmp):
            os.unlink(tmp)
        if isinstance(exc, OSError):
            raise ConfigError(f"cannot write {path}: {exc}") from exc
        raise


def _fmt(x):
    return "nan" if x is None else repr(float(x))


_encode_str = json.encoder.encode_basestring_ascii
_FLOAT_WORDS = {"nan": "NaN", "inf": "Infinity", "-inf": "-Infinity"}


def _json_text(obj, indent="\n"):
    """json.dumps(obj, indent=2, allow_nan=True), byte for byte, without the
    pure-Python encoder json falls back to when it indents.  Takes str, int,
    float, bool, None, lists, tuples and dicts with str keys; anything else,
    a non-str key included, raises TypeError."""
    if isinstance(obj, str):
        return _encode_str(obj)
    if obj is None:
        return "null"
    if isinstance(obj, bool):
        return "true" if obj else "false"
    if isinstance(obj, int):
        return int.__repr__(obj)
    if isinstance(obj, float):
        text = float.__repr__(obj)
        return _FLOAT_WORDS.get(text, text)
    inner = indent + "  "
    if isinstance(obj, (list, tuple)):
        items = [_json_text(val, inner) for val in obj]
        return "[" + inner + ("," + inner).join(items) + indent + "]" if items else "[]"
    if isinstance(obj, dict):  # _encode_str raises TypeError on a key that is no str
        items = [_encode_str(key) + ": " + _json_text(val, inner) for key, val in obj.items()]
        return "{" + inner + ("," + inner).join(items) + indent + "}" if items else "{}"
    raise TypeError(f"Object of type {type(obj).__name__} is not JSON serializable")


def _write_csv(path, header, rows):
    lines = [",".join(header)]
    for row in rows:
        lines.append(",".join(str(c) for c in row))
    _atomic_write(path, "\n".join(lines) + "\n")


def _resolve_out(cfg: Optional[RunConfig], cli_out):
    if cli_out:
        return cli_out
    if cfg is not None and cfg.out:
        return cfg.out
    return os.environ.get("DIRAC_SPHERE_OUT", ".")


def _spectrum_rows(cfg: RunConfig):
    spec = model_spec(cfg.params(), cfg.k, cfg.R)
    rows = []
    for ln in map(spec.printed, range(cfg.levels)):
        rows.append(
            [
                ln.level,
                _fmt(ln.E_sq_bar),
                _fmt(ln.E_minus),
                _fmt(ln.E_plus),
                "true" if ln.physical else "false",
                ln.reason or "",
            ]
        )
    return rows


_SPECTRUM_HEADER = ["level", "E_sq_bar", "E_minus", "E_plus", "physical", "reason"]


def cmd_spectrum(cfg: RunConfig, outdir):
    path = os.path.join(outdir, "spectrum.csv")
    _write_csv(path, _SPECTRUM_HEADER, _spectrum_rows(cfg))
    return [path]


def _curve(cfg: RunConfig, which):
    """The curve A_u, Veff1 or Veff2 as a callable of w, and the model's poles."""
    spec = model_spec(cfg.params(), cfg.k, cfg.R)
    fn = {"A_u": spec.A, "Veff1": spec.closed1, "Veff2": spec.closed2}[which]
    return fn, spec.poles


def _write_curve(cfg: RunConfig, fn, poles, path):
    """Write fn sampled on the grid as a (w, value) CSV; return the paths written.

    fn is evaluated once on the whole grid.  Each pole inside the grid adds a
    `w,nan` gap-marker row, in sorted order, and the poles are named in a
    `*_poles.json` sidecar next to the CSV.  When a node sits on a pole (fn
    raises PoleError), the node nearest each pole is dropped and fn evaluated
    once more: the pole's marker row stands for that node.  Any other sample
    that is not finite is refused with PoleError, whatever the warnings
    filter (fn runs with numpy's warnings off), so `nan` marks only poles.
    """
    w = cfg.grid.points()
    poles = [p0 for p0 in poles if abs(p0) <= cfg.grid.L]
    with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
        try:
            vals = fn(w)
        except PoleError:
            keep = np.ones(w.size, dtype=bool)
            keep[[np.abs(w - p0).argmin() for p0 in poles]] = False
            w = w[keep]
            vals = fn(w)
    _require_finite(w, vals, "curve sample")
    rows = [[_fmt(wi), _fmt(vi)] for wi, vi in zip(w, vals)]
    rows += [[_fmt(p0), "nan"] for p0 in poles]
    rows.sort(key=lambda r: float(r[0]))
    _write_csv(path, ["w", "value"], rows)
    if not poles:
        return [path]
    side = path[: -len(".csv")] + "_poles.json"
    _atomic_write(side, _json_text({"poles_w": [float(p0) for p0 in poles]}) + "\n")
    return [path, side]


def cmd_potential(cfg: RunConfig, which, outdir):
    fn, poles = _curve(cfg, which)
    return _write_curve(cfg, fn, poles, os.path.join(outdir, f"potential_{which.lower()}.csv"))


def cmd_wavefunction(cfg: RunConfig, level, polynomial, outdir):
    """One eigenfunction reading sampled on the grid.  The file name carries
    the reading only when the model has more than one.

    A `*_norm.json` sidecar always says whether the curve is normalized and
    how the norm was decided: `norm_rule`/`norm_nodes` for a finite norm, or
    `norm_divergence` (the analytic reason) for the raw printed form.  The
    norm is read before the curve is sampled, so a norm no rule resolves
    (IntegrationError) writes nothing.
    """
    if level < 0:
        raise ConfigError(f"--level must be a non-negative integer, got {level}")
    spec = model_spec(cfg.params(), cfg.k, cfg.R)
    if polynomial not in spec.eigenfunctions:
        raise ConfigError(
            f"model {spec.model} has no {polynomial!r} eigenfunction reading; "
            f"it has {', '.join(spec.eigenfunctions)}"
        )
    wf = spec.eigenfunctions[polynomial][1](level)
    norm = {"normalized": wf.norm_finite, **wf.norm_details()}
    suffix = f"_{polynomial}" if len(spec.eigenfunctions) > 1 else ""
    # a Model-II envelope denominator alpha + beta + (alpha - beta) t vanishes
    # (and raises PoleError) where the profile's does: at tanh w = a2/a1, the
    # pole spec.poles holds
    path = os.path.join(outdir, f"wavefunction_l{level}{suffix}.csv")
    written = _write_curve(cfg, wf.eval, spec.poles, path)
    side = path[: -len(".csv")] + "_norm.json"
    _atomic_write(side, _json_text(norm) + "\n")
    return written + [side]


_REPORT_SCHEMA = "dirac-sphere-verification/1"


def cmd_verify(cfg: RunConfig, outdir):
    if cfg.levels > GALERKIN_MAX_LEVELS:
        raise ConfigError(
            f"levels must be at most {GALERKIN_MAX_LEVELS}, the most the Galerkin oracle's "
            f"basis cap serves, got {cfg.levels}"
        )
    report = consistency_report(cfg.params(), cfg.k, cfg.R, levels=cfg.levels)
    doc = {"schema": _REPORT_SCHEMA, "config": cfg.echo(), "report": report.as_dict()}
    path = os.path.join(outdir, f"verify_model{cfg.model}.json")
    _atomic_write(path, _json_text(doc) + "\n")
    failures = report.forced_failures()
    if cfg.strict and failures:
        ids = ", ".join(c.claim_id for c in failures)
        print(f"strict mode: forced claim(s) failed: {ids}", file=sys.stderr)
        return [path], 3
    return [path], 0


_FIG2_NOTE = """Data behind the second figure set.

The published caption for this figure states no parameter values.  The files
here use the documented defaults: k = 2, the nonsingular branch with
alpha = 1, beta = 1/3 (signs -, +), C1 = 1/k = 0.5, R = 1.  They are a
reasonable reconstruction, not a reproduction.
"""

_FIGURE_DOC = {"R": 1.0, "k": 2.0, "levels": 6, "grid": {"L": 6.0, "N": 1201}}
# figure -> (config document, changes for the spectrum panel, extra text files)
_FIGURES = {
    "fig1": (
        dict(_FIGURE_DOC, model=1, model1={"C1": 0.4, "branch": "half-up"}),
        {"k": 200.0},  # the spectrum panel is drawn at large wave number
        {},
    ),
    "fig2": (
        dict(_FIGURE_DOC, model=2, model2={"sign_a": "-", "sign_b": "+"}),
        {},
        {"provenance.txt": _FIG2_NOTE},
    ),
}


def cmd_figures(which, overrides, outdir):
    """Write one figure set; overrides replace keys of its config document.

    The set is written into a temporary directory under outdir, and its
    files are renamed into outdir/<which> only once every one is written, so
    a refused curve, or an output path that cannot be written (ConfigError),
    leaves nothing behind.  An existing outdir/<which> keeps any file the set
    does not replace.
    """
    if which not in _FIGURES:
        raise ConfigError(f"figures takes fig1 or fig2, got {which!r}")
    base, spectrum_changes, notes = _FIGURES[which]
    doc = dict(base, **overrides)
    cfg = parse_config(doc)
    spectrum_cfg = parse_config(dict(doc, **spectrum_changes))
    d = os.path.join(outdir, which)
    tmp = os.path.join(outdir, f".tmp-{which}-{os.urandom(6).hex()}")
    try:
        os.makedirs(outdir, exist_ok=True)
        os.mkdir(tmp)
        written = []
        for curve in ("A_u", "Veff1", "Veff2"):
            fn, poles = _curve(cfg, curve)
            written += _write_curve(cfg, fn, poles, os.path.join(tmp, f"{curve.lower()}.csv"))
        written += cmd_spectrum(spectrum_cfg, tmp)
        for name, text in notes.items():
            path = os.path.join(tmp, name)
            _atomic_write(path, text)
            written.append(path)
        os.makedirs(d, exist_ok=True)
        written = [os.path.join(d, os.path.basename(path)) for path in written]
        for path in written:
            os.replace(os.path.join(tmp, os.path.basename(path)), path)
        os.rmdir(tmp)
    except BaseException as exc:
        shutil.rmtree(tmp, ignore_errors=True)
        if isinstance(exc, OSError):
            raise ConfigError(f"cannot write {d}: {exc}") from exc
        raise
    return written


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        raise ConfigError(message)


# The config overrides a command may declare: each replaces one setting of the
# config document, and a command declares only those whose settings it reads.
_OVERRIDES = {
    "--k": dict(type=float, help="override the wave number"),
    "--levels": dict(type=int, help="override the level count"),
    "--grid-L": dict(type=float, dest="grid_L", help="override the grid half-width"),
    "--grid-N": dict(type=int, dest="grid_N", help="override the interior point count"),
    # default None, not False: an absent --strict leaves the config's strict
    "--strict": dict(action="store_true", default=None,
                     help="fail (exit 3) if a forced claim fails"),
}


def _overrides(args, doc):
    """The config-document keys the command-line flags replace in doc.

    A command's namespace holds only the overrides it declares.  The merged
    document goes through parse_config, so an override obeys the same rules
    as the config file.  A --k on a sign-branch model-2 document drops its
    C1, which parse_config then re-derives as 1/k.
    """
    flags = vars(args)
    out = {key: flags[key] for key in ("k", "levels", "strict") if flags.get(key) is not None}
    if "k" in out:
        block = doc.get("model2")
        if isinstance(block, dict) and "alpha" not in block and "beta" not in block:
            out["model2"] = {key: val for key, val in block.items() if key != "C1"}
    grid = {key: flags[f"grid_{key}"] for key in ("L", "N") if flags.get(f"grid_{key}") is not None}
    if grid:
        base = doc.get("grid", _DEFAULT_GRID)
        out["grid"] = dict(base, **grid) if isinstance(base, dict) else base
    return out


# name: (help text, the overrides it declares, whether it reads --config, its own arguments)
_COMMANDS = {
    "spectrum": ("emit the closed-form level table", ("--levels",), True, ()),
    "potential": ("emit a sampled curve of A_u or an effective potential", ("--grid-L", "--grid-N"),
                  True, [("--which", dict(choices=["A_u", "Veff1", "Veff2"], default="Veff1"))]),
    "wavefunction": ("emit grid samples of a closed-form eigenfunction", ("--grid-L", "--grid-N"),
                     True, [("--level", dict(type=int, default=0)),
                            ("--polynomial", dict(choices=["classical", "x1"], default="classical",
                                                  help="polynomial interpretation (model 2 only)"))]),
    "verify": ("run the oracle consistency report", ("--levels", "--strict"), True, ()),
    # figures takes no --config: its documents are fixed
    "figures": ("emit the data behind the published figure sets", ("--levels", "--grid-L", "--grid-N"),
                False, [("which", dict(choices=sorted(_FIGURES)))]),
}


def _parser(argv):
    """The parser, with the subparser of the command argv[0] names, or of every
    command when it names none, so that the listing and the invalid-choice
    message still name all five."""
    # the docstring's last paragraph is about the code, not the commands
    parser = _Parser(prog="dirac-sphere", description=__doc__.rsplit("\n\n", 1)[0], allow_abbrev=False)
    sub = parser.add_subparsers(dest="command", required=True)
    names = argv[:1] if argv[:1] and argv[0] in _COMMANDS else _COMMANDS
    for name in names:
        help_text, overrides, config, own = _COMMANDS[name]
        sp = sub.add_parser(name, help=help_text, allow_abbrev=False)
        if config:
            sp.add_argument("--config", required=True, help="path to the JSON run configuration")
        sp.add_argument("--out", help="output directory (overrides config and environment)")
        for flag in ("--k",) + overrides:
            sp.add_argument(flag, **_OVERRIDES[flag])
        for flag, kwargs in own:
            sp.add_argument(flag, **kwargs)
    return parser


def main(argv=None):
    argv = sys.argv[1:] if argv is None else argv
    parser = _parser(argv)
    try:
        args = parser.parse_args(argv)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 1

    try:
        code = 0
        if args.command == "figures":
            overrides = _overrides(args, _FIGURES[args.which][0])
            written = cmd_figures(args.which, overrides, _resolve_out(None, args.out))
        else:
            doc = _read_config(args.config)
            if isinstance(doc, dict):
                doc = dict(doc, **_overrides(args, doc))
            cfg = parse_config(doc)
            outdir = _resolve_out(cfg, args.out)
            if args.command == "spectrum":
                written = cmd_spectrum(cfg, outdir)
            elif args.command == "potential":
                written = cmd_potential(cfg, args.which, outdir)
            elif args.command == "wavefunction":
                written = cmd_wavefunction(cfg, args.level, args.polynomial, outdir)
            else:
                written, code = cmd_verify(cfg, outdir)
        for path in written:
            print(path)
        return code
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 1
    except DiracSphereError as exc:
        print(f"construction error: {exc}", file=sys.stderr)
        return 2


def console_main():
    """The process entry of `dirac-sphere` and `python -m dirac_sphere.cli`.

    Runs main() on the command line, then freezes the objects the garbage
    collector tracks (gc.freeze) before the interpreter shuts down, so its
    exit-time collections skip the tens of thousands of objects numpy and
    scipy leave behind; no output depends on them.  main() itself changes no
    process-wide state, because tests and warm callers run it in-process.
    """
    code = main()
    gc.freeze()
    return code


if __name__ == "__main__":  # pragma: no cover
    sys.exit(console_main())
