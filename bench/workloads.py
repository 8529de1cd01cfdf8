"""Workload definitions: the fixed config lists and the `verify` invocations built on them.

Each workload is a list of invocations.  A run covers the whole list in every
pass, so every seed does the same work; the seed only shuffles the order of
each pass.  Configs are plain JSON documents written into the run's work
directory, so the program receives nothing but generated inputs.
"""
from dataclasses import dataclass
from typing import List, Optional, Tuple

# The two configurations the README documents (Model I half-up, Model II on
# the nonsingular (-, +) branch with C1 = 1/k), at the default grid.
M1_DEFAULT = {
    "model": 1,
    "R": 1.0,
    "k": 2.0,
    "levels": 4,
    "grid": {"L": 12.0, "N": 4001},
    "model1": {"C1": 0.4, "branch": "half-up"},
}
M2_DEFAULT = {
    "model": 2,
    "R": 1.0,
    "k": 2.0,
    "levels": 4,
    "grid": {"L": 12.0, "N": 4001},
    "model2": {"sign_a": "-", "sign_b": "+"},
}

BRANCHES = ("neg-half", "half-down", "half-up", "three-half")
MANY_LEVELS_K = (1.5, 2.0, 3.0, 4.0)


def _with(doc, **changes):
    out = {key: (dict(val) if isinstance(val, dict) else val) for key, val in doc.items()}
    for key, val in changes.items():
        if key in ("grid", "model1", "model2"):
            out[key] = dict(out[key], **val)
        else:
            out[key] = val
    return out


@dataclass
class Invocation:
    """One `verify --config <config> --out <dir>` call and the report it must write."""

    name: str
    config: dict
    report: str  # file name of the report in the output directory
    model1_key: Optional[Tuple[float, float, str]]  # (C1, k, branch) when a reference exists
    levels: int
    model: int


def _verify(name, doc):
    model = doc["model"]
    key = None
    if model == 1:
        key = (doc["model1"]["C1"], doc["k"], doc["model1"]["branch"])
    return Invocation(
        name=name,
        config=doc,
        report=f"verify_model{model}.json",
        model1_key=key,
        levels=doc["levels"],
        model=model,
    )


@dataclass(frozen=True)
class Workload:
    name: str
    invocations: List[Invocation]
    # Warm in-process calls per fresh-process call.  verify-many-levels needs
    # 2 for a compute tail above p50; the others keep 1, since a second warm
    # call would cost verify-fine-grid the fresh samples its wall tail needs.
    warm_reps: int = 1


def _many_levels():
    out = []
    for k in MANY_LEVELS_K:
        out.append(_verify(f"verify.m2.k{k}.lv12", _with(M2_DEFAULT, k=k, levels=12)))
    for b in BRANCHES:
        out.append(_verify(f"verify.m1.{b}.lv12", _with(M1_DEFAULT, levels=12, model1={"branch": b})))
    return out


def _fine_grid():
    return [
        _verify(
            f"verify.m1.{b}.N16001",
            _with(M1_DEFAULT, levels=8, grid={"N": 16001}, model1={"branch": b}),
        )
        for b in BRANCHES
    ]


WORKLOADS = {
    "verify-default": Workload(
        "verify-default",
        [_verify("verify.m1.default", M1_DEFAULT), _verify("verify.m2.default", M2_DEFAULT)],
    ),
    "verify-many-levels": Workload("verify-many-levels", _many_levels(), warm_reps=2),
    "verify-fine-grid": Workload("verify-fine-grid", _fine_grid()),
}


def expected_claim_ids(model, levels):
    """Claim ids, in report order, for a model and level count."""
    ids = [
        "f.matrix-symmetry",
        "f.isospectrality",
        "conventions.factorization-match",
        "a.veff1-expansion",
        "b.veff1-constrained",
        "b.veff2-constrained",
    ]
    ids += [f"c.spectrum.m{n}" for n in range(levels)]
    if model == 1:
        ids += [f"d.eigenfunction.m{n}" for n in range(levels)]
    else:
        for m in range(levels):
            ids += [f"d.eigenfunction.classical.m{m}", f"d.eigenfunction.x1.m{m}"]
    ids += [f"e.partner.m{m}" for m in range(1, levels)]
    if model == 1:
        ids.append("g.local-energy-constancy")
    else:
        ids += ["g.midya-rhs.sech2", "g.midya-rhs.sech1"]
    return ids
