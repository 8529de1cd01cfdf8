#!/usr/bin/env python3
"""Print `sha256 exit-code name` for the `verify` report of each
configuration in a fixed matrix, each run in-process through cli.main, and
after it one line `digest exit-code name:family` per claim family of the
report (f, conventions, a, b, c, d, e, g; the family is the claim id up to
its first dot), in report order: the first 16 hex digits of the sha256 of
the family's claims as JSON.

The matrix: both examples at 1, 4, 12, 30 and 60 levels; Model II at
k = 1.5, 3 and 4 with 12 levels; Model II at k = 3 with 12 levels given
by an explicit alpha/beta block, the (-,+) pair (0.5, 0.25) written out;
Model II's (+,-) sign branch at k = 2.5, 3 and 5, at 4 and 12 levels;
Model I on all four branches at 8 and 12 levels.  Two runs that print the
same lines wrote the same reports with the same exit codes, so diffing the
output compares every report across BLAS thread counts
(OPENBLAS_NUM_THREADS), CPU pinning (taskset) or source trees
(PYTHONPATH=<tree>/src), and the family lines that differ name the claim
families a change moved.  A run that exits non-zero writes no report: its
digest reads "-", and no family line follows.

    PYTHONPATH=src python scripts/verify_digests.py
"""
import contextlib
import hashlib
import io
import json
import os
import tempfile

from dirac_sphere import cli

EXAMPLES = os.path.join(os.path.dirname(os.path.abspath(__file__)), "..", "examples")


def _variant(example, block, tmp, name):
    """The path of a copy of the example whose model block is block,
    written under tmp."""
    with open(os.path.join(EXAMPLES, example), encoding="utf-8") as fh:
        doc = json.load(fh)
    doc[f"model{doc['model']}"] = block
    path = os.path.join(tmp, f"{name}.json")
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(doc, fh)
    return path


def matrix(tmp):
    """(name, model, verify arguments) per report, in print order."""
    runs = []
    for model in (1, 2):
        cfg = os.path.join(EXAMPLES, f"model{model}.json")
        runs += [(f"model{model}.lv{lv}", model, ["--config", cfg, "--levels", str(lv)]) for lv in (1, 4, 12, 30, 60)]
    for k in ("1.5", "3", "4"):
        runs.append((f"model2.k{k}.lv12", 2, ["--config", os.path.join(EXAMPLES, "model2.json"), "--k", k, "--levels", "12"]))
    explicit = _variant("model2.json", {"alpha": 0.5, "beta": 0.25}, tmp, "alpha-beta")
    runs.append(("model2.alpha-beta.k3.lv12", 2, ["--config", explicit, "--k", "3", "--levels", "12"]))
    plus_minus = _variant("model2.json", {"sign_a": "+", "sign_b": "-"}, tmp, "plus-minus")
    for k in ("2.5", "3", "5"):
        runs += [(f"model2.pm.k{k}.lv{lv}", 2, ["--config", plus_minus, "--k", k, "--levels", str(lv)]) for lv in (4, 12)]
    for branch in ("neg-half", "half-down", "half-up", "three-half"):
        cfg = _variant("model1.json", {"C1": 0.4, "branch": branch}, tmp, branch)
        runs += [(f"model1.{branch}.lv{lv}", 1, ["--config", cfg, "--levels", str(lv)]) for lv in (8, 12)]
    return runs


def family_digests(doc):
    """{family: short digest of its claims}, in report order, for the
    report document doc."""
    families = {}
    for claim in doc["report"]["claims"]:
        families.setdefault(claim["claim_id"].split(".", 1)[0], []).append(claim)
    return {
        family: hashlib.sha256(json.dumps(claims).encode("utf-8")).hexdigest()[:16]
        for family, claims in families.items()
    }


def main():
    with tempfile.TemporaryDirectory() as tmp:
        for name, model, args in matrix(tmp):
            out = os.path.join(tmp, name)
            with contextlib.redirect_stdout(io.StringIO()):  # main prints the paths it wrote
                code = cli.main(["verify", *args, "--out", out])
            path = os.path.join(out, f"verify_model{model}.json")
            if code:
                print("-", code, name)
                continue
            with open(path, "rb") as fh:
                data = fh.read()
            print(hashlib.sha256(data).hexdigest(), code, name)
            for family, digest in family_digests(json.loads(data)).items():
                print(digest, code, f"{name}:{family}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
