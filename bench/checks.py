"""Correctness checks on the files one `verify` invocation wrote.

The checks are derived from the documented report format, not from the
program: the schema, the claim-id list for a model and level count, and
forced (f.*) claims passing.
"""
import json
import os

from workloads import expected_claim_ids

REPORT_SCHEMA = "dirac-sphere-verification/1"


class CheckError(Exception):
    """An output violates its documented format."""


def written_files(outdir):
    """Relative paths of every regular file under outdir."""
    found = set()
    for base, _, names in os.walk(outdir):
        for name in names:
            found.add(os.path.relpath(os.path.join(base, name), outdir).replace(os.sep, "/"))
    return found


def read_report(inv, outdir):
    """Bytes of the report; raises CheckError if anything else was written."""
    found = written_files(outdir)
    if found != {inv.report}:
        raise CheckError(f"{inv.name}: wrote {sorted(found)}, expected [{inv.report!r}]")
    with open(os.path.join(outdir, inv.report), "rb") as fh:
        return fh.read()


def check_report(inv, data):
    """Validate a verify report; returns the decoded document."""
    doc = json.loads(data.decode("utf-8"))
    if doc.get("schema") != REPORT_SCHEMA:
        raise CheckError(f"{inv.name}: schema {doc.get('schema')!r}")
    claims = doc["report"]["claims"]
    ids = [c["claim_id"] for c in claims]
    expected = expected_claim_ids(inv.model, inv.levels)
    if ids != expected:
        raise CheckError(f"{inv.name}: claim ids {ids} != expected {expected}")
    bad = [c["claim_id"] for c in claims if c["claim_id"].startswith("f.") and c["verdict"] != "pass"]
    if bad:
        raise CheckError(f"{inv.name}: forced claims not passing: {bad}")
    return doc
