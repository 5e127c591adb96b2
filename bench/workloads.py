"""Benchmark workloads: seeded configs and the correctness gate of each op.

Why each workload exists is in ``NOTES.md``.  The closed forms below are
the unit-source solutions of ``div(grad u) = 1`` with ``u = 0`` on the
boundary, i.e. the ``dirichlet_affine [0.5, 1.0]`` model; they are written
out here rather than imported from the test suite.
"""

import copy
import hashlib
import math
import random
import re
from dataclasses import dataclass, field

import numpy as np
import yaml

TORSION = {"name": "dirichlet_affine", "parameters": [0.5, 1.0]}

#: |u - closed form| allowed on the disc: the cut-cell scheme is exact on
#: quadratics, so only rounding of the sparse solve remains (about 2e-13
#: at h = 1/256)
DISC_ROUNDING_TOL = 1e-10


@dataclass(frozen=True)
class Workload:
    name: str
    verb: str                   # "solve": op = emlab solve; "verify": op = emlab verify --in
    base: dict = field(repr=False)
    closed_form: str = None     # "disc", "annulus" or None

    @property
    def spacing(self):
        return float(self.base["spacing"])

    def config(self, seed):
        """The run configuration for ``seed``: the shape centre moves by a
        sub-cell offset drawn uniformly from [0, h)^2."""
        rng = random.Random(seed)
        h = self.spacing
        cfg = copy.deepcopy(self.base)
        cfg["shape"]["center"] = [rng.random() * h, rng.random() * h]
        return cfg


WORKLOADS = {w.name: w for w in [
    Workload(
        name="disc_torsion_h256",
        verb="solve",
        base={"model": dict(TORSION),
              "shape": {"kind": "disc", "parameters": [1.0]},
              "spacing": 1.0 / 256},
        closed_form="disc"),
    Workload(
        name="ellipse_minsurf_h128",
        verb="solve",
        base={"model": {"expression": "sqrt(1 + p**2) + q", "smooth_at_origin": True},
              "shape": {"kind": "ellipse", "parameters": [1.0, 0.6]},
              "spacing": 1.0 / 128}),
    Workload(
        name="annulus_verify_h128",
        verb="verify",
        base={"model": dict(TORSION),
              "shape": {"kind": "annulus", "parameters": [0.3, 1.0]},
              "spacing": 1.0 / 128},
        closed_form="annulus"),
]}


def write_config(cfg, path):
    with open(path, "w") as fh:
        yaml.safe_dump(cfg, fh, sort_keys=True)


def file_digest(path):
    with open(path, "rb") as fh:
        return hashlib.sha256(fh.read()).hexdigest()


def report_problems(doc):
    """Problems with a parsed report.json: schema, gated checks, status."""
    from jsonschema import ValidationError

    from emlab.pipeline import validate_report
    problems = []
    try:
        validate_report(doc)
    except ValidationError as exc:
        problems.append(f"report.json fails REPORT_SCHEMA: {exc.message}")
    for check in doc.get("checks", []):
        if check.get("gate") and not check.get("passed"):
            problems.append(f"gated check failed: {check.get('name')}")
    code = doc.get("status", {}).get("exit_code")
    if code != 0:
        problems.append(f"report status exit_code {code}")
    return problems


def read_fields(path, columns=("x", "y", "u")):
    with open(path) as fh:
        header = fh.readline().strip().split(",")
    cols = [header.index(c) for c in columns]
    data = np.loadtxt(path, delimiter=",", skiprows=1, usecols=cols, ndmin=2)
    return [data[:, k] for k in range(len(columns))]


def exact_u(kind, radii, r):
    """Closed-form solution of div(grad u) = 1, u = 0 on the boundary."""
    if kind == "disc":
        (R,) = radii
        return (r * r - R * R) / 4.0
    a, b = radii
    A = (a * a - b * b) / (4.0 * (math.log(b) - math.log(a)))
    B = -b * b / 4.0 - A * math.log(b)
    return r * r / 4.0 + A * np.log(r) + B


def closed_form_problems(workload, cfg, fields_csv):
    """Compare the persisted u with the closed form of the workload's shape:
    at rounding level on the disc, at discretization level (h^2) on the
    annulus, whose log term the scheme does not reproduce exactly."""
    if workload.closed_form is None:
        return []
    x, y, u = read_fields(fields_csv)
    cx, cy = cfg["shape"]["center"]
    err = float(np.max(np.abs(u - exact_u(workload.closed_form,
                                          cfg["shape"]["parameters"],
                                          np.hypot(x - cx, y - cy)))))
    tol = DISC_ROUNDING_TOL if workload.closed_form == "disc" else workload.spacing ** 2
    if not err <= tol:
        return [f"u differs from the {workload.closed_form} closed form by "
                f"{err:.3e} > {tol:.1e}"]
    return []


_CHECK_LINE = re.compile(r"^\[(PASS|FAIL)\] (\S+): .* gate=(True|False)$")


def verify_output_problems(stdout, doc):
    """Problems with the printed output of ``emlab verify``: every gated
    check passes and the checks printed are those in the persisted report."""
    problems, names = [], []
    for line in stdout.splitlines():
        m = _CHECK_LINE.match(line)
        if m:
            names.append(m.group(2))
            if m.group(1) == "FAIL" and m.group(3) == "True":
                problems.append(f"verify: gated check failed: {m.group(2)}")
    expected = [c["name"] for c in doc.get("checks", [])]
    if names != expected:
        problems.append(f"verify printed checks {names}, report has {expected}")
    return problems
