"""Run configuration, pipeline orchestration, report assembly and export.

A run is: hypothesis checks, the 2D solve (plus the radial oracle on
radially symmetric shapes), then the tensor / maximum-principle / identity
analyses, folded into a single report whose numeric claims each carry the
tolerance they were checked against.  Identical configurations must produce
byte-identical ``report.json`` and ``fields.csv``; wall-clock timings
therefore live in a separate sidecar file.

The export writes each CSV in blocks of ``CSV_BLOCK_ROWS`` rows, each
formatted by ``csvtext.format_rows``: whole-array numpy that writes the
bytes ``%.17g`` would, and hands the rare value it cannot round with
certainty to ``%`` itself.  With 2 usable CPUs, at most one forked child
writes the header and the first half of the rows of each CSV of at least
``CSV_FORK_MIN_ROWS`` rows, while the run formats the second half and
appends it once the child has exited.  Every value is formatted on its
own, so the bytes depend neither on the CPU count nor on where a block
starts.
"""

from __future__ import annotations

import json
import math
import mmap
import numbers
import os
import re
import resource
import signal
import time
from contextlib import contextmanager, suppress
from dataclasses import dataclass, field

import numpy as np
import yaml

from .checks import check
from .csvtext import format_rows
from .errors import ConfigError, EllipticityError, EmlabError
from .geometry import build_domain, make_shape
from .identities import run_identity_suite
from .lagrangian import (PILOT_BOX, check_hypotheses, make_expression_model,
                         make_model)
from .pfunction import pfunction_report
from .solver import (SolverConfig, el_residual, field_result,
                     solve_euler_lagrange, solve_radial)
from .tensor_field import assemble_field, spectral_report

EXIT_OK = 0
EXIT_SOLVER = 1
EXIT_HYPOTHESIS = 2
EXIT_INVARIANT = 3
EXIT_CONFIG = 4

#: largest deviation of the grid solution from the radial oracle's profile
RADIAL_ORACLE_TOL = 5e-3


# ---------------------------------------------------------------------------
# configuration
# ---------------------------------------------------------------------------

_SOLVER_DEFAULTS = SolverConfig().as_dict()


@dataclass
class RunConfig:
    model: object
    shape: object
    spacing: float
    solver: SolverConfig
    x0: tuple = None
    raw: dict = field(default_factory=dict)


def _reject_unknown(mapping, allowed, context):
    unknown = set(mapping) - allowed
    if unknown:
        raise ConfigError(f"unknown {context} keys: {sorted(map(str, unknown))}")


def _flag(mapping, key, default, context):
    """A boolean toggle; YAML spells it true or false, and a string such as
    "false" is refused rather than read as truthy."""
    value = mapping.get(key, default)
    if not isinstance(value, bool):
        raise ConfigError(f"{context}.{key} must be true or false, got {value!r}")
    return value


#: a float with an exponent, which YAML 1.1 reads as a float only with a
#: dot in the mantissa and a sign on the exponent; groups: sign, mantissa,
#: exponent sign, exponent digits
_EXPONENT_FLOAT = re.compile(r"([-+]?)(\d+\.?\d*|\.\d+)[eE]([-+]?)(\d+)")


def _number(value, context, kind=float):
    """A YAML number as ``kind``, which takes an int only where ``kind`` is
    int: a bool or a string is not a number, nor an int beyond float range.
    A float that YAML 1.1 read as a string, such as ``1e-2``, is refused
    with its YAML spelling."""
    if isinstance(value, bool) or not isinstance(value, (int, kind)):
        spelled = kind is float and isinstance(value, str) and _EXPONENT_FLOAT.fullmatch(value)
        if spelled:
            sign, mantissa, exp_sign, digits = spelled.groups()
            mantissa += "" if "." in mantissa else ".0"
            raise ConfigError(
                f"{context} must be a number; YAML reads {value!r} as a string, "
                f"write {sign}{mantissa}e{exp_sign or '+'}{digits}")
        raise ConfigError(f"{context} must be {'an integer' if kind is int else 'a number'}")
    try:
        return kind(value)
    except OverflowError:
        raise ConfigError(f"{context} must be finite") from None


def _numbers(value, context, length=None):
    """A YAML list of numbers, of ``length`` where that is known: a string,
    a mapping or a list of another length is refused rather than read
    character by character, key by key or cut short."""
    if not isinstance(value, list):
        raise ConfigError(f"{context} must be a list of numbers")
    if length is not None and len(value) != length:
        raise ConfigError(f"{context} must be a list of {length} numbers, got {len(value)}")
    return [_number(v, f"each entry of {context}") for v in value]


def parse_config(data):
    """Validate a configuration mapping and build the runtime objects."""
    if not isinstance(data, dict):
        raise ConfigError("configuration must be a mapping")
    _reject_unknown(data, {"model", "shape", "spacing", "solver", "x0"}, "top-level")
    for key in ("model", "shape", "spacing"):
        if key not in data:
            raise ConfigError(f"missing required key {key!r}")

    mspec = data["model"]
    if not isinstance(mspec, dict):
        raise ConfigError("model must be a mapping")
    try:
        if "expression" in mspec:
            _reject_unknown(mspec, {"expression", "smooth_at_origin"}, "model")
            model = make_expression_model(
                str(mspec["expression"]), _flag(mspec, "smooth_at_origin", False, "model"))
        else:
            _reject_unknown(mspec, {"name", "parameters"}, "model")
            model = make_model(mspec.get("name", ""),
                               _numbers(mspec.get("parameters", []), "model.parameters"))
    except (ValueError, TypeError, OverflowError) as exc:
        raise ConfigError(f"bad model: {exc}") from None

    sspec = data["shape"]
    if not isinstance(sspec, dict):
        raise ConfigError("shape must be a mapping")
    _reject_unknown(sspec, {"kind", "parameters", "center"}, "shape")
    try:
        shape = make_shape(sspec.get("kind", ""),
                           _numbers(sspec.get("parameters", []), "shape.parameters"),
                           center=_numbers(sspec.get("center", [0.0, 0.0]), "shape.center", 2))
    except (ValueError, TypeError, OverflowError) as exc:
        raise ConfigError(f"bad shape: {exc}") from None

    spacing = _number(data["spacing"], "spacing")
    if not (math.isfinite(spacing) and spacing > 0):
        raise ConfigError("spacing must be a positive finite number")

    sol = data.get("solver", {})
    if not isinstance(sol, dict):
        raise ConfigError("solver must be a mapping")
    _reject_unknown(sol, set(_SOLVER_DEFAULTS), "solver")
    for key, value in sol.items():
        _number(value, f"solver.{key}", type(_SOLVER_DEFAULTS[key]))
    try:
        solver = SolverConfig(**sol)
    except (ValueError, TypeError, OverflowError) as exc:
        raise ConfigError(f"bad solver config: {exc}") from None

    x0 = data.get("x0")
    if x0 is not None:
        x0 = tuple(_numbers(x0, "x0", 2))
        if not all(math.isfinite(v) for v in x0):
            raise ConfigError("x0 must be finite")

    raw = {
        "model": (dict(mspec)), "shape": dict(sspec), "spacing": spacing,
        "solver": solver.as_dict(), "x0": list(x0) if x0 else None,
    }
    return RunConfig(model=model, shape=shape, spacing=spacing, solver=solver,
                     x0=x0, raw=raw)


def load_config(path):
    try:
        with open(path) as fh:
            data = yaml.safe_load(fh)
    except OSError as exc:
        raise ConfigError(f"cannot read config {path}: {exc}") from None
    except (yaml.YAMLError, RecursionError) as exc:
        raise ConfigError(f"cannot parse config {path}: {exc}") from None
    return parse_config(data)


# ---------------------------------------------------------------------------
# report
# ---------------------------------------------------------------------------

@dataclass
class RunReport:
    config: dict
    solver: dict = None
    domain_info: dict = None
    hypotheses: dict = None
    spectral: dict = None
    pfunction: dict = None
    identities: dict = None
    checks: list = field(default_factory=list)
    exit_code: int = EXIT_OK
    violations: list = field(default_factory=list)
    timings: dict = field(default_factory=dict)
    # runtime objects, not serialized
    result: object = field(default=None, repr=False)
    domain: object = field(default=None, repr=False)
    spectral_field: object = field(default=None, repr=False)

    def add_checks(self, *checks):
        """Record check records in order; a failed gated one is a violation."""
        for rec in checks:
            self.checks.append(rec)
            if rec["gate"] and not rec["passed"]:
                self.violations.append(rec["name"])

    def as_dict(self):
        return _sanitize({
            "config": self.config,
            "solver": self.solver,
            "domain": self.domain_info,
            "hypotheses": self.hypotheses,
            "spectral": self.spectral,
            "pfunction": self.pfunction,
            "identities": self.identities,
            "checks": self.checks,
            "status": {"exit_code": self.exit_code, "violations": self.violations},
        })


def _sanitize(obj):
    """Convert numpy scalars/arrays and tuples into plain JSON types."""
    if isinstance(obj, dict):
        return {str(k): _sanitize(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_sanitize(v) for v in obj]
    if isinstance(obj, np.ndarray):
        return [_sanitize(v) for v in obj.tolist()]
    if isinstance(obj, np.generic):
        obj = obj.item()
    if isinstance(obj, float) and not math.isfinite(obj):
        return repr(obj)
    return obj


REPORT_SCHEMA = {
    "$schema": "http://json-schema.org/draft-07/schema#",
    "type": "object",
    "required": ["config", "solver", "checks", "status"],
    "additionalProperties": False,
    "properties": {
        "config": {"type": "object"},
        "domain": {
            "type": ["object", "null"],
            "properties": {
                "spacing": {"type": "number"},
                "interior_nodes": {"type": "integer"},
                "boundary_samples": {"type": "integer"},
                "boundary_components": {"type": "integer"},
                "smooth_boundary": {"type": "boolean"},
                "note": {"type": "string"},
            },
        },
        "solver": {
            "type": ["object", "null"],
            "required": ["converged", "iterations", "final_residual"],
            "properties": {
                "converged": {"type": "boolean"},
                "iterations": {"type": "integer", "minimum": 0},
                "final_residual": {"type": ["number", "null"]},
                "solution_range": {"type": "array", "items": {"type": "number"}},
                "gradient_range": {"type": "array", "items": {"type": "number"}},
                "regularity_note": {"type": "string"},
                "radial_oracle": {"type": ["object", "null"]},
                "failure": {"type": ["string", "null"]},
            },
        },
        "hypotheses": {"type": ["object", "null"]},
        "spectral": {"type": ["object", "null"]},
        "pfunction": {"type": ["object", "null"]},
        "identities": {"type": ["object", "null"]},
        "checks": {
            "type": "array",
            "items": {
                "type": "object",
                "required": ["name", "value", "tolerance", "passed", "gate"],
                "additionalProperties": False,
                "properties": {
                    "name": {"type": "string"},
                    "value": {},
                    "tolerance": {},
                    "passed": {"type": "boolean"},
                    "gate": {"type": "boolean"},
                },
            },
        },
        "status": {
            "type": "object",
            "required": ["exit_code", "violations"],
            "properties": {
                "exit_code": {"type": "integer", "minimum": 0, "maximum": 4},
                "violations": {"type": "array", "items": {"type": "string"}},
            },
        },
    },
}


#: the draft-07 types, as ``jsonschema``'s draft-07 checker reads them: a
#: bool is neither an integer nor a number, and an integral float is an integer
_JSON_TYPES = {
    "object": lambda v: isinstance(v, dict),
    "array": lambda v: isinstance(v, list),
    "string": lambda v: isinstance(v, str),
    "boolean": lambda v: isinstance(v, bool),
    "null": lambda v: v is None,
    "number": lambda v: isinstance(v, numbers.Number) and not isinstance(v, bool),
    "integer": lambda v: (isinstance(v, int) and not isinstance(v, bool)
                          or isinstance(v, float) and v.is_integer()),
}


def _conforms(value, schema):
    """Whether ``value`` is valid under the draft-07 ``schema``, read for the
    keywords ``REPORT_SCHEMA`` uses: ``type``, ``minimum``, ``maximum``,
    ``required``, ``properties``, ``additionalProperties: false`` and
    ``items`` (one schema for every item).  Each applies, as in
    ``jsonschema``, only to values of its own type."""
    types = schema.get("type", ())
    if types and not any(_JSON_TYPES[t](value)
                         for t in ([types] if isinstance(types, str) else types)):
        return False
    if _JSON_TYPES["number"](value) and ("minimum" in schema and value < schema["minimum"]
                                         or "maximum" in schema and value > schema["maximum"]):
        return False
    if isinstance(value, dict):
        properties = schema.get("properties", {})
        if any(key not in value for key in schema.get("required", ())):
            return False
        if schema.get("additionalProperties", True) is False and any(
                key not in properties for key in value):
            return False
        if not all(_conforms(value[key], sub) for key, sub in properties.items()
                   if key in value):
            return False
    if isinstance(value, list) and "items" in schema:
        return all(_conforms(item, schema["items"]) for item in value)
    return True


def _report_error(report_dict):
    """None for a report that conforms to ``REPORT_SCHEMA``, else the error
    ``jsonschema.validate`` would raise: the ``best_match`` of its errors.
    A conforming report, as every run writes, is accepted by ``_conforms``
    alone, so ``jsonschema`` is imported only for a malformed one."""
    if _conforms(report_dict, REPORT_SCHEMA):
        return None
    from jsonschema import validators
    from jsonschema.exceptions import best_match
    validator = validators.validator_for(REPORT_SCHEMA)(REPORT_SCHEMA)
    return best_match(validator.iter_errors(report_dict))


def validate_report(report_dict):
    """Raise the ``jsonschema.ValidationError`` that ``jsonschema.validate``
    would: its ``best_match`` of the errors of ``report_dict``."""
    error = _report_error(report_dict)
    if error is not None:
        raise error


def read_report(run_dir):
    """The persisted report.json of ``run_dir``, checked against the report
    schema; an unreadable or malformed document is a configuration error."""
    path = os.path.join(run_dir, "report.json")
    try:
        with open(path) as fh:
            doc = json.load(fh)
        error = _report_error(doc)
    except (OSError, ValueError, RecursionError) as exc:
        raise ConfigError(f"cannot read {path}: {exc}") from None
    if error is not None:
        raise ConfigError(f"malformed {path}: {error.message}")
    return doc


# ---------------------------------------------------------------------------
# pipeline
# ---------------------------------------------------------------------------

def _build_domain(config):
    """The configured domain; a grid the shape cannot support, or whose
    lattice cannot be allocated, is a configuration error."""
    try:
        return build_domain(config.shape, config.spacing)
    except (EmlabError, MemoryError) as exc:
        raise ConfigError(f"domain build failed: {exc}") from None


@contextmanager
def _stage(report, name):
    """Record the wall time of the enclosed block as ``report.timings[name]``,
    and this process's peak resident set size so far, in MB, as
    ``report.timings["max_rss_mb"][name]``, also when the block returns
    early or raises."""
    t0 = time.perf_counter()
    try:
        yield
    finally:
        report.timings[name] = time.perf_counter() - t0
        # ru_maxrss is in KiB on Linux
        report.timings.setdefault("max_rss_mb", {})[name] = (
            resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0)


def run_pipeline(config, strict=False):
    """Execute the configured run end to end and assemble the report.

    A model that fails strict convexity on the pilot box is refused before
    the domain is built: exit 2 in strict mode, else exit 1 as a solver
    refusal.  Solver failure short-circuits with a partial report (exit 1);
    gated invariant check failures yield exit 3.
    """
    report = RunReport(config=config.raw)
    with _stage(report, "hypotheses_pilot"):
        pilot = check_hypotheses(config.model, box=PILOT_BOX)
    report.hypotheses = pilot.as_dict()
    if strict and not pilot.convexity_ok:
        report.exit_code = EXIT_HYPOTHESIS
        report.violations.append("hypothesis_convexity")
        return report
    if not pilot.convexity_ok:
        return _refused(report, "model fails strict convexity on the pilot box",
                        {"pilot_box": PILOT_BOX,
                         "witness": pilot.violation_witnesses.get("convexity")})

    with _stage(report, "domain"):
        domain = _build_domain(config)
    faults = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
    try:
        with _stage(report, "solve"):
            result = solve_euler_lagrange(config.model, domain, config.solver)
    except EllipticityError as exc:
        return _refused(report, str(exc), exc.witness)
    # the minor page faults of the solve, which follow its allocations
    report.timings["solve_parts"] = {
        **result.solve_parts,
        "minor_faults": resource.getrusage(resource.RUSAGE_SELF).ru_minflt - faults}

    report.solver = {
        "converged": result.converged,
        "iterations": result.iterations,
        "final_residual": result.final_residual,
        "solution_range": list(result.solution_range),
        "gradient_range": list(result.gradient_range),
        "regularity_note": result.regularity_note,
        "radial_oracle": None,
        "failure": None,
    }
    analyze_into(report, config, domain, result, strict=strict,
                 residual=result.final_residual)
    return report


def _refused(report, reason, witness):
    """End the run as an ellipticity refusal of the solver (exit 1)."""
    report.solver = {"converged": False, "iterations": 0, "final_residual": None,
                     "failure": f"ellipticity breakdown: {reason}", "witness": witness}
    report.exit_code = EXIT_SOLVER
    return report


def _domain_section(domain):
    sec = {
        "spacing": domain.h,
        "interior_nodes": domain.n_interior,
        "boundary_samples": domain.n_boundary,
        "boundary_components": domain.boundary_component_count,
        "smooth_boundary": domain.shape.smooth_boundary,
    }
    if not domain.shape.smooth_boundary:
        sec["note"] = ("boundary is not C^{2+alpha}: theorem hypotheses not "
                       "met, results are a stress test")
    return sec


def analyze_into(report, config, domain, result, strict=False, residual=None):
    """Run every analysis on a solved field, filling the report: hypotheses,
    the residual recheck, the radial oracle (discs and annuli), evaluation,
    tensor, p-function and identities, in that order.

    Shared between a fresh pipeline run and re-analysis of persisted fields;
    everything here is deterministic given (config, u).  ``residual`` is
    max |el_residual| at ``result.u`` where the caller has it, as a fresh
    solve does; otherwise it is recomputed from ``u``, and a converged field
    that fails the recheck ends the run with that one check (exit 3).
    """
    report.result, report.domain = result, domain
    report.domain_info = _domain_section(domain)

    # the equation residual of a converged field, recomputed on a reloaded
    # run against tampered or mismatched data; a field that fails it is no
    # solution, so the hypotheses do not sample the model on its (p, u) box,
    # where an absurd u would blame the model
    if result.converged:
        try:
            with np.errstate(over="ignore", invalid="ignore"):
                recheck = check("solver_residual_recheck",
                                residual if residual is not None else
                                float(np.max(np.abs(el_residual(config.model, domain, result.u)))),
                                config.solver.residual_tol)
        except EmlabError as exc:
            recheck = check("solver_residual_recheck", f"failed: {exc}",
                            config.solver.residual_tol, False)
        if not recheck["passed"]:
            report.add_checks(recheck)
            report.exit_code = EXIT_INVARIANT
            return report

    with _stage(report, "hypotheses"):
        m, M = result.solution_range
        pad = 0.1 * max(M - m, 1e-6)
        box = ((0.0, 1.1 * max(result.gradient_range[1], 1e-6)), (m - pad, M + pad))
        hyp = check_hypotheses(config.model, box=box)
        report.hypotheses = hyp.as_dict()
        report.add_checks(check("hypothesis_convexity", hyp.min_F_pp, 0.0,
                                hyp.convexity_ok, gate=False))
        if config.model.smooth_at_origin:
            # a false smoothness claim silently corrupts g near p = 0
            report.add_checks(check("origin_smoothness_claim", hyp.origin_smooth_ok,
                                    None, hyp.origin_smooth_ok))
        if strict and not hyp.convexity_ok:
            report.exit_code = EXIT_HYPOTHESIS
            report.violations.append("hypothesis_convexity")
            return report

    if not result.converged:
        report.add_checks(check("solver_convergence", result.final_residual,
                                config.solver.residual_tol, False))
        report.exit_code = EXIT_SOLVER
        return report

    report.add_checks(recheck)

    if config.shape.kind in ("disc", "annulus"):
        with _stage(report, "radial_oracle"):
            radii = ((0.0, config.shape.R) if config.shape.kind == "disc"
                     else (config.shape.a, config.shape.b))
            try:
                profile = solve_radial(config.model, radii, n=2)
                r = np.hypot(domain.xy[:, 0] - config.shape.cx,
                             domain.xy[:, 1] - config.shape.cy)
                dev = float(np.max(np.abs(result.u - profile.u_at(r))))
                report.solver["radial_oracle"] = {
                    "max_deviation": dev, "parameter": profile.parameter,
                    "tolerance": RADIAL_ORACLE_TOL}
                report.add_checks(check("radial_oracle_agreement", dev, RADIAL_ORACLE_TOL))
            except EmlabError as exc:
                report.solver["radial_oracle"] = {"failure": str(exc)}
                report.add_checks(check("radial_oracle_agreement", f"failed: {exc}",
                                        RADIAL_ORACLE_TOL, False))

    if hyp.monotone_q_ok:
        # non-decreasing source models obey the maximum principle: u <= 0
        report.add_checks(check("maximum_principle_nonpositive",
                                float(np.max(result.u)), 1e-8))

    with _stage(report, "evaluation"):
        fld = report.spectral_field = assemble_field(config.model, result, domain, config.x0)
    with _stage(report, "tensor"):
        report.spectral, checks = spectral_report(fld)
        report.add_checks(*checks)
    with _stage(report, "pfunction"):
        report.pfunction, checks = pfunction_report(fld, hyp)
        report.add_checks(*checks)
    with _stage(report, "identities"):
        report.identities, checks = run_identity_suite(fld)
        report.add_checks(*checks)

    if report.violations:
        report.exit_code = EXIT_INVARIANT
    return report


# ---------------------------------------------------------------------------
# export / reload
# ---------------------------------------------------------------------------

FIELD_COLUMNS = ["x", "y", "u", "u_x", "u_y", "lambda1", "lambda2",
                 "det", "trace", "divT_x", "divT_y"]
TENSOR_COLUMNS = ["T11", "T12", "T22"]  # row-aligned with fields.csv
BOUNDARY_COLUMNS = ["y_x", "y_y", "nu_x", "nu_y", "H", "weight", "dnu_u",
                    "rellich_density", "pohozaev_density"]
#: the files of a run with a solution; config.yaml, report.json and
#: timings.json are written by every run
SOLUTION_FILES = ("fields.csv", "tensor.csv", "boundary.csv", "solver_log.json")


#: rows formatted per ``format_rows`` call when writing a CSV
CSV_BLOCK_ROWS = 2048
#: fewest rows of a CSV whose first half a forked child writes
CSV_FORK_MIN_ROWS = 16384


def _csv_blocks(data, start, stop, tally):
    """Rows ``start:stop`` of ``data`` as ``%.17g`` CSV bytes, one
    ``format_rows`` call per ``CSV_BLOCK_ROWS`` rows counted from ``start``;
    adds to ``tally`` the values formatted and those that took ``%``."""
    for first in range(start, stop, CSV_BLOCK_ROWS):
        block = data[first:min(first + CSV_BLOCK_ROWS, stop)]
        text, slow = format_rows(block)
        tally += (block.size, slow)
        yield text


def _usable_cpus():
    """The CPUs of this process's affinity (``taskset`` narrows it); 1 where
    the platform has no affinity, so there the export never forks."""
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:
        return 1


def _write_csvs(tables):
    """Write each ``(path, header, cols)`` table of equal-length columns as
    CSV, every value as ``%.17g`` would print it (``csvtext.format_rows``).

    A table of n >= ``CSV_FORK_MIN_ROWS`` rows is split at row n // 2.
    With 2 usable CPUs one forked child writes each file's header and the
    rows before its split while this process formats the rows after every
    split into memory, and appends them once it has reaped the child; each
    value is formatted on its own, so the bytes are those of the serial
    loop wherever its blocks start.  If the child cannot be forked or does not
    exit 0, this process writes every file whole.  If this process raises,
    the child is killed and reaped first.

    Returns the timing entries of the export: ``export_values``, the
    number of values written and of those that ``%`` formatted one by one,
    and, when a child ran, ``export_child``.
    """
    parts = []
    for path, header, cols in tables:
        data = np.column_stack(cols)
        n = len(data)
        split = n if n < CSV_FORK_MIN_ROWS else n // 2
        parts.append((path, (",".join(header) + "\n").encode(), data, split))
    tally = np.zeros(2, np.int64)
    pid = None
    if any(split < len(data) for *_, data, split in parts) and _usable_cpus() > 1:
        # the child's tally, in memory that the fork shares
        child_tally = np.frombuffer(mmap.mmap(-1, tally.nbytes), np.int64)
        t0 = time.perf_counter()
        with suppress(OSError):  # no process to spare
            pid = os.fork()
    if pid is None:
        _write_heads([(path, head, data, len(data)) for path, head, data, _ in parts], tally)
        return {"export_values": _values_entry(tally)}
    if pid == 0:  # the child makes no BLAS call and never returns to the caller
        code = 1
        try:
            _write_heads(parts, child_tally)
            code = 0
        finally:
            os._exit(code)
    reaped = None
    try:
        tails = [list(_csv_blocks(data, split, len(data), tally)) for *_, data, split in parts]
        reaped = os.wait4(pid, 0)
    finally:
        if reaped is None:
            with suppress(ProcessLookupError):
                os.kill(pid, signal.SIGKILL)
            os.wait4(pid, 0)
    child = {"seconds": time.perf_counter() - t0,
             "max_rss_mb": reaped[2].ru_maxrss / 1024,
             "fallback": reaped[1] != 0}
    if child["fallback"]:
        _write_heads(parts, tally)
    else:
        tally += child_tally
    for (path, *_), tail in zip(parts, tails):
        if tail:
            with open(path, "ab") as fh:
                fh.writelines(tail)
    return {"export_values": _values_entry(tally), "export_child": child}


def _values_entry(tally):
    """The ``export_values`` timing entry of a ``(values, by %)`` tally."""
    return {"written": int(tally[0]), "formatted_by_percent": int(tally[1])}


def _write_heads(parts, tally):
    """Write each ``(path, head, data, split)`` afresh: the header ``head``
    and the rows of ``data`` before ``split``, counted in ``tally``."""
    for path, head, data, split in parts:
        with open(path, "wb") as fh:
            fh.write(head)
            fh.writelines(_csv_blocks(data, 0, split, tally))


def export_fields(report, out_dir):
    """Write config echo, CSV fields, report JSON, solver log and timings.

    Identical runs produce byte-identical fields.csv / boundary.csv /
    report.json; timings.json is the only non-deterministic artifact.  Its
    ``export`` entry is the time of every write before its own.  Any of
    ``SOLUTION_FILES`` that the run does not write is removed, so a reused
    directory holds no output of an earlier run.  A directory that cannot
    be created or written raises ``ConfigError``.
    """
    try:
        with _stage(report, "export"):
            os.makedirs(out_dir, exist_ok=True)
            own = _write_solution(report, out_dir) if report.result is not None else ()
            for name in set(SOLUTION_FILES).difference(own):
                with suppress(FileNotFoundError):
                    os.remove(os.path.join(out_dir, name))
            with open(os.path.join(out_dir, "config.yaml"), "w") as fh:
                yaml.safe_dump(report.config, fh, sort_keys=True)
            doc = report.as_dict()
            validate_report(doc)
            with open(os.path.join(out_dir, "report.json"), "w") as fh:
                json.dump(doc, fh, indent=2, sort_keys=True)
                fh.write("\n")
        with open(os.path.join(out_dir, "timings.json"), "w") as fh:
            json.dump(_sanitize(report.timings), fh, indent=2, sort_keys=True)
            fh.write("\n")
    except OSError as exc:
        raise ConfigError(f"cannot write run to {out_dir}: {exc}") from None


def _write_solution(report, out_dir):
    """The CSV fields and, after a solve, the solver log of a run; returns
    the names of the run's own files among ``SOLUTION_FILES``.  The number
    of CSV values and of those that ``%`` formatted go to
    ``report.timings["export_values"]``; when a forked child wrote part of
    the CSV rows, its wall time, peak memory and whether it failed, so that
    every file was written whole here, go to ``report.timings["export_child"]``."""
    result, domain, fld = report.result, report.domain, report.spectral_field
    own = ["fields.csv", "boundary.csv", "solver_log.json"]
    xy_u = [domain.xy[:, 0], domain.xy[:, 1], result.u,
            result.grad[:, 0], result.grad[:, 1]]
    if fld is None:  # the analyses stopped before evaluating the solution
        fields = xy_u + [np.full(domain.n_interior, np.nan)] * 6
        rellich_density = pohozaev_density = np.full(domain.n_boundary, np.nan)
        tables = []
    else:
        fields = xy_u + [fld.lambda1, fld.lambda_rest, fld.det, fld.trace,
                         fld.div_T[:, 0], fld.div_T[:, 1]]
        tables = [("tensor.csv", TENSOR_COLUMNS, [fld.T[0, 0], fld.T[0, 1], fld.T[1, 1]])]
        own.append("tensor.csv")
        rellich_density, pohozaev_density = fld.boundary_flux, fld.pohozaev_density
    bcols = [domain.bpts[:, 0], domain.bpts[:, 1], domain.bnu[:, 0],
             domain.bnu[:, 1], domain.bH, domain.bw, result.normal_derivative,
             rellich_density, pohozaev_density]
    tables += [("fields.csv", FIELD_COLUMNS, fields),
               ("boundary.csv", BOUNDARY_COLUMNS, bcols)]
    report.timings.update(_write_csvs([(os.path.join(out_dir, name), header, cols)
                                       for name, header, cols in tables]))

    if result.log:  # a reloaded run never re-solves and keeps its persisted log
        with open(os.path.join(out_dir, "solver_log.json"), "w") as fh:
            json.dump(_sanitize(result.log), fh, indent=2, sort_keys=True)
            fh.write("\n")
    return own


def load_run(run_dir):
    """Reload a persisted run: config, domain, model and the solution field.

    The gradient and boundary traces are recomputed deterministically from
    the persisted u, so re-analysis does not require re-solving.  A run
    whose report records no converged solve and that has no fields.csv (the
    solver refused it) reloads with ``domain`` and ``result`` None.
    """
    config = load_config(os.path.join(run_dir, "config.yaml"))
    fields_path = os.path.join(run_dir, "fields.csv")
    report_doc = read_report(run_dir)
    solver_doc = report_doc.get("solver") or {}
    if not solver_doc.get("converged", False) and not os.path.exists(fields_path):
        return config, None, None, report_doc
    try:
        with open(fields_path) as fh:
            iu = fh.readline().strip().split(",").index("u")
        # numpy's reader parses a named file faster than an open text handle
        u = np.loadtxt(fields_path, delimiter=",", skiprows=1, usecols=iu, ndmin=1,
                       comments=None)
    except (OSError, ValueError, KeyError) as exc:
        raise ConfigError(f"cannot reload run from {run_dir}: {exc}") from None

    if not np.all(np.isfinite(u)):
        raise ConfigError(f"cannot reload run from {run_dir}: fields.csv holds a non-finite u")
    domain = _build_domain(config)
    if len(u) != domain.n_interior:
        raise ConfigError("persisted field does not match the configured grid")

    result = field_result(
        domain, u, final_residual=solver_doc.get("final_residual", float("nan")),
        converged=bool(solver_doc.get("converged", False)),
        iterations=int(solver_doc.get("iterations", 0)))
    return config, domain, result, report_doc
