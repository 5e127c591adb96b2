"""The sha256 of every deterministic output of a fixed set of emlab runs.

    python tools/output_digests.py SRC_DIR > digests.json

Runs ``emlab check`` and ``emlab solve``, with the ``emlab`` package
imported from ``SRC_DIR`` (the ``src`` directory of a checkout), on each
config in ``configs/`` and on the seed-1 config of each workload of
``bench/workloads.py``, which it reads and does not edit; a workload whose
op is ``emlab verify`` also runs ``emlab verify`` and then ``emlab
analyze`` on its solved run.  Prints one JSON object, keyed by run: the
exit codes and the sha256 of the check stdout, of ``report.json``,
``fields.csv``, ``tensor.csv``, ``boundary.csv`` and ``solver_log.json``,
of the verify and analyze stdout with the run directory replaced by
``<RUN>``, and of the files analyze re-exports (keys ``analyze_<file>``).
``timings.json`` varies from run to run and is left out.  Two trees whose
runs write the same bytes print the same object, so a byte-identity check
of a change is ``diff`` of the output on the parent's ``src`` and on its
own.
"""

import hashlib
import json
import os
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
OUTPUTS = ("report.json", "fields.csv", "tensor.csv", "boundary.csv", "solver_log.json")
#: runs the CLI of the emlab first on the path, with its exit code
CLI = "import sys; from emlab.cli import main; sys.exit(main(sys.argv[1:]))"


def _emlab(src_dir, *args):
    env = dict(os.environ, PYTHONPATH=str(Path(src_dir).resolve()))
    return subprocess.run([sys.executable, "-c", CLI, *args], env=env,
                          capture_output=True, text=True, check=False)


def _sha256(data):
    return hashlib.sha256(data).hexdigest()


def _digest_outputs(out_dir, prefix=""):
    return {prefix + name: _sha256((out_dir / name).read_bytes())
            if (out_dir / name).is_file() else None for name in OUTPUTS}


def digest_run(src_dir, config, out_dir, verify=False):
    """The exit codes and output digests of ``emlab check`` on the config
    file ``config`` and of ``emlab solve`` on it into ``out_dir``, and with
    ``verify`` those of ``emlab verify`` and ``emlab analyze`` on that run."""
    out_dir = Path(out_dir)
    check = _emlab(src_dir, "check", "--config", str(config))
    digests = {"check_exit": check.returncode, "check_stdout": _sha256(check.stdout.encode()),
               "solve_exit": _emlab(src_dir, "solve", "--config", str(config),
                                    "--out", str(out_dir)).returncode}
    digests.update(_digest_outputs(out_dir))
    if verify:
        for verb in ("verify", "analyze"):
            run = _emlab(src_dir, verb, "--in", str(out_dir))
            digests[f"{verb}_exit"] = run.returncode
            digests[f"{verb}_stdout"] = _sha256(
                run.stdout.replace(str(out_dir), "<RUN>").encode())
        digests.update(_digest_outputs(out_dir, "analyze_"))
    return digests


def main(argv=None):
    argv = sys.argv[1:] if argv is None else argv
    if len(argv) != 1 or not (Path(argv[0]) / "emlab" / "cli.py").is_file():
        print("usage: python tools/output_digests.py SRC_DIR, a directory that "
              "holds the emlab package", file=sys.stderr)
        return 2
    sys.path.insert(0, str(ROOT / "bench"))
    from workloads import WORKLOADS, write_config

    digests = {}
    with tempfile.TemporaryDirectory() as tmp:
        tmp = Path(tmp)
        for config in sorted((ROOT / "configs").glob("*.yaml")):
            digests[config.stem] = digest_run(argv[0], config, tmp / config.stem)
        for name, workload in WORKLOADS.items():
            run = f"{name}-seed1"
            config = tmp / f"{run}.yaml"
            write_config(workload.config(1), config)
            digests[run] = digest_run(argv[0], config, tmp / run,
                                      verify=workload.verb == "verify")
    print(json.dumps(digests, indent=1, sort_keys=True))
    return 0


if __name__ == "__main__":
    sys.exit(main())
