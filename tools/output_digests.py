"""The sha256 of every deterministic output of a fixed set of emlab runs.

    python tools/output_digests.py SRC_DIR > digests.json

Runs ``emlab solve``, with the ``emlab`` package imported from ``SRC_DIR``
(the ``src`` directory of a checkout), on each config in ``configs/`` and
on the seed-1 config of each workload of ``bench/workloads.py``, which it
reads and does not edit; a workload whose op is ``emlab verify`` also runs
``emlab verify`` on its solved run.  Prints one JSON object, keyed by run:
the exit codes and the sha256 of ``report.json``, ``fields.csv``,
``tensor.csv``, ``boundary.csv`` and ``solver_log.json``, and of the
verify stdout with the run directory replaced by ``<RUN>``.
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


def digest_run(src_dir, config, out_dir, verify=False):
    """The exit code and output digests of ``emlab solve`` on the config file
    ``config`` into ``out_dir``, and with ``verify`` those of ``emlab
    verify`` on that run."""
    out_dir = Path(out_dir)
    digests = {"solve_exit": _emlab(src_dir, "solve", "--config", str(config),
                                    "--out", str(out_dir)).returncode}
    for name in OUTPUTS:
        path = out_dir / name
        digests[name] = _sha256(path.read_bytes()) if path.is_file() else None
    if verify:
        run = _emlab(src_dir, "verify", "--in", str(out_dir))
        digests["verify_exit"] = run.returncode
        digests["verify_stdout"] = _sha256(run.stdout.replace(str(out_dir), "<RUN>").encode())
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
