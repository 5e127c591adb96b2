"""The repository's tools, run on small inputs."""

import hashlib
import importlib.util
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def _load_tool(name):
    spec = importlib.util.spec_from_file_location(name, ROOT / "tools" / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_output_digests_of_the_torsion_disc(tmp_path):
    # two runs in two directories give one set of digests: the outputs are
    # deterministic and the verify stdout carries no run directory
    tool = _load_tool("output_digests")
    config = ROOT / "configs" / "torsion_disc.yaml"
    first = tool.digest_run(ROOT / "src", config, tmp_path / "a", verify=True)
    assert first["solve_exit"] == 0 and first["verify_exit"] == 0
    for name in tool.OUTPUTS:
        assert first[name] == hashlib.sha256((tmp_path / "a" / name).read_bytes()).hexdigest()
    assert len(first["verify_stdout"]) == 64
    assert tool.digest_run(ROOT / "src", config, tmp_path / "b", verify=True) == first
