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
    # deterministic and the verify and analyze stdout carry no run directory
    tool = _load_tool("output_digests")
    config = ROOT / "configs" / "torsion_disc.yaml"
    solved = tool.digest_run(ROOT / "src", config, tmp_path / "s")
    assert solved["check_exit"] == solved["solve_exit"] == 0
    for name in tool.OUTPUTS:
        assert solved[name] == hashlib.sha256((tmp_path / "s" / name).read_bytes()).hexdigest()
    first = tool.digest_run(ROOT / "src", config, tmp_path / "a", verify=True)
    # the solve digests are taken before analyze re-exports the files
    assert {key: first[key] for key in solved} == solved
    assert first["verify_exit"] == first["analyze_exit"] == 0
    for name in tool.OUTPUTS:
        digest = hashlib.sha256((tmp_path / "a" / name).read_bytes()).hexdigest()
        assert first["analyze_" + name] == digest
    for key in ("check_stdout", "verify_stdout", "analyze_stdout"):
        assert len(first[key]) == 64
    assert tool.digest_run(ROOT / "src", config, tmp_path / "b", verify=True) == first
