"""The benchmark's workloads still run against the library.

`perfbench/workloads.py` is frozen with the benchmark, so the library
names it uses (`PvcConfig(t_img=...)`, `cfg.pixel_mean`, `vit_forward`,
`compress`, ...) must keep working. Each encode workload runs once here at
its toy geometry: set-up, one request and its checks.
"""
import importlib.util
import sys
from pathlib import Path

import pytest

WORKLOADS = Path(__file__).resolve().parents[1] / "perfbench" / "workloads.py"


@pytest.fixture(scope="module")
def workloads():
    spec = importlib.util.spec_from_file_location("perfbench_workloads", WORKLOADS)
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module  # its dataclasses look their module up by name
    spec.loader.exec_module(module)
    yield module
    del sys.modules[spec.name]


@pytest.mark.parametrize("kind", ["image_static", "video_dynamic"])
def test_encode_workload_runs_at_toy_geometry(workloads, tmp_path, kind):
    work = workloads.EncodeWorkload(kind, workloads.TOY, 0, tmp_path)
    work.setup()
    out = work.request()
    assert work.output_ok(out)
    assert work.out_path.exists()
    prefix_ok, gap = work.prefix_check()
    assert prefix_ok, f"frame 0 prefix gap {gap:.3e}"
