import os
import sys

import numpy as np
import pytest

from flowcodec.flowprovider import FlowProvider, FlowProviderError, TMPDIR_ENV
from flowcodec.io import read_flo_file, write_flo_file

from synth import constant_flow, flat_frame, random_flow, write_flow_dir

W, H = 16, 16

# Stub estimators honoring the `cmd cur.pgm ref.pgm out.flo` contract.

STUB_ZERO = """\
import struct, sys
import numpy as np
cur, ref, out = sys.argv[1], sys.argv[2], sys.argv[3]
head = open(cur, "rb").read().split(None, 4)
w, h = int(head[1]), int(head[2])
field = np.zeros((h, w, 2), "<f4")
with open(out, "wb") as fh:
    fh.write(struct.pack("<fii", 202021.25, w, h) + field.tobytes())
"""

STUB_COPY = """\
import shutil, sys
shutil.copy({src!r}, sys.argv[3])
"""

STUB_FAIL = """\
import sys
sys.stderr.write("boom")
sys.exit(3)
"""

STUB_SLEEP = """\
import time
time.sleep(30)
"""


def make_stub(tmp_path, name, body):
    path = tmp_path / name
    path.write_text(body)
    return f"{sys.executable} {path}"


def frames():
    return flat_frame(W, H, 100, index=1), flat_frame(W, H, 90, index=0)


def test_t0_reads_flow_files(tmp_path):
    rng = np.random.default_rng(1)
    field = random_flow(W, H, rng)
    write_flow_dir(tmp_path, "clip", {1: field})
    provider = FlowProvider("T0", flow_dir=tmp_path)
    cur, ref = frames()
    got = provider.get_flow("clip", 1, cur, ref)
    assert np.array_equal(got, read_flo_file(tmp_path / "clip" / "frame_0001.flo"))


def test_t1_same_mechanics_as_t0(tmp_path):
    field = constant_flow(W, H, 1.0, -2.0)
    write_flow_dir(tmp_path, "clip", {3: field})
    t0 = FlowProvider("T0", flow_dir=tmp_path)
    t1 = FlowProvider("T1", flow_dir=tmp_path)
    cur, ref = frames()
    assert np.array_equal(t0.get_flow("clip", 3, cur, ref), t1.get_flow("clip", 3, cur, ref))


def test_missing_file_reports_path(tmp_path):
    provider = FlowProvider("T0", flow_dir=tmp_path)
    cur, ref = frames()
    with pytest.raises(FlowProviderError, match="frame_0005.flo"):
        provider.get_flow("clip", 5, cur, ref)


def test_dimension_mismatch_rejected(tmp_path):
    write_flow_dir(tmp_path, "clip", {1: constant_flow(W * 2, H, 0, 0)})
    provider = FlowProvider("T0", flow_dir=tmp_path)
    cur, ref = frames()
    with pytest.raises(FlowProviderError, match="32x16"):
        provider.get_flow("clip", 1, cur, ref)


def test_t2_zero_stub(tmp_path):
    provider = FlowProvider("T2", estimator_cmd=make_stub(tmp_path, "zero.py", STUB_ZERO))
    cur, ref = frames()
    field = provider.get_flow("clip", 1, cur, ref)
    assert field.shape == (H, W, 2)
    assert np.all(field == 0.0)


def test_t2_copy_stub_equals_t1(tmp_path):
    rng = np.random.default_rng(2)
    field = random_flow(W, H, rng)
    write_flow_dir(tmp_path / "gt", "clip", {1: field})
    src = str(tmp_path / "gt" / "clip" / "frame_0001.flo")
    t2 = FlowProvider("T2", estimator_cmd=make_stub(tmp_path, "copy.py", STUB_COPY.format(src=src)))
    t1 = FlowProvider("T1", flow_dir=tmp_path / "gt")
    cur, ref = frames()
    assert np.array_equal(t2.get_flow("clip", 1, cur, ref), t1.get_flow("clip", 1, cur, ref))


def test_t2_failure_raises(tmp_path):
    provider = FlowProvider("T2", estimator_cmd=make_stub(tmp_path, "fail.py", STUB_FAIL))
    cur, ref = frames()
    with pytest.raises(FlowProviderError, match="exited 3"):
        provider.get_flow("clip", 1, cur, ref)


def test_t2_timeout(tmp_path):
    provider = FlowProvider("T2", estimator_cmd=make_stub(tmp_path, "sleep.py", STUB_SLEEP),
                            timeout=0.5)
    cur, ref = frames()
    with pytest.raises(FlowProviderError, match="timed out"):
        provider.get_flow("clip", 1, cur, ref)


@pytest.mark.parametrize("timeout", [0, -1, 0.0, float("nan"), float("inf"), -float("inf")])
def test_timeout_must_be_positive_and_finite(tmp_path, timeout):
    with pytest.raises(ValueError, match="positive finite number of seconds"):
        FlowProvider("T2", estimator_cmd="never-run", timeout=timeout)
    with pytest.raises(ValueError, match="positive finite number of seconds"):
        FlowProvider("T0", flow_dir=tmp_path, timeout=timeout)


def test_t2_cleans_temp_files(tmp_path, monkeypatch):
    tmproot = tmp_path / "scratch"
    tmproot.mkdir()
    monkeypatch.setenv(TMPDIR_ENV, str(tmproot))
    cur, ref = frames()
    ok = FlowProvider("T2", estimator_cmd=make_stub(tmp_path, "zero.py", STUB_ZERO))
    ok.get_flow("clip", 1, cur, ref)
    assert os.listdir(tmproot) == []
    bad = FlowProvider("T2", estimator_cmd=make_stub(tmp_path, "fail.py", STUB_FAIL))
    with pytest.raises(FlowProviderError):
        bad.get_flow("clip", 1, cur, ref)
    assert os.listdir(tmproot) == []


def test_t2_passes_luma_pgm_of_both_frames(tmp_path):
    # The stub echoes its inputs' dimensions and pixel sums into the field,
    # proving the command sees the current and the decoded reference luma.
    stub = tmp_path / "probe.py"
    stub.write_text(
        "import struct, sys\n"
        "import numpy as np\n"
        "def load(path):\n"
        "    head = open(path, 'rb').read().split(None, 4)\n"
        "    w, h = int(head[1]), int(head[2])\n"
        "    return w, h, np.frombuffer(head[4][-w*h:], np.uint8).sum()\n"
        "w, h, cur_sum = load(sys.argv[1])\n"
        "_, _, ref_sum = load(sys.argv[2])\n"
        "field = np.zeros((h, w, 2), '<f4')\n"
        "field[..., 0] = float(cur_sum % 1000)\n"
        "field[..., 1] = float(ref_sum % 1000)\n"
        "with open(sys.argv[3], 'wb') as fh:\n"
        "    fh.write(struct.pack('<fii', 202021.25, w, h) + field.tobytes())\n"
    )
    provider = FlowProvider("T2", estimator_cmd=f"{sys.executable} {stub}")
    cur, ref = frames()
    field = provider.get_flow("clip", 1, cur, ref)
    assert field[0, 0, 0] == (100 * W * H) % 1000
    assert field[0, 0, 1] == (90 * W * H) % 1000


@pytest.mark.parametrize("command, message", [
    ("", "requires estimator_cmd"),
    ("   ", "requires estimator_cmd"),
    ("estimate 'cur.pgm", "No closing quotation"),
])
def test_t2_refuses_commands_that_cannot_run(command, message):
    with pytest.raises(ValueError, match=message):
        FlowProvider("T2", estimator_cmd=command)


def test_t2_missing_executable_is_a_provider_error(tmp_path):
    provider = FlowProvider("T2", estimator_cmd=str(tmp_path / "no-such-estimator"))
    cur, ref = frames()
    with pytest.raises(FlowProviderError, match="did not start"):
        provider.get_flow("clip", 1, cur, ref)


def test_provider_config_validation():
    with pytest.raises(ValueError):
        FlowProvider("T3")
    with pytest.raises(ValueError):
        FlowProvider("T0")
    with pytest.raises(ValueError):
        FlowProvider("T2")
