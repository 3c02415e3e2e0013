import pytest

from flowcodec.cli import EXIT_INPUT, main

from synth import translating_frames, write_y4m_file


@pytest.fixture
def y4m(tmp_path):
    return write_y4m_file(tmp_path / "clip.y4m", translating_frames(16, 16, 2))


@pytest.mark.parametrize("flag", ["--gop", "--q"])
def test_encode_rejects_header_overflow_as_input_error(y4m, tmp_path, capsys, flag):
    out = tmp_path / "clip.fcl"
    code = main(["encode", "--input", y4m, "--out", str(out), "--mode", "zero",
                 flag, "70000"])
    assert code == EXIT_INPUT == 1
    assert capsys.readouterr().err.startswith("error:")
    assert not out.exists()
