import json

from workloads import output_digest


def _outputs(root):
    (root / "cal").mkdir(parents=True)
    (root / "cal" / "frames.csv").write_bytes(b"phase_index,bit_1,bit_2\n0,1,0\n1,0,1\n")
    (root / "cal" / "report.json").write_text(json.dumps({"kind": "sweep", "runtime_s": 1.5}))
    (root / "cal" / "manifest.json").write_text('{"created_utc": "a"}')
    return root


def test_digest_flags_a_single_flipped_bit(tmp_path):
    out = _outputs(tmp_path)
    before = output_digest(out)
    path = out / "cal" / "frames.csv"
    data = bytearray(path.read_bytes())
    data[-2] ^= 0x01  # "1" -> "0" in the last frame
    path.write_bytes(bytes(data))
    assert output_digest(out) != before


def test_digest_ignores_runtime_and_manifest(tmp_path):
    out = _outputs(tmp_path)
    before = output_digest(out)
    (out / "cal" / "report.json").write_text(json.dumps({"runtime_s": 9.0, "kind": "sweep"}))
    (out / "cal" / "manifest.json").write_text('{"created_utc": "b"}')
    assert output_digest(out) == before
    (out / "cal" / "report.json").write_text(json.dumps({"runtime_s": 9.0, "kind": "shrink"}))
    assert output_digest(out) != before
