"""The bundled mini corpus is exactly what its generator writes, so the
goldens that depend on its embeddings and scores cannot drift from it."""

import subprocess
import sys
from pathlib import Path

SCRIPT = Path(__file__).resolve().parent.parent / "scripts" / "make_mini_corpus.py"


def test_generator_reproduces_the_bundled_files(tmp_path, mini_dir):
    result = subprocess.run(
        [sys.executable, str(SCRIPT), "--out", str(tmp_path)],
        capture_output=True, text=True, timeout=120, check=False,
    )
    assert result.returncode == 0, result.stderr
    written = sorted(path.name for path in tmp_path.iterdir())
    assert {"config.ini", "embeddings.txt", "scores.tsv", "train.tsv"} <= set(written)
    for name in written:
        assert (tmp_path / name).read_bytes() == (mini_dir / name).read_bytes(), name
