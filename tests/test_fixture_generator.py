import os
import shutil
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def _files(root: Path) -> dict[Path, bytes]:
    return {path.relative_to(root): path.read_bytes() for path in root.rglob("*") if path.is_file()}


def test_the_fixture_generator_writes_the_committed_fixtures(fixtures_dir, tmp_path):
    # the script writes beside itself: <its parent>/../tests/fixtures
    (tmp_path / "scripts").mkdir()
    script = shutil.copy(ROOT / "scripts" / "make_fixtures.py", tmp_path / "scripts")
    written = tmp_path / "tests" / "fixtures"
    written.mkdir(parents=True)
    done = subprocess.run(
        [sys.executable, script], capture_output=True, text=True, timeout=120,
        env=dict(os.environ, PYTHONPATH=str(ROOT / "src")),
    )
    assert done.returncode == 0, done.stderr
    assert "self-check ok" in done.stdout
    regenerated, committed = _files(written), _files(fixtures_dir)
    assert sorted(regenerated) == sorted(committed)
    assert [p for p in sorted(committed) if regenerated[p] != committed[p]] == []
