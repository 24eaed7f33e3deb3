import contextlib
import io
import json
import sys
from pathlib import Path

import pytest

# let test modules import sibling helpers (fd_utils) regardless of invocation dir
sys.path.insert(0, str(Path(__file__).parent))


@pytest.fixture
def run_cli(tmp_path, monkeypatch):
    """``run_cli(*argv, configs={filename: payload}, cwd=tmp_path)`` writes each
    config as JSON into ``cwd``, runs ``cli.main(argv)`` there in process and
    returns ``(exit code, stdout, stderr)``."""
    from photonvae import cli

    def run(*argv, configs=None, cwd=None):
        cwd = Path(cwd or tmp_path)
        cwd.mkdir(parents=True, exist_ok=True)
        for filename, payload in (configs or {}).items():
            (cwd / filename).write_text(json.dumps(payload))
        monkeypatch.chdir(cwd)
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = cli.main(list(argv))
        return code, out.getvalue(), err.getvalue()

    return run
