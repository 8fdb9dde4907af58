import contextlib
import io
import re
from pathlib import Path

README = Path(__file__).resolve().parents[1] / "README.md"


def test_quick_start_prints_the_documented_rate():
    # the first python block under "Quick start", run as a reader would
    text = README.read_text(encoding="utf-8")
    section = text[text.index("## Quick start") :]
    block = re.search(r"```python\n(.*?)```", section, re.DOTALL).group(1)
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        exec(compile(block, str(README), "exec"), {})
    lines = out.getvalue().splitlines()
    assert "p_infinity(drive.theta, drive.phi)" in block
    assert lines[1] == "0.45984107104345956"
