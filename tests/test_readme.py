import contextlib
import io
import re
from pathlib import Path

from geopump.cli import _RUN_PARAMS

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


def test_common_flags_sentence_names_every_shared_flag():
    # README's "Common flags" sentence against the options _build_parser
    # adds to every subcommand: _RUN_PARAMS, --config, --format and --out
    text = README.read_text(encoding="utf-8")
    sentence = re.search(r"Common flags:(.*?)\.\n", text, re.DOTALL).group(1)
    shared = {"--" + p.name.replace("_", "-") for p in _RUN_PARAMS}
    shared |= {"--config", "--format", "--out"}
    assert set(re.findall(r"--[a-z-]+", sentence)) == shared
