"""The library example in README.md runs as printed: its one ``python``
block executes, the comment beside the Macdonald print is that line's
output, and the bracket's first coefficient is 8/63."""

import contextlib
import io
import re
from fractions import Fraction
from pathlib import Path

README = Path(__file__).resolve().parent.parent / "README.md"


def test_readme_library_example_runs_as_printed():
    blocks = re.findall(r"^```python\n(.*?)^```$", README.read_text(), re.S | re.M)
    assert len(blocks) == 1
    namespace = {}
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        exec(blocks[0], namespace)
    claimed = re.search(r"^print\(table\.P.*#\s*(.*)$", blocks[0], re.M).group(1)
    assert out.getvalue().splitlines()[0] == claimed
    assert namespace["series"].coeffs[0] == Fraction(8, 63)
