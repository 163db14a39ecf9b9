"""README's Library example runs as printed.

The CLI examples in README are pinned byte for byte by the benchmark's
expected outputs; this runs the one python block.
"""

import re
from pathlib import Path

from convexcodes import Verdict

README = Path(__file__).resolve().parents[1] / "README.md"


def test_library_example_runs():
    blocks = re.findall(r"^```python\n(.*?)^```$", README.read_text(), re.M | re.S)
    assert len(blocks) == 1
    namespace: dict = {}
    exec(compile(blocks[0], str(README), "exec"), namespace)
    # the values its comments name
    assert namespace["verdict"] is Verdict.NONCONVEX
    assert [c.candidate is not None for c in namespace["certificates"]] == [True]
    assert namespace["ok"]
