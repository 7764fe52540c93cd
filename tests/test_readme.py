import re
from pathlib import Path

README = Path(__file__).resolve().parent.parent / "README.md"


def test_quick_example_runs():
    # the README's one Python block asserts the values it shows
    (block,) = re.findall(r"^```python\n(.*?)^```$", README.read_text(), re.S | re.M)
    exec(compile(block, "README.md", "exec"), {})
