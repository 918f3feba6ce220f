"""The README's fenced python examples run as doctests."""

import doctest
import re
from pathlib import Path

README = Path(__file__).resolve().parents[1] / "README.md"


def test_readme_examples_run():
    text = README.read_text()
    parser, runner = doctest.DocTestParser(), doctest.DocTestRunner()
    globs = {}  # shared, as a reader running the blocks in order would
    examples = 0
    for block in re.finditer(r"^```python\n(.*?)^```", text, re.M | re.S):
        line = text.count("\n", 0, block.start(1))
        test = parser.get_doctest(block.group(1), {}, "README.md", str(README), line)
        test.globs = globs  # get_doctest copies the dict it is given
        runner.run(test, clear_globs=False)
        examples += len(test.examples)
    assert examples == text.count(">>> ") > 0
    assert runner.summarize(verbose=False).failed == 0
