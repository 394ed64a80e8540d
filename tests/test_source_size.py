"""The parser-token budget of the modules whose compile is closest to it.

CPython's parser doubles its token array at 2,048 tokens, and again at
4,096; each doubling adds to the peak memory of compiling the module (about
120 KiB at 2,048).  The benchmark's
``peak_rss_mb`` reads that compile peak, so a module crossing the line moves
it for a reason unrelated to the workload.  Tokens are counted with
``tokenize``, leaving out comments, blank-line NL tokens and the encoding.
"""

import tokenize
from pathlib import Path

import pytest

import permbinom

PARSER_TOKEN_ARRAY = 2048
SKIPPED = {tokenize.COMMENT, tokenize.NL, tokenize.ENCODING}


def parser_tokens(path: Path) -> int:
    with path.open("rb") as f:
        return sum(1 for t in tokenize.tokenize(f.readline) if t.type not in SKIPPED)


@pytest.mark.parametrize("module", ["ffield", "hermite", "classify"])
def test_module_below_token_doubling(module):
    path = Path(permbinom.__file__).parent / f"{module}.py"
    assert parser_tokens(path) < PARSER_TOKEN_ARRAY


@pytest.mark.parametrize("module", ["symalg", "cli"])
def test_module_below_second_token_doubling(module):
    path = Path(permbinom.__file__).parent / f"{module}.py"
    assert parser_tokens(path) < 2 * PARSER_TOKEN_ARRAY
