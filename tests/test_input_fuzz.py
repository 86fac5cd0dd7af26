"""Random Cartan-like integer matrices through the input path.

Every matrix must classify or raise a declared input error, and
`--matrix-file` must exit 0 or 2, never 1 and never with a traceback: `roots`
and `eval` accept exactly the finite and untwisted affine kinds, `relations`
every matrix that classifies.
"""

import io
import os
import tempfile
from contextlib import redirect_stderr, redirect_stdout

from hypothesis import given, settings
from hypothesis import strategies as st

from onsagerkit import cli
from onsagerkit.cartan import FINITE, OTHER, UNTWISTED_AFFINE, NotGCM, NotSymmetrizable, validate


@st.composite
def matrices(draw):
    n = draw(st.integers(1, 4))
    off = st.sampled_from([1, 0, -1, -2, -3])
    return [[2 if i == j else draw(off) for j in range(n)] for i in range(n)]


def _classify(a):
    try:
        return validate(a).kind
    except (NotGCM, NotSymmetrizable):
        return None


@settings(max_examples=400, deadline=None)
@given(matrices())
def test_validate_classifies_or_rejects(a):
    assert _classify(a) in (None, FINITE, UNTWISTED_AFFINE, OTHER)


# argv after the matrix source, per command
COMMANDS = {"roots": [], "relations": [], "eval": ["B1"]}


@settings(max_examples=80, deadline=None)
@given(matrices())
def test_matrix_file_exits_zero_or_two(a):
    kind = _classify(a)
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "m.txt")
        with open(path, "w") as fh:
            fh.write("".join(" ".join(map(str, row)) + "\n" for row in a))
        for command, rest in COMMANDS.items():
            accepted = kind is not None and (command == "relations" or kind != OTHER)
            out, err = io.StringIO(), io.StringIO()
            with redirect_stdout(out), redirect_stderr(err):
                code = cli.main([command, "--matrix-file", path] + rest)
            if accepted:
                assert code == 0, (command, err.getvalue())
            else:
                assert code == 2, command
                assert err.getvalue().startswith("error: "), command
