"""Every lint pragma in ``src/repro`` still silences a live finding.

A pragma outlives its reason silently: the code under it gets rewritten
or moves off the path a rule watches, and the waiver keeps justifying
something the linter would no longer report.  This test copies
``src/repro`` with every ``# lint:`` comment stripped, lints the copy,
and demands that each stripped ``disable=<ids>`` / ``shard-safe(...)``
pragma line yields a violation of every rule it names.  A stale pragma
fails here and should be deleted.
"""

import io
import re
import shutil
import tokenize

from tests.lintkit import REPO_ROOT
from tools.lint.engine import _PRAGMA_RE as DISABLE_RE
from tools.lint.engine import lint_paths
from tools.lint.shard import SHARD_SAFE_RE

SRC = "src/repro"
_LINT_COMMENT_RE = re.compile(r"#\s*lint:")
#: The rule a ``shard-safe(...)`` justification answers.
_SHARD_SAFE_RULE = "shard-mutable-global"


def _pragma_comments(text):
    """(line, col, comment) of every real ``# lint:`` comment token."""
    for tok in tokenize.generate_tokens(io.StringIO(text).readline):
        if tok.type == tokenize.COMMENT and _LINT_COMMENT_RE.match(tok.string):
            yield tok.start[0], tok.start[1], tok.string


def _named_rules(comment):
    m = DISABLE_RE.match(comment)
    if m:
        return {s.strip() for s in m.group("ids").split(",") if s.strip()}
    if SHARD_SAFE_RE.match(comment):
        return {_SHARD_SAFE_RULE}
    return set()


def test_every_pragma_silences_a_live_violation(tmp_path):
    shutil.copytree(REPO_ROOT / SRC, tmp_path / SRC,
                    ignore=shutil.ignore_patterns("__pycache__"))
    expected = set()
    for path in sorted((tmp_path / SRC).rglob("*.py")):
        text = path.read_text(encoding="utf-8")
        lines = text.split("\n")
        rel = path.relative_to(tmp_path).as_posix()
        for line, col, comment in _pragma_comments(text):
            rules = _named_rules(comment)
            assert rules, "%s:%d: unrecognised pragma %r" % (rel, line, comment)
            expected |= {(rule, rel, line) for rule in rules}
            lines[line - 1] = lines[line - 1][:col].rstrip()
        path.write_text("\n".join(lines), encoding="utf-8")
    assert expected, "no pragmas found under %s" % SRC

    got = {(v.rule, v.path, v.line) for v in lint_paths(tmp_path, [SRC])}
    stale = sorted(expected - got)
    assert not stale, "pragmas that silence nothing (delete them):\n%s" % "\n".join(
        "%s:%d: %s" % (rel, line, rule) for rule, rel, line in stale)
