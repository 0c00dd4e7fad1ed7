"""Line gate: fail a test run that leaves an executable line of
`src/equimesh` unrun, and report the `if` statements that only ever go
one way.

Load it with `-p` so that it starts tracing before the package is
imported, and run the whole suite:

    PYTHONPATH=src python -m pytest -q -p tests.line_gate

Lines are seen by `sys.settrace` (and `threading.settrace` for new
threads) on frames of files in `src/equimesh`; module and class bodies
are traced as they run at import. A code object stops being traced once
all of its lines have run and each of its `if` tests has gone both ways.
An `if` goes one way when its test is followed by a line of its body,
and the other way when it is followed by any other line or ends the call.
The `if` report does not fail the run. Stdlib only.
"""
from __future__ import annotations

import ast
import sys
import threading
from pathlib import Path

import pytest

PACKAGE = Path(__file__).resolve().parent.parent / "src" / "equimesh"

# `if` statements whose body the suite may leave unrun, and which may go
# one way, as (file name, stripped test line)
ALLOWED = {
    # the script entry point: its body runs only in a `python -m equimesh.cli`
    # process, which the suite starts as a subprocess
    ("cli.py", 'if __name__ == "__main__":'),
}


def executable_lines(code):
    """Line numbers of the instructions of `code` and its nested code objects."""
    lines = {line for _, _, line in code.co_lines() if line}
    for const in code.co_consts:
        if hasattr(const, "co_lines"):
            lines |= executable_lines(const)
    return lines


def if_statements(tree):
    """{test line: (lines of the test, lines of the body)} of each `if`
    statement (an `elif` is its own), in one module's syntax tree."""
    out = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.If):
            first = node.body[0]
            decorators = getattr(first, "decorator_list", ())
            start = min([first.lineno] + [d.lineno for d in decorators])
            out[node.lineno] = (
                range(node.lineno, node.test.end_lineno + 1),
                range(start, node.body[-1].end_lineno + 1),
            )
    return out


class LineGate:
    def __init__(self, package):
        self.prefix = str(package) + "/"
        self.in_package = {}  # file name -> under the package
        self.ifs = {}  # file name -> if_statements of the file
        self.seen = {}  # file name -> lines run
        self.ways = {}  # (file name, if line) -> {True, False} outcomes seen
        self.pending = {}  # code object -> (lines not yet run, ifs not both ways)
        self.done = set()  # code objects no longer traced

    def start(self):
        threading.settrace(self._call)
        sys.settrace(self._call)

    def stop(self):
        sys.settrace(None)
        threading.settrace(None)

    def _call(self, frame, event, arg):
        code = frame.f_code
        if code in self.done:
            return None
        name = code.co_filename
        inside = self.in_package.get(name)
        if inside is None:
            inside = self.in_package[name] = name.startswith(self.prefix)
            if inside:
                self.ifs[name] = if_statements(ast.parse(Path(name).read_text()))
                self.seen[name] = set()
        if not inside:
            return None
        if code not in self.pending:
            lines = {line for _, _, line in code.co_lines() if line}
            # the def line runs in the enclosing scope, not in the call
            lines.discard(code.co_firstlineno)
            self.pending[code] = (lines, {k for k in self.ifs[name] if k in lines})
        return self._local(code, name)

    def _local(self, code, name):
        seen, ifs, ways = self.seen[name], self.ifs[name], self.ways
        unrun, one_way = self.pending[code]
        test = None  # the `if` whose outcome the next line decides

        def resolve(line):
            outcomes = ways.setdefault((name, test), set())
            outcomes.add(line in ifs[test][1])
            if len(outcomes) == 2:
                one_way.discard(test)

        def trace(frame, event, arg):
            nonlocal test
            if event == "line":
                line = frame.f_lineno
                seen.add(line)
                unrun.discard(line)
                if test is not None and line not in ifs[test][0]:
                    resolve(line)
                    test = None
                if line in ifs and test is None:
                    test = line
                if not unrun and not one_way:
                    self.done.add(code)
            elif event == "return":
                if test is not None:
                    resolve(None)  # the call ended right after the test
                test = None
            elif event == "exception":
                test = None
            return trace

        return trace

    def report(self):
        """(unrun lines, one-way ifs) as sorted "file:line" strings."""
        unrun, one_way = [], []
        for path in sorted(PACKAGE.glob("*.py")):
            name, source = str(path), path.read_text()
            text = source.splitlines()
            ifs = if_statements(ast.parse(source))
            allowed = set()
            for line, (_, body) in ifs.items():
                if (path.name, text[line - 1].strip()) in ALLOWED:
                    allowed.update([line], body)
            seen = self.seen.get(name, set())
            where = f"{path.relative_to(PACKAGE.parent.parent)}:"
            for line in sorted(executable_lines(compile(source, name, "exec")) - seen):
                if line not in allowed:
                    unrun.append(f"{where}{line}")
            for line in sorted(ifs):
                if len(self.ways.get((name, line), ())) == 1 and line not in allowed:
                    one_way.append(f"{where}{line}")
        return unrun, one_way


_GATE = LineGate(PACKAGE)
_REPORT = pytest.StashKey[tuple]()


@pytest.hookimpl(tryfirst=True)
def pytest_load_initial_conftests(early_config, parser, args):
    # before conftest.py imports the package, so its import is traced too
    _GATE.start()


@pytest.hookimpl(tryfirst=True)
def pytest_sessionfinish(session, exitstatus):
    _GATE.stop()
    unrun, one_way = _GATE.report()
    session.config.stash[_REPORT] = unrun, one_way
    if unrun:
        session.exitstatus = pytest.ExitCode.TESTS_FAILED


def pytest_terminal_summary(terminalreporter, exitstatus, config):
    unrun, one_way = config.stash.get(_REPORT, ((), ()))
    terminalreporter.write_sep("-", "line gate")
    for label, lines in (("unrun line", unrun), ("one-way if", one_way)):
        for line in lines:
            terminalreporter.write_line(f"{label}: {line}")
    terminalreporter.write_line(
        f"{len(unrun)} unrun lines (gated), {len(one_way)} one-way ifs (reported)"
    )
