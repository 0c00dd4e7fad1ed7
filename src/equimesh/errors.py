"""Exception hierarchy shared across the package.

The command line maps these onto distinct exit codes: format/parse
problems, topology problems, engine (numerical) failures, and resource
guards are kept separate so callers can react programmatically. Every
input text file is read through `read_text`, so a file that cannot be read
or decoded is a FormatError (exit 2) wherever it is opened. The line
formats (meshes, weights, contours) take their lines from `read_lines`,
one comment rule for all, and convert each row through `row_values`, so a
bad row is a FormatError naming `path:line`; a fault the mesh or contour
constructors find in the content is re-raised under `naming`, so its
message names the file too. The array constructors share one ownership
rule, `owned_array`.
"""
from contextlib import contextmanager
from pathlib import Path

import numpy as np


class EquimeshError(Exception):
    """Base class for all package errors."""


class FormatError(EquimeshError):
    """Malformed input file or unparsable value."""


def read_text(path):
    """The UTF-8 text of `path`; a file that cannot be read or decoded
    raises FormatError."""
    try:
        return Path(path).read_text(encoding="utf-8")
    except OSError as exc:
        raise FormatError(f"cannot read {path}: {exc}") from exc
    except UnicodeDecodeError as exc:
        raise FormatError(f"{path} is not UTF-8 text (a binary file?): {exc}") from exc


def read_lines(path):
    """Yield (line number, text) for each line of `path` that is not blank
    once its `#` comment is cut off; the text is stripped."""
    for number, raw in enumerate(read_text(path).splitlines(), start=1):
        text = raw.split("#", 1)[0].strip()
        if text:
            yield number, text


def row_values(path, number, what, tokens, convert, count=None):
    """`convert` applied to each token of the `what` on line `number` of
    `path`. A token it refuses, or other than `count` tokens when `count` is
    given, raises FormatError naming path:line."""
    if count is not None and len(tokens) != count:
        raise FormatError(
            f"{path}:{number}: {what}: expected {count} values, found {len(tokens)}"
        )
    try:
        return [convert(token) for token in tokens]
    except ValueError as exc:
        raise FormatError(f"{path}:{number}: {what}: {exc}") from None


@contextmanager
def naming(place):
    """Prefix `place` (a path, or path:line) to the message of a
    TopologyError or ValueError raised in the block, as a mesh or contour
    constructor raises for a file's content; the class stays, and so does
    the exit code."""
    try:
        yield
    except (TopologyError, ValueError) as exc:
        exc.args = (f"{place}: {exc}",)
        raise


class TopologyError(EquimeshError):
    """Mesh connectivity violates the supported topology class."""


class EngineError(EquimeshError):
    """Numerical failure inside a solver or remeshing loop; `trace` is the
    loop's log up to the failure, or None when no loop kept one."""

    def __init__(self, *args, trace=None):
        super().__init__(*args)
        self.trace = trace


class SolverError(EngineError):
    """Iterative linear solve did not reach the requested residual."""

    def __init__(self, message, iterations=None, residual=None):
        super().__init__(message)
        self.iterations = iterations
        self.residual = residual


class DegenerateMeshError(EngineError, ValueError):
    """A face lost its area or stretch frame (a ValueError for callers' meshes)."""


class FoldError(EngineError):
    """Parameter-domain fold: a mapped triangle reversed orientation."""


class SingularityError(EngineError):
    """Coordinate inversion requested on or too near the singular locus."""


class IntersectionError(EngineError):
    """Remeshed contour crosses itself."""

    def __init__(self, message, particle_ids=()):
        super().__init__(message)
        self.particle_ids = list(particle_ids)


class GuardError(EquimeshError):
    """A resource guard (refinement depth, expansion degree) was exceeded."""


def check_count(name, value, lo, hi=np.inf, error=ValueError):
    """`value` as an int when it is an integer in [lo, hi], else `error`.
    Python and numpy integers count; a bool does not, though Python counts
    True as an int, nor does a float."""
    bounds = f">= {lo}" if hi == np.inf else f"in [{lo}, {hi}]"
    if (isinstance(value, bool) or not isinstance(value, (int, np.integer))
            or not lo <= value <= hi):
        raise error(f"{name} must be an integer {bounds}")
    return int(value)


def read_only(array):
    """`array`, frozen in place. A library builder hands what it made to a
    constructor this way, so `owned_array` takes it without a copy."""
    array.setflags(write=False)
    return array


def owned_array(value, dtype):
    """`value` as a read-only C-contiguous `dtype` array that no caller can
    write through: a read-only array is taken as it is, or converted when
    its dtype or layout differs; anything else is copied, so a caller's
    writeable array stays writeable and apart from the copy."""
    if isinstance(value, np.ndarray) and not value.flags.writeable:
        return read_only(np.ascontiguousarray(value, dtype=dtype))
    return read_only(np.array(value, dtype=dtype, order="C"))
