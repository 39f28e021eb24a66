"""Operations, the timed closed loop, and helpers shared by the workloads."""

from __future__ import annotations

import io
import math
import random
import sys
import time
from array import array
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Any, Callable, NamedTuple



@dataclass(frozen=True)
class Surd:
    """The quadratic irrational (P + sqrt(D)) / Q."""

    P: int
    D: int
    Q: int


def exact_float(x) -> float:
    """Float value of an exact length the way the CLI grammar reads it."""
    if isinstance(x, Surd):
        return (x.P + math.sqrt(x.D)) / x.Q
    if isinstance(x, Fraction):
        return x.numerator / x.denominator
    return float(x)


# ---------------------------------------------------------------------------
# inputs


@dataclass(frozen=True)
class Length:
    """One geometry argument: the CLI text and its exact value."""

    text: str
    exact: Any  # Fraction or Surd

    @property
    def value(self) -> float:
        return exact_float(self.exact)


def rat(p: int, q: int = 1) -> Length:
    return Length(str(p) if q == 1 else f"{p}/{q}", Fraction(p, q))


def dec(text: str) -> Length:
    return Length(text, Fraction(text))


def surd(P: int, D: int, Q: int = 1) -> Length:
    text = f"sqrt({D})" if P == 0 and Q == 1 else f"({P}+sqrt({D}))/{Q}"
    return Length(text, Surd(P, D, Q))


GOLDEN = surd(1, 5, 2)
SQRT2 = surd(0, 2)
SQRT3 = surd(0, 3)
SQRT5 = surd(0, 5)
ONE = rat(1)


def rng_for(workload: str, seed: int) -> random.Random:
    return random.Random(f"hexband-bench:{workload}:{seed}")


def jitter(rng: random.Random, lo: float, hi: float, digits: int = 4) -> float:
    """A uniform draw rounded so that it prints the same on the command line."""
    return round(rng.uniform(lo, hi), digits)


# ---------------------------------------------------------------------------
# operations


class CliOut(NamedTuple):
    exit_code: int
    stdout: str
    stderr: str
    exc: str | None


class OpError(NamedTuple):
    """A library call that raised."""

    exc: str
    message: str


@dataclass
class Op:
    """One operation of a workload round.

    ``fn`` is the timed call; CLI operations return a :class:`CliOut`.
    ``info`` holds the inputs the checks need.  ``numeric_exit_ok`` marks
    operations for which exit 3 with a typed ``numeric failure:`` message is
    an accepted answer.
    """

    label: str
    fn: Callable[[], Any]
    cli: bool = False
    info: dict = field(default_factory=dict)
    numeric_exit_ok: bool = False
    grid_points: int = 0


class CliDriver:
    """Runs the ``hexband`` click group in-process, as its entry point would.

    Standard output and error go to one pair of string buffers reused by
    every invocation.  (click caches a wrapper per ``sys.stdout`` object for
    the life of the process, so a fresh buffer per invocation, as click's
    test runner makes, would pile up every output ever written.)
    """

    def __init__(self):
        import hexband.cli

        self._module = hexband.cli
        self._out = io.StringIO()
        self._err = io.StringIO()

    def invoke(self, argv: list[str]) -> CliOut:
        out, err = self._out, self._err
        for buf in (out, err):
            buf.seek(0)
            buf.truncate()
        saved = sys.stdout, sys.stderr
        sys.stdout, sys.stderr = out, err
        exc = None
        try:
            self._module.cli.main(args=argv, prog_name="hexband", standalone_mode=True)
            code = 0
        except SystemExit as stop:
            code = stop.code if isinstance(stop.code, int) else (0 if stop.code is None else 1)
        except Exception as error:  # an uncaught error: exit status 1, as from the shell
            code, exc = 1, type(error).__name__
        finally:
            sys.stdout, sys.stderr = saved
        return CliOut(code, out.getvalue(), err.getvalue(), exc)

    def op(self, label: str, argv: list, **kw) -> Op:
        argv = [str(a) for a in argv]
        return Op(label, lambda: self.invoke(argv), cli=True, **kw)


def failed(op: Op, out: Any) -> bool:
    if isinstance(out, OpError):
        return True
    if isinstance(out, CliOut):
        if out.exit_code == 0 and out.exc is None:
            return False
        typed = out.exit_code == 3 and out.stderr.startswith("numeric failure:")
        return not (op.numeric_exit_ok and typed)
    return False


# ---------------------------------------------------------------------------
# the closed loop


CALIBRATION_LOOP = 50_000
CALIBRATION_EVERY_S = 0.1


def python_loop() -> float:
    """Time a fixed pure-Python loop that shares nothing with the program."""
    t0 = time.perf_counter()
    acc = 0
    for i in range(CALIBRATION_LOOP):
        acc += i * i
    return time.perf_counter() - t0


class Calibration(NamedTuple):
    """A fixed piece of work timed between operations, and its time on the
    reference machine.

    The machine this benchmark was built on drifts in speed by up to a
    quarter over tens of seconds, for any code.  Reported times are scaled by
    ``ref_s`` over the median of the calibration times taken during the same
    run, which removes most of that drift.  A workload whose time goes to
    numpy rather than the interpreter supplies a numpy calibration.
    """

    time_once: Callable[[], float]
    ref_s: float


PYTHON_CALIBRATION = Calibration(python_loop, 0.0045)


@dataclass
class Measurement:
    times: array = field(default_factory=lambda: array("d"))
    calibrations: list[float] = field(default_factory=list)
    calibration_ref_s: float = PYTHON_CALIBRATION.ref_s
    attempted: int = 0
    failed: int = 0
    rounds: int = 0
    outputs: list[Any] = field(default_factory=list)  # of the first round
    failures: list[str] = field(default_factory=list)  # labels of failed ops
    drift: list[str] = field(default_factory=list)  # later rounds that differ

    @property
    def busy_s(self) -> float:
        return math.fsum(self.times)

    @property
    def speed(self) -> float:
        """Reference-machine seconds per measured second."""
        return self.calibration_ref_s / median(self.calibrations)

    def round_s(self) -> float:
        return self.busy_s / self.rounds


def run_rounds(ops: list[Op], seconds: float, tracer=None, first: list | None = None,
               calibration: Calibration = PYTHON_CALIBRATION) -> Measurement:
    """Run whole rounds of ``ops`` one after another until ``seconds`` pass.

    Each operation is timed on its own; outputs are counted and compared
    with the first round's after the clock stops, so checking adds nothing
    to the recorded times.  The calibration work runs between operations
    every ``CALIBRATION_EVERY_S``.
    """
    m = Measurement(calibration_ref_s=calibration.ref_s)
    clock = time.perf_counter
    started = clock()
    next_calibration = started
    while True:
        outs = []
        times = m.times
        for index, op in enumerate(ops):
            if tracer is not None:
                tracer.begin_op(index)
            if clock() >= next_calibration:
                m.calibrations.append(calibration.time_once())
                next_calibration = clock() + CALIBRATION_EVERY_S
            t0 = clock()
            try:
                if tracer is not None and op.cli:
                    out = tracer.command(op.fn)
                else:
                    out = op.fn()
            except Exception as exc:  # a failed operation is counted, not fatal
                out = OpError(type(exc).__name__, str(exc))
            times.append(clock() - t0)
            outs.append(out)
        for op, out in zip(ops, outs):
            m.attempted += 1
            if failed(op, out):
                m.failed += 1
                if m.rounds == 0:
                    m.failures.append(op.label)
        reference = first if first is not None else (m.outputs if m.rounds else None)
        if reference is None:
            m.outputs = outs
        else:
            for op, out, ref in zip(ops, outs, reference):
                if not same(out, ref):
                    m.drift.append(op.label)
        m.rounds += 1
        if clock() - started >= seconds:
            return m


def same(a: Any, b: Any) -> bool:
    """Equality that treats NaN as equal to itself (outputs are deterministic)."""
    if isinstance(a, CliOut) and isinstance(b, CliOut):
        return a.exit_code == b.exit_code and a.stdout == b.stdout and a.exc == b.exc
    if isinstance(a, float) and isinstance(b, float) and a != a and b != b:
        return True
    return a == b


def median(xs):
    xs = sorted(xs)
    n = len(xs)
    return xs[n // 2] if n % 2 else 0.5 * (xs[n // 2 - 1] + xs[n // 2])


# ---------------------------------------------------------------------------
# check bookkeeping


class Report:
    """Check failures tagged by check name, plus counts of what was checked."""

    def __init__(self):
        self.failures: list[tuple[str, str]] = []
        self.counts: dict[str, int] = {}

    def fail(self, tag: str, message: str) -> None:
        self.failures.append((tag, message))

    def expect(self, ok: bool, tag: str, message: str) -> bool:
        if not ok:
            self.fail(tag, message)
        return ok

    def count(self, key: str, n: int = 1) -> None:
        self.counts[key] = self.counts.get(key, 0) + n

    @property
    def tags(self) -> set[str]:
        return {tag for tag, _ in self.failures}


def rel_close(x: float, y: float, rtol: float, atol: float = 0.0) -> bool:
    return abs(x - y) <= max(atol, rtol * max(abs(x), abs(y)))


def probe_edges(report: Report, tag: str, state_fn, edges, left, right, bounds, delta0):
    """Check the reference state just inside each side of reported edges.

    ``edges`` are positions in the branch variable (k or kappa), ``left`` and
    ``right`` the reported states on either side, ``bounds`` the reported
    neighbouring edges (or window ends) that a probe may not cross, and
    ``delta0`` the first probe offset.  A probe the reference cannot decide
    (a Dirichlet flag or a near tie) moves out by doubling, staying within a
    third of the distance to the neighbour; if it never decides, it is
    counted as undecided, not dropped.
    """
    import numpy as np

    from reference import BAND, GAP, STATE_NAMES

    for side, expected in ((-1, left), (1, right)):
        x = np.asarray(edges, dtype=float)
        limit = np.abs(np.asarray(bounds[0 if side < 0 else 1], dtype=float) - x) / 3.0
        delta = np.minimum(np.asarray(delta0, dtype=float), limit)
        pending = np.arange(len(x))
        undecided = 0
        for _ in range(60):
            if not len(pending):
                break
            got = np.asarray(state_fn(x[pending] + side * delta[pending]))
            decided = (got == BAND) | (got == GAP)
            for i, g in zip(pending[decided], got[decided]):
                report.count(f"{tag}.decided")
                if g != expected[i]:
                    report.fail(tag, f"state {STATE_NAMES[int(g)]} at {x[i]!r}{'+' if side > 0 else '-'}"
                                     f"{delta[i]:.3g}, reported {STATE_NAMES[int(expected[i])]}")
            pending = pending[~decided]
            delta[pending] *= 2.0
            room = delta[pending] <= limit[pending]
            undecided += int(np.sum(~room))
            pending = pending[room]
        report.count(f"{tag}.undecided", undecided + len(pending))
