"""Hostile commands over the CLI grammar: every one exits 0, 2, 3 or 4.

Run as a script, ``python tests/cli_grammar.py [examples]`` draws commands of
``bands``, ``gaps``, ``classify``, ``flatbands`` and ``verify`` with
``hypothesis``, derandomized, and runs each in-process. The draws span lengths
from 5e-324 to 1e308 (floats, rationals of up to 400 digits, and surds with
radicands of up to 400 digits), couplings up to +-1e300, windows up to 1e9,
and ``--n-max``, ``--centers``, ``--samples``, ``--grid-n`` and
``--refine-rounds`` values from below their minimum to far above their
budgets; ``verify`` draws one to three samples per check. The script exits
nonzero, printing the falsifying command, if a command exits otherwise or
raises. Run it under an address-space cap, as ``tests/test_cli.py`` does, so
that a command which allocates past its budget fails there, not on the
machine's memory.
"""

import sys

from click.testing import CliRunner
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from hexband.cli import cli

_HUGE = st.integers(1, 10**400)
_LENGTHS = st.one_of(
    st.floats(5e-324, 1e308).map(repr),
    st.floats(0.2, 5).map(repr),
    st.builds("{}/{}".format, _HUGE, _HUGE),
    st.builds("{}/{}".format, st.integers(1, 50), st.integers(1, 50)),
    st.builds("sqrt({})".format, st.one_of(st.integers(0, 50), _HUGE)),
    st.builds("({}{}sqrt({}))/{}".format, st.integers(-10**6, 10**6), st.sampled_from("+-"),
              st.one_of(st.integers(0, 50), _HUGE), st.integers(-50, 50)),
    st.builds("({}+sqrt({}))/{}".format, st.integers(0, 9), st.integers(2, 50), st.integers(1, 9)),
)
_ALPHAS = st.one_of(st.floats(-1e300, 1e300), st.floats(-50, 50)).map(repr)
_WAVENUMBERS = st.one_of(st.floats(5e-324, 1e9), st.floats(0.01, 50))
# counts below their minimum, small enough to run fast, and past every budget
_COUNTS = st.one_of(st.integers(-3, 10), st.integers(11, 10**4),
                    st.integers(10**6, 10**10)).map(str)

# verify's grids and rounds: below their minimum, small enough to run fast, and
# past their budgets (2**12 points per axis, 2**6 rounds)
_GRIDS = st.one_of(st.integers(-3, 7), st.integers(8, 96),
                   st.integers(2**12 + 1, 10**10)).map(str)
_ROUNDS = st.one_of(st.integers(-3, 2**6), st.integers(2**6 + 1, 10**10)).map(str)
_SAMPLES = st.integers(1, 3).map(str)


def _window(start, width):
    return ["--kmin", repr(start), "--kmax", repr(start + width)]


def _geometry(names):
    return st.tuples(*(_LENGTHS for _ in names)).map(
        lambda texts: [word for name, text in zip(names, texts) for word in (f"--{name}", text)])


def _command(name, *parts):
    return st.tuples(*parts).map(lambda words: [name] + [w for part in words for w in part])


_ABC = _geometry("abc")
_ALPHA = _ALPHAS.map(lambda alpha: ["--alpha", alpha])
_WINDOW = st.builds(_window, _WAVENUMBERS, _WAVENUMBERS)
COMMANDS = st.one_of(
    _command("bands", _ABC, _ALPHA, _WINDOW, st.sampled_from([[], ["--format", "csv"]]),
             st.sampled_from([[], ["--include-negative"]]),
             st.one_of(st.just([]), _COUNTS.map(lambda n: ["--samples", n])),
             st.one_of(st.just([]), _WAVENUMBERS.map(lambda x: ["--kappa-max", repr(x)]))),
    _command("gaps", _ABC, _ALPHA, _WINDOW,
             st.sampled_from([[], ["--format", "csv"]]),
             st.one_of(st.just([]), _COUNTS.map(lambda n: ["--centers", n]))),
    _command("classify", _geometry("ab"), _ALPHA, _COUNTS.map(lambda n: ["--centers", n])),
    _command("flatbands", _ABC, _ALPHA, _COUNTS.map(lambda n: ["--n-max", n])),
    _command("verify", _GRIDS.map(lambda n: ["--grid-n", n]),
             _ROUNDS.map(lambda n: ["--refine-rounds", n]),
             _SAMPLES.map(lambda n: ["--det-samples", n]),
             _SAMPLES.map(lambda n: ["--envelope-samples", n]),
             _SAMPLES.map(lambda n: ["--trigmin-samples", n]),
             st.integers(0, 2**64).map(lambda seed: ["--seed", str(seed)])),
)


def check(examples: int) -> None:
    runner = CliRunner()

    @settings(max_examples=examples, derandomize=True, database=None, deadline=None,
              suppress_health_check=list(HealthCheck))
    @given(COMMANDS)
    def exits_cleanly(argv):
        result = runner.invoke(cli, argv)
        assert result.exit_code in (0, 2, 3, 4), (result.exit_code, result.output)
        assert result.exception is None or isinstance(result.exception, SystemExit), \
            repr(result.exception)

    exits_cleanly()


if __name__ == "__main__":
    check(int(sys.argv[1]) if len(sys.argv) > 1 else 200)
