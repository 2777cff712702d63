"""Exception hierarchy shared across the package.

Every error raised by rdtrial derives from :class:`RdTrialError` so callers
can catch package failures with a single except clause. The CLI maps
:class:`ConfigError` to exit code 1 and :class:`DataError` to exit code 2.
"""

from contextlib import contextmanager


class RdTrialError(Exception):
    """Base class for all rdtrial errors."""


# --- model construction and validation ---

class InvalidModel(RdTrialError):
    """Structural problem in a network or template definition."""


class CyclicGraph(InvalidModel):
    """The arc set contains a directed cycle. Carries a witness path."""

    def __init__(self, witness):
        self.witness = list(witness)
        super().__init__("directed cycle: " + " -> ".join(self.witness))


class UnnormalizedCpt(InvalidModel):
    """A CPT row does not sum to 1 within tolerance."""

    def __init__(self, node, row, total):
        self.node = node
        self.row = row
        self.total = total
        super().__init__(f"CPT for {node!r} row {row} sums to {total!r}")


class UnknownVariable(RdTrialError):
    """A reference names a variable the network does not contain."""


class UnknownState(RdTrialError):
    """A reference names a state the variable does not have."""


# --- inference ---

class ZeroProbabilityEvidence(RdTrialError):
    """The supplied evidence has probability zero under the model."""


class InvalidQuery(RdTrialError, ValueError):
    """A query that asks nothing: its target is observed or intervened on,
    or its evidence contradicts its intervention. Also a ValueError."""


class IncompleteAssignment(RdTrialError):
    """joint_probability requires a value for every variable."""


# --- learning ---

class EmptyParentConfiguration(RdTrialError):
    """A parent configuration has no observations and smoothing is off."""


class NonFiniteLikelihood(RdTrialError):
    """A row is impossible under the current parameters (structural zero)."""


class InsufficientPositives(RdTrialError):
    """Stratified split cannot give every fold at least one positive."""


class EmptyClass(RdTrialError):
    """Undersampling needs at least one record in each outcome class."""


# --- preprocessing ---

class NonFiniteValue(RdTrialError):
    """A non-finite numeric value reached binning."""


# --- statistics ---

class DegenerateTable(RdTrialError):
    """Fewer than two usable categories remain after collapsing."""


class EmptySample(RdTrialError):
    """A two-sample test received an empty sample."""


class SingleClass(RdTrialError):
    """Threshold selection needs both positive and negative labels."""


# --- rd-do pipeline ---

class TooFewRecords(RdTrialError):
    """Fewer scored records than the smallest window size."""


class NoCausalPath(RdTrialError):
    """Interventional query on a variable with no directed path to the outcome."""


# --- synthetic generation ---

class TooLargeForEnumeration(RdTrialError):
    """The network state space is too large for exact enumeration."""


# --- CLI ---

class ConfigError(RdTrialError):
    """Bad configuration or missing input file. CLI exit code 1."""


class DataError(RdTrialError):
    """Malformed data content. CLI exit code 2. Names file, row, column."""


@contextmanager
def required_file(what: str, path):
    """Turn a missing input file, met when it is opened, into ConfigError
    ("<what> file not found: <path>"); no probe before the open."""
    try:
        yield
    except (FileNotFoundError, NotADirectoryError):
        raise ConfigError(f"{what} file not found: {path}") from None
