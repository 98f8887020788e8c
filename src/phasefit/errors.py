"""Exception hierarchy for phasefit."""


class PhasefitError(Exception):
    """Base class for all phasefit errors."""


# --- model construction ---

class EmptyModel(PhasefitError):
    """A model must contain at least one branch."""


class ProbSumInvalid(PhasefitError):
    """Branch probabilities do not sum to 1 within tolerance."""


class NonPositiveRate(PhasefitError):
    """A stage or routing rate must be strictly positive and finite."""


class MalformedModel(PhasefitError):
    """Model or CTMC data is unreadable, lacks a field, or breaks a rule of
    its format (CTMC shapes, row sums, signs, absorbing row, initial sum)."""


class UnsupportedShape(PhasefitError):
    """Operation is only defined for a specific model topology."""


# --- analysis ---

class PoleEvaluation(PhasefitError):
    """Laplace transform evaluated too close to one of its poles."""


class StiffChain(PhasefitError):
    """A branch's stage rates lie too far apart for uniformization at this time."""


class NegativeTime(PhasefitError):
    """Density/CDF evaluation requires t >= 0."""


class DegenerateProbs(PhasefitError):
    """No routing probability falls on a branch with stages."""


# --- fitting ---

class NonPositiveInput(PhasefitError):
    """An input out of range: a mean or variance target, moment order, arrival rate, calendar
    time, seed, stage count or branch length, or probabilities and lengths that do not pair."""


class DomainError(PhasefitError):
    """Target moments fall outside the domain of the requested construction."""


class MomentOverflow(DomainError):
    """A mean, variance or second moment exceeds the float range."""


class POutOfRange(PhasefitError):
    """Routing probability exceeds the feasible maximum 2/(1+Cv^2)."""


class DeterministicUnrepresentable(PhasefitError):
    """Zero variance cannot be matched with finitely many exponential stages."""


class InsufficientData(PhasefitError):
    """At least two observations are required."""


class NegativeObservation(PhasefitError):
    """Observations must be nonnegative."""


class NonFiniteObservation(PhasefitError):
    """Observations must be finite: NaN and infinities are refused."""


# --- sampling ---

class NegativeCount(PhasefitError):
    """A count of draws, customers or streams must be nonnegative."""


# --- markov ---

class ReducibleChain(PhasefitError):
    """The absorbing state is unreachable from some state."""


# --- simulation ---

class UnstableSystem(PhasefitError):
    """Offered load rho >= 1; no steady state exists."""


class UnstableSystemWarning(UserWarning):
    """Simulation run with rho >= 1; reported statistics are transient."""
