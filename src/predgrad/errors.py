"""Exception hierarchy shared by all modules.

Every error carries an ``exit_code`` so the CLI can map failures onto its
exit-status contract: 2 for configuration problems, 3 for data problems,
4 for numeric problems.
"""


class PredgradError(Exception):
    exit_code = 4


class ConfigError(PredgradError):
    exit_code = 2


class BudgetError(ConfigError):
    pass


class ControlBatchEmpty(ConfigError):
    pass


class DataError(PredgradError):
    exit_code = 3


class FormatError(DataError):
    pass


class LabelError(DataError):
    pass


class InsufficientData(DataError):
    pass


class NumericError(PredgradError):
    exit_code = 4


class DimensionError(NumericError):
    pass


class SingularSystem(NumericError):
    pass


class DomainError(ConfigError):    # an argument outside its function's domain
    pass


class MomentError(DomainError):
    pass


class StaleCache(NumericError):
    pass
