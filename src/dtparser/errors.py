"""Exception types shared across the package.

Everything raised on bad input data derives from DTParserError so the
command-line layer can map it to a single exit code.
"""


class DTParserError(Exception):
    """Base class for all input/data errors raised by this package."""


# --- treebank reading / vocabulary building ---

class UnbalancedBrackets(DTParserError):
    def __init__(self, position, message="unbalanced brackets"):
        super().__init__(f"{message} at offset {position}")
        self.position = position


class MissingTag(DTParserError):
    def __init__(self, token, position=None):
        where = f" at offset {position}" if position is not None else ""
        super().__init__(f"leaf token {token!r} has no tag{where}")
        self.token = token


class EmptyConstituent(DTParserError):
    def __init__(self, position, message="empty constituent"):
        super().__init__(f"{message} at offset {position}")
        self.position = position


class EmptyCorpus(DTParserError):
    pass


class FractionOutOfRange(DTParserError):
    pass


# --- head rules ---

class BadRuleSyntax(DTParserError):
    def __init__(self, lineno, message):
        super().__init__(f"line {lineno}: {message}")
        self.lineno = lineno


# --- derivations ---

class DeadEnd(DTParserError):
    """No legal action exists in this state.  Signals a prunable search
    hypothesis, not a caller bug."""


class IllegalAction(DTParserError):
    pass


class UnaryChainTooLong(DTParserError):
    pass


class NonContiguousTree(DTParserError):
    pass


# --- class trees ---

class EmptyVocabulary(DTParserError):
    pass


class UnknownId(DTParserError):
    pass


# --- decision-tree models ---

class NoEvents(DTParserError):
    pass


class SlotLayoutMismatch(DTParserError):
    pass


class DegenerateDistribution(DTParserError):
    pass


# --- search ---

class EmptyInput(DTParserError):
    pass


class SentenceTooLong(DTParserError):
    pass


class EnumerationBudgetExceeded(DTParserError):
    pass


# --- scoring ---

class WordMismatch(DTParserError):
    pass


class AlignmentMismatch(DTParserError):
    def __init__(self, index, message="gold and test files disagree"):
        super().__init__(f"{message} at sentence {index}")
        self.index = index


# --- model files ---

class ModelFileError(DTParserError):
    pass
