"""Exception types shared across the package, and the one reader of
text input files.

Everything raised on bad input data derives from DTParserError so the
command-line layer can map it to a single exit code.
"""


class DTParserError(Exception):
    """Base class for all input/data errors raised by this package."""


class BadSetting(DTParserError):
    """A setting holds a value the program cannot work with."""


def decode_utf8(data, path, line=1):
    """Bytes `data`, from line `line` on of file `path`, as text; a byte
    that is not UTF-8 raises DTParserError naming the file and its line."""
    try:
        return data.decode("utf-8")
    except UnicodeDecodeError as exc:
        line += data.count(b"\n", 0, exc.start)
        raise DTParserError(
            f"{path}:{line}: not utf-8: {exc.reason}") from None


def read_text(path):
    """The text of file `path`, decoded by `decode_utf8`."""
    with open(path, "rb") as fh:
        return decode_utf8(fh.read(), path)


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
